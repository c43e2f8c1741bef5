"""``python -m ringgraphs``: the command-line interface of ``ringgraphs.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
