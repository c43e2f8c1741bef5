"""What ``import ringgraphs`` loads, seen from a fresh interpreter.

pytest itself imports ``dataclasses`` and ``inspect``, so the modules the
package adds are read off two new processes: one that imports only ``sys``
and one that imports the package and its command line.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

SUBMODULES = {
    "ringgraphs.analysis",
    "ringgraphs.claims",
    "ringgraphs.conilpotency",
    "ringgraphs.graphs",
    "ringgraphs.ideals",
    "ringgraphs.rings",
}


def loaded_modules(imports: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import {imports}; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_import_loads_no_code_generation_machinery():
    added = loaded_modules("sys, ringgraphs, ringgraphs.cli") - loaded_modules("sys")
    assert SUBMODULES | {"ringgraphs", "ringgraphs.cli"} <= added
    assert not {"dataclasses", "inspect"} & added
