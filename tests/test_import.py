"""What ``import ringgraphs`` loads, seen from a fresh interpreter, the names
it serves, and what ``rings.py`` imports.

pytest itself imports ``dataclasses`` and ``inspect``, so the modules the
package adds are read off new processes: one that imports only ``sys`` and
others that import parts of the package.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import ringgraphs

SRC = Path(__file__).parents[1] / "src"

CORE = {"ringgraphs", "ringgraphs.graphs", "ringgraphs.ideals", "ringgraphs.rings"}
UPPER = {"ringgraphs.analysis", "ringgraphs.claims", "ringgraphs.conilpotency"}

# the package's public names before its upper layers loaded lazily, each with
# the submodule that defines it; a submodule's own name maps to itself
PUBLIC = {
    **dict.fromkeys(["analysis", "PartitionWitness", "check_partition_claim",
                     "complete_multipartite_parts", "graph_equals", "is_complete",
                     "is_empty_graph", "is_subgraph", "zpnq_parts"], "analysis"),
    **dict.fromkeys(["claims", "CATALOG", "ClaimInstance", "ClaimReport", "check_bipartite_iff",
                     "default_grid", "replay_witness", "run_claim", "run_suite"], "claims"),
    **dict.fromkeys(["conilpotency", "ConilpotencyRecord", "conilpotency_record",
                     "ring_conilpotency_index"], "conilpotency"),
    **dict.fromkeys(["graphs", "COZERO", "EXTENDED", "ZERO", "GraphLevel", "NotAVertex",
                     "PowerTrajectory", "adjacent", "build_level", "clear_caches",
                     "minimal_stabilization_index", "power_trajectory", "stabilization_bound",
                     "vertex_set"], "graphs"),
    **dict.fromkeys(["ideals", "IdealSet", "ideal_sum", "is_maximal", "is_prime", "is_semiprime",
                     "jacobson_radical", "maximal_ideals", "principal_plus", "span",
                     "span_from_labels", "zero_ideal"], "ideals"),
    **dict.fromkeys(["rings", "CarrierTooLarge", "ModularRing", "NonMonicModulus", "ParseError",
                     "PolyQuotientRing", "ProductRing", "Ring", "ZeroModulus", "build_ring",
                     "descriptor_string", "parse_ring"], "rings"),
}


def run_fresh(code: str) -> list[str]:
    """The lines ``code`` prints in a new interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def loaded_modules(code: str) -> set[str]:
    return set(run_fresh(f"import sys; {code}; print('\\n'.join(sys.modules))"))


def added_package_modules(code: str) -> set[str]:
    return {m for m in loaded_modules(code) - loaded_modules("pass")
            if m == "ringgraphs" or m.startswith("ringgraphs.")}


def test_import_loads_no_code_generation_machinery():
    every = "ringgraphs.claims, ringgraphs.analysis, ringgraphs.conilpotency"
    added = loaded_modules(f"import {every}, ringgraphs.export, ringgraphs.cli")
    added -= loaded_modules("pass")
    assert CORE | UPPER | {"ringgraphs.export", "ringgraphs.cli"} <= added
    assert not {"dataclasses", "inspect"} & added


def test_import_loads_only_the_graph_core():
    assert added_package_modules("import ringgraphs") == CORE


def test_cli_import_loads_no_upper_layer():
    added = added_package_modules("import ringgraphs.cli")
    assert added == CORE | {"ringgraphs.cli", "ringgraphs.export"}


def test_first_access_loads_the_defining_layer():
    assert added_package_modules("import ringgraphs; ringgraphs.run_suite") == CORE | {
        "ringgraphs.analysis", "ringgraphs.claims", "ringgraphs.conilpotency"}
    assert added_package_modules("import ringgraphs; ringgraphs.zpnq_parts") == CORE | {
        "ringgraphs.analysis"}


def test_public_names_are_those_of_the_defining_submodules():
    # in a new process, since other tests here load ringgraphs.cli and .export
    listed = run_fresh("import ringgraphs; print(*[n for n in dir(ringgraphs) if n[0] != '_'])")
    assert sorted(listed) == sorted(PUBLIC)
    starred = run_fresh("from ringgraphs import *; print(*[n for n in dir() if n[0] != '_'])")
    assert sorted(starred) == sorted(PUBLIC)
    for name, module in PUBLIC.items():
        defining = importlib.import_module(f"ringgraphs.{module}")
        expected = defining if name == module else getattr(defining, name)
        assert getattr(ringgraphs, name) is expected, name
    assert not hasattr(ringgraphs, "no_such_name")


def test_lazy_names_read_through_to_their_submodule(monkeypatch):
    # no copy is kept in the package, so a rebinding in the submodule shows
    from ringgraphs import claims

    original = claims.run_suite
    monkeypatch.setattr(claims, "run_suite", len)
    assert ringgraphs.run_suite is len
    monkeypatch.undo()
    assert ringgraphs.run_suite is original
    assert "run_suite" not in vars(ringgraphs)


def test_rings_imports_nothing_from_the_package():
    # the ring families stand alone: ideals, graphs and claims build on them
    tree = ast.parse((SRC / "ringgraphs" / "rings.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("ringgraphs"), node.lineno
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ringgraphs") for a in node.names), node.lineno
