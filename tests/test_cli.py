"""Command-line surface: verbs, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringgraphs

from ringgraphs.analysis import graph_equals
from ringgraphs.cli import main
from ringgraphs.export import graph_to_dot, graph_to_json, load_graph_json
from ringgraphs.graphs import EXTENDED, build_level
from ringgraphs.ideals import span_from_labels, zero_ideal
from ringgraphs.rings import build_ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_dot_z12_level2(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--ring", "Z12", "--ideal", "0", "--i", "2", "--format", "dot"
    )
    assert code == 0
    node_lines = [l for l in out.splitlines() if '";' in l and "--" not in l]
    edge_lines = [l for l in out.splitlines() if "--" in l]
    assert len(node_lines) == 7
    assert len(edge_lines) == 12
    assert out.startswith("graph g_cozero_2 {")


def test_stabilize_z24_prints_3(capsys):
    code, out, _ = run_cli(capsys, "stabilize", "--ring", "Z24", "--ideal", "0")
    assert code == 0
    assert out.strip() == "3"


def test_build_json_z9(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--ring", "Z9", "--ideal", "0", "--i", "5", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["3", "6"]
    assert data["edges"] == []


def test_ideal_field_is_the_canonical_name(capsys):
    # 8 spans the ideal {0, 4, 8} of Z12, whose greedy generator is 4
    builds = [
        run_cli(capsys, "build", "--ring", "Z12", "--ideal", ideal, "--format", "json")
        for ideal in ("8", "4")
    ]
    assert builds[0] == builds[1]
    assert json.loads(builds[0][1])["ideal"] == ["4"]
    _, out, _ = run_cli(capsys, "stabilize", "--ring", "Z12", "--ideal", "8", "--format", "json")
    assert json.loads(out)["ideal"] == ["4"]


def test_json_round_trip(tmp_path, capsys):
    for name, ideal, level, kind in [
        ("Z24", "0", "2", "cozero"),
        ("Z4xZ9", "0", "ext", "cozero"),
        ("Z2[x,y]/(x^3,y^2)", "y", "2", "zero"),
    ]:
        path = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys, "build", "--ring", name, "--ideal", ideal, "--i", level, "--kind", kind,
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        loaded = load_graph_json(path.read_text(encoding="utf-8"))
        ring = build_ring(name)
        i = EXTENDED if level == "ext" else int(level)
        built = build_level(ring, span_from_labels(ring, ideal), i, kind)
        assert built.edge_count > 0
        assert graph_equals(loaded, built), name
        assert loaded.level == built.level, name


def test_dot_and_json_enumerate_identically():
    ring = build_ring("Z24")
    g = build_level(ring, zero_ideal(ring), 2)
    data = json.loads(graph_to_json(g))
    dot = graph_to_dot(g)
    dot_nodes = [
        line.strip().strip(';').strip('"')
        for line in dot.splitlines()
        if '";' in line and "--" not in line
    ]
    dot_edges = [
        [p.strip().strip('"') for p in line.strip().strip(";").split("--")]
        for line in dot.splitlines()
        if "--" in line
    ]
    assert dot_nodes == data["vertices"]
    assert dot_edges == data["edges"]


def test_extended_level_flag(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--ring", "Z12", "--i", "ext", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["i"] == "extended"
    assert len(data["edges"]) == 12


def test_zdg_verb(capsys):
    code, out, _ = run_cli(
        capsys, "zdg", "--ring", "Z6", "--i", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "zero"
    assert data["vertices"] == ["2", "3", "4"]
    assert data["edges"] == [["2", "3"], ["3", "4"]]


def test_radical_verb(capsys):
    code, out, _ = run_cli(capsys, "radical", "--ring", "Z12")
    assert code == 0 and out.strip() == "0,6"
    code, out, _ = run_cli(capsys, "radical", "--ring", "Z12", "--format", "json")
    assert json.loads(out)["elements"] == ["0", "6"]


def test_xi_verb(capsys):
    code, out, _ = run_cli(capsys, "xi", "--ring", "Z6", "--ideal", "0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "xi(R) = 1"
    code, out, _ = run_cli(capsys, "xi", "--ring", "Z5", "--format", "json")
    assert json.loads(out)["xi"] is None


def test_analyze_verb(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--ring", "Z12", "--i", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_complete"] is False
    assert data["complete_multipartite_parts"] == [["2", "4", "8", "10"], ["3", "6", "9"]]
    assert data["valuation_partition"]["holds"] is False
    assert data["valuation_partition"]["witness"] == ["3", "6"]


def test_exit_code_on_bad_grammar(capsys):
    code, _, err = run_cli(capsys, "build", "--ring", "Zoops")
    assert code == 2
    assert "error" in err


def test_exit_code_on_stray_plus_in_ideal(capsys):
    code, _, err = run_cli(capsys, "build", "--ring", "Z2[x]/(x^3)", "--ideal", "x+")
    assert code == 2
    assert "dangling sign" in err


def test_exit_code_on_carrier_cap(capsys):
    code, _, err = run_cli(capsys, "build", "--ring", "Z70000")
    assert code == 2
    # a modulus degree past the cap is refused before its coefficients are made
    code, _, err = run_cli(capsys, "radical", "--ring", "Z2[t]/(t^1000000000000000+1)")
    assert code == 2
    assert "exceeds 65536" in err


def test_exit_code_on_unknown_flag(capsys):
    assert main(["build", "--ring", "Z12", "--nope"]) == 2


def test_exit_code_on_bad_level(capsys):
    code, _, err = run_cli(capsys, "build", "--ring", "Z12", "--i", "0")
    assert code == 2


def test_verify_grid_file_and_exit_codes(tmp_path, capsys):
    ok_grid = [
        {"claim": "C-EMPTY", "ring": "Z27", "ideal": "0", "params": {"i": 4},
         "expected": "VERIFIED"},
        {"claim": "C-TRI", "ring": "Z12", "ideal": "0",
         "params": {"i": 2, "p": 2, "q": 3, "n": 2}, "expected": "REFUTED"},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(ok_grid), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--grid", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0

    bad_grid = [dict(ok_grid[1], expected="VERIFIED")]
    path.write_text(json.dumps(bad_grid), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--grid", str(path))
    assert code == 1
    assert json.loads(out)["mismatches"] == 1


def test_verify_table_format(tmp_path, capsys):
    grid = [
        {"claim": "C-BIP", "ring": "Z6", "ideal": "0", "params": {"i": 1},
         "expected": "VERIFIED"},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--grid", str(path), "--format", "table")
    assert code == 0
    assert "C-BIP: VERIFIED=1" in out


def test_export_verb_round_trip(tmp_path, capsys):
    src = tmp_path / "g.json"
    code, _, _ = run_cli(
        capsys, "build", "--ring", "Z12", "--i", "2", "--format", "json",
        "--out", str(src),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "export", "--in", str(src), "--format", "dot")
    assert code == 0
    direct_code, direct_out, _ = run_cli(
        capsys, "build", "--ring", "Z12", "--i", "2", "--format", "dot"
    )
    assert out == direct_out


def test_build_outputs_are_deterministic(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "build", "--ring", "Z36", "--i", "3", "--format", "json"
        )
        outs.add(out)
    assert len(outs) == 1


def test_missing_grid_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--grid", "/nonexistent/grid.json")
    assert code == 2


def test_internal_value_error_is_not_reported_as_bad_input(monkeypatch, capsys):
    # exit code 2 means malformed input; a ValueError raised inside the
    # library is a bug and must surface instead
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("ringgraphs.cli.build_level", broken)
    with pytest.raises(ValueError):
        main(["build", "--ring", "Z12", "--i", "2"])


@pytest.mark.parametrize(
    "payload",
    [
        [{"claim": "C-NOPE", "ring": "Z12"}],
        [{"ring": "Z12"}],
        [{"claim": "C-EMPTY", "ring": "Z27", "params": {"i": "x"}}],
        [{"claim": "C-TRI", "ring": "Z12", "params": {"n": 0}}],
        [{"claim": "C-EMPTY", "ring": "Z27", "ideal": 5}],
        [{"claim": "C-EMPTY", "ring": ["Z27"]}],
        [{"claim": "C-TRI", "ring": "Z12", "expected": "VERIFEID"}],
        {"claim": "C-EMPTY", "ring": "Z27"},
        "[{",
    ],
    ids=["unknown-claim", "no-claim", "level-not-int", "n-zero", "ideal-not-string",
         "ring-not-string", "expected-misspelled", "not-a-list", "not-json"],
)
def test_verify_malformed_grid_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "grid.json"
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", "--grid", str(path))
    assert code == 2
    assert "error" in err


GOOD_GRAPH = {"ring": "Z12", "ideal": [], "vertices": ["2", "3", "4", "9"],
              "edges": [["2", "3"], ["2", "9"]], "kind": "cozero", "i": 1}


@pytest.mark.parametrize("text", [
    "{",
    {"i": "two"},
    {"edges": [["2", "3", "4"]]},
    '{"ring": "Z12", "ideal": [], "vertices": ["2", "3"], "kind": "cozero", "i": 1}',
    {"edges": ["24"]},
    {"kind": "bogus"},
    {"vertices": ["2", "3", "4", "9", "2"]},
    {"ideal": [2]},
    {"vertices": ["2", 3, "4", "9"]},
    {"ring": 12},
    {"edges": [["2", "2"]]},
    {"i": 0},
    {"i": 2.7},
    {"i": True},
    {"edges": [["2", "3"], ["2", "14"]]},
], ids=["not-json", "level-not-int", "three-ended-edge", "missing-edges", "string-edge",
        "unknown-kind", "duplicate-vertex", "non-string-ideal-label", "non-string-vertex",
        "non-string-ring", "loop-edge", "level-zero", "level-fraction", "level-bool",
        "loop-edge-spelled-otherwise"])
def test_export_malformed_graph_exits_2(tmp_path, capsys, text):
    if isinstance(text, dict):
        text = json.dumps({**GOOD_GRAPH, **text})
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "export", "--in", str(path))
    assert code == 2
    assert "error" in err


def test_export_accepts_the_well_formed_base_graph(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GOOD_GRAPH), encoding="utf-8")
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--format", "dot")
    assert code == 0
    assert '"2" -- "9";' in out


def test_exit_code_on_non_integer_level(capsys):
    code, _, err = run_cli(capsys, "build", "--ring", "Z12", "--i", "two")
    assert code == 2
    assert "error" in err


def test_python_dash_m_runs_verify_from_a_checkout():
    path = [str(Path(ringgraphs.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-m", "ringgraphs", "verify", "--grid", "default", "--format", "json"],
        env=env, capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    pins = json.loads((Path(__file__).parents[1] / "perfbench" / "pins.json").read_text())
    assert hashlib.sha256(done.stdout).hexdigest() == pins["verify-grid"]["report_sha256"]
