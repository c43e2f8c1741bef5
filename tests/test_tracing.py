"""The benchmark's tracer still finds every package name it patches.

``perfbench/tracing.py`` rebinds functions, ``LevelContext`` methods and
``Ring.unit_bits`` by name, and reads ``graphs._CONTEXTS`` and
``ctx._graphs``. A rename in the package fails here, not in the next
traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from ringgraphs import graphs, ideals, rings  # noqa: E402


def test_tracer_and_op_counter_install_and_restore():
    build_level, vertices = graphs.build_level, graphs.LevelContext.__dict__["vertices"]
    tracer, counter = tracing.Tracer(), tracing.OpCounter()
    tracer.install()
    try:
        counter.install()
        try:
            ring = rings.build_ring("Z12")
            J = ideals.zero_ideal(ring)
            graphs.vertex_set(ring, J)
            graphs.build_level(ring, J, 2)
            graphs.adjacent(ring, J, 2, 3, 1)
            assert ideals.is_maximal(ideals.span(ring, [2]))
            ideals.jacobson_radical(ring)
            # nothing above reads the units of Z12, so the binding is called here
            ring.unit_bits()
            ring.pow(5, 3)
            ops = counter.metrics()
        finally:
            counter.restore()
        layers = tracer.metrics(wall_s=1.0)
    finally:
        tracer.restore()
    for name in ("graphs.build_level", "graphs.vertices", "graphs.trajectory",
                 "graphs.adjacent", "ideals.span", "ideals.is_maximal",
                 "ideals.jacobson_radical", "rings.unit_bits"):
        assert tracer.calls[name] >= 1, name
    assert layers["graphs.build_level.calls"] == 1
    assert ops["rings.pow.calls"] >= 1 and ops["rings.mul.calls"] >= 2
    assert graphs.build_level is build_level
    assert graphs.LevelContext.__dict__["vertices"] is vertices
