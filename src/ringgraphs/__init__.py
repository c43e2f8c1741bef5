"""Level graphs of finite commutative rings relative to an ideal.

Builds the power-extended ideal-based cozero-divisor graph and its
zero-divisor companion, analyzes their shape, and mechanically checks a
catalog of structural claims over parameter grids.
"""

from .graphs import (
    COZERO,
    EXTENDED,
    ZERO,
    GraphLevel,
    NotAVertex,
    PowerTrajectory,
    adjacent,
    build_level,
    clear_caches,
    minimal_stabilization_index,
    power_trajectory,
    stabilization_bound,
    vertex_set,
)
from .ideals import (
    IdealSet,
    ideal_sum,
    is_maximal,
    is_prime,
    is_semiprime,
    jacobson_radical,
    maximal_ideals,
    principal_plus,
    span,
    span_from_labels,
    zero_ideal,
)
from .rings import (
    CarrierTooLarge,
    ModularRing,
    NonMonicModulus,
    ParseError,
    PolyQuotientRing,
    ProductRing,
    Ring,
    ZeroModulus,
    build_ring,
    descriptor_string,
    parse_ring,
)

__version__ = "0.1.0"

# the layers above the graph core load on first access (PEP 562); each name
# is read through from its submodule every time, so it has one binding
_LAZY = {
    name: module
    for module, names in (
        ("analysis", "PartitionWitness check_partition_claim complete_multipartite_parts"
         " graph_equals is_complete is_empty_graph is_subgraph zpnq_parts"),
        ("claims", "CATALOG ClaimInstance ClaimReport check_bipartite_iff default_grid"
         " replay_witness run_claim run_suite"),
        ("conilpotency", "ConilpotencyRecord conilpotency_record ring_conilpotency_index"),
    )
    for name in (module, *names.split())
}
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
