"""Level graphs of finite commutative rings relative to an ideal.

Builds the power-extended ideal-based cozero-divisor graph and its
zero-divisor companion, analyzes their shape, and mechanically checks a
catalog of structural claims over parameter grids.
"""

from .analysis import (
    PartitionWitness,
    check_partition_claim,
    complete_multipartite_parts,
    graph_equals,
    is_complete,
    is_empty_graph,
    is_subgraph,
    zpnq_parts,
)
from .claims import (
    CATALOG,
    ClaimInstance,
    ClaimReport,
    check_bipartite_iff,
    default_grid,
    replay_witness,
    run_claim,
    run_suite,
)
from .conilpotency import ConilpotencyRecord, conilpotency_record, ring_conilpotency_index
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
    UnsupportedRingFamily,
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
