"""Degree-sequence realizability and majorization toolkit."""

from .constructions import (
    build_clique_fill,
    build_hub_fill,
    clique_fill_sequence,
    hub_fill_sequence,
    incomplete_star,
    max_added_edges,
)
from .errors import DegseqError
from .graphs import (
    SimpleGraph,
    degree_sequence,
    is_connected,
    to_dot,
    to_edge_list_text,
)
from .maximal import (
    MaximalSetReport,
    enumerate_connected_sequences,
    is_c_graphical_poset,
    maximal_elements,
)
from .orders import (
    BasicTransfer,
    Comparison,
    DegreeSequence,
    LorenzCurve,
    TransferChain,
    apply_basic_transfer,
    compare,
    decompose_into_basic_transfers,
    format_sequence,
    lorenz_curve,
    lorenz_majorized,
    majorized,
    min_tail_sum,
    nonnormalized_lorenz_points,
    parse_sequence,
)
from .realizability import (
    NonGraphicalWitness,
    ReductionTrace,
    Verdict,
    apply_inverse_transfer,
    erdos_gallai,
    erdos_gallai_violation,
    generalized_reduce,
    havel_hakimi,
    havel_hakimi_trace,
    hh_reduce,
    is_c_graphical,
    non_graphical_certificate,
    realize,
    realize_connected,
    realize_via_domination,
    reduce_to_constant,
)

__version__ = "0.1.0"
