"""Degree-sequence realizability and majorization toolkit.

The public names are loaded lazily (PEP 562): `degseq.X` and `from degseq
import X` import X's submodule on first use, so a program pays only for the
modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "constructions": "build_clique_fill build_hub_fill clique_fill_sequence hub_fill_sequence "
    "incomplete_star max_added_edges",
    "errors": "DegseqError",
    "graphs": "SimpleGraph degree_sequence is_connected to_dot to_edge_list_text",
    "maximal": "MaximalSetReport enumerate_connected_sequences is_c_graphical_poset "
    "maximal_elements",
    "orders": "BasicTransfer Comparison DegreeSequence LorenzCurve TransferChain "
    "apply_basic_transfer compare decompose_into_basic_transfers format_sequence lorenz_curve "
    "lorenz_majorized majorized min_tail_sum nonnormalized_lorenz_points parse_sequence",
    "realizability": "NonGraphicalWitness ReductionTrace Verdict apply_inverse_transfer "
    "erdos_gallai erdos_gallai_violation generalized_reduce havel_hakimi havel_hakimi_trace "
    "hh_reduce is_c_graphical non_graphical_certificate realize realize_connected "
    "realize_via_domination reduce_to_constant",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # also binds the submodule in this namespace
    if module == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[module], name)  # later lookups skip this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
