"""Behaviour of the nine immutable record classes.

Each record is built by position and by keyword, compares equal by type and
field values, hashes consistently, prints a fixed repr, refuses assignment
and deletion, survives copy and pickle, and (where it has them) keeps its
validation checks and its to_dict/from_dict round trip.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from degseq.errors import EdgeExistsError, SelfLoopError
from degseq.graphs import SimpleGraph
from degseq.maximal import MaximalSetReport
from degseq.orders import BasicTransfer, DegreeSequence, LorenzCurve, TransferChain
from degseq.realizability import (
    NonGraphicalWitness,
    ReductionTrace,
    TraceStep,
    Verdict,
)

S211 = DegreeSequence([2, 1, 1])
S11 = DegreeSequence([1, 1])
STEP = TraceStep(S11, "hh", DegreeSequence([0]))
TRACE = ReductionTrace((STEP,), "all-zero")
CURVE_POINTS = ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(2, 3), F(3, 4)), (F(1), F(1)))

# (class, positional args, keyword args, another value of the class, repr)
CASES = [
    (
        SimpleGraph,
        (3, frozenset({(0, 1), (1, 2)})),
        {"n": 3, "edges": frozenset({(0, 1), (1, 2)})},
        SimpleGraph(3, frozenset({(0, 1)})),
        "SimpleGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))",
    ),
    (
        LorenzCurve,
        (CURVE_POINTS,),
        {"points": CURVE_POINTS},
        LorenzCurve(((F(0), F(0)), (F(1), F(1)))),
        "LorenzCurve(points=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 3), Fraction(1, 2)), "
        "(Fraction(2, 3), Fraction(3, 4)), (Fraction(1, 1), Fraction(1, 1))))",
    ),
    (
        BasicTransfer,
        (1, 2),
        {"to_rank": 1, "from_rank": 2},
        BasicTransfer(1, 3),
        "BasicTransfer(to_rank=1, from_rank=2)",
    ),
    (
        TransferChain,
        (DegreeSequence([1, 1, 1, 1]), (BasicTransfer(1, 4),)),
        {"start": DegreeSequence([1, 1, 1, 1]), "steps": (BasicTransfer(1, 4),)},
        TransferChain(DegreeSequence([1, 1, 1, 1]), ()),
        "TransferChain(start=DegreeSequence(1,1,1,1), "
        "steps=(BasicTransfer(to_rank=1, from_rank=4),))",
    ),
    (
        TraceStep,
        (S11, "hh", DegreeSequence([0])),
        {"before": S11, "rule": "hh", "after": DegreeSequence([0])},
        TraceStep(S11, "reduce(k=1,n=1)", DegreeSequence([0, 0])),
        "TraceStep(before=DegreeSequence(1,1), rule='hh', after=DegreeSequence(0))",
    ),
    (
        ReductionTrace,
        ((STEP,), "all-zero"),
        {"steps": (STEP,), "outcome": "all-zero"},
        ReductionTrace((), "all-zero"),
        "ReductionTrace(steps=(TraceStep(before=DegreeSequence(1,1), rule='hh', "
        "after=DegreeSequence(0)),), outcome='all-zero')",
    ),
    (
        NonGraphicalWitness,
        (1, S211),
        {"d": 1, "witness": S211},
        NonGraphicalWitness(0, S211),
        "NonGraphicalWitness(d=1, witness=DegreeSequence(2,1,1))",
    ),
    (
        Verdict,
        (S11, True, None, "hh", TRACE),
        {"sequence": S11, "graphical": True, "c_graphical": None, "method": "hh",
         "certificate": TRACE},
        Verdict(S11, True, None, "hh"),
        "Verdict(sequence=DegreeSequence(1,1), graphical=True, c_graphical=None, method='hh', "
        "certificate=ReductionTrace(steps=(TraceStep(before=DegreeSequence(1,1), rule='hh', "
        "after=DegreeSequence(0)),), outcome='all-zero'))",
    ),
    (
        MaximalSetReport,
        (3, 0, frozenset({S211}), frozenset({S211}), True),
        {"n": 3, "d": 0, "all_sequences": frozenset({S211}), "maximal": frozenset({S211}),
         "oracle_agreement": True},
        MaximalSetReport(3, 0, frozenset({S211}), frozenset({S211}), False),
        "MaximalSetReport(n=3, d=0, all_sequences=frozenset({DegreeSequence(2,1,1)}), "
        "maximal=frozenset({DegreeSequence(2,1,1)}), oracle_agreement=True)",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_construction_equality_hash_and_repr(cls, args, kwargs, other, text):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert type(by_position) is cls
    assert by_position == by_keyword and not by_position != by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert len({by_position, by_keyword, other}) == 2
    assert by_position != other
    assert repr(by_position) == text
    assert str(by_position) == text


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_equality_needs_the_same_type(cls, args, kwargs, other, text):
    record = cls(*args)
    assert record != args and args != record
    assert record.__eq__(args) is NotImplemented

    class Sub(cls):
        __slots__ = ()

    assert Sub(*args) != record


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, kwargs, other, text):
    record = cls(*args)
    field = next(iter(kwargs))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_arity_is_checked(cls, args, kwargs, other, text):
    with pytest.raises(TypeError):
        cls(*args, None, None)
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, args, kwargs, other, text):
    record = cls(*args)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == text


def test_positional_pattern_matching():
    match BasicTransfer(1, 2):
        case BasicTransfer(i, j):
            assert (i, j) == (1, 2)
        case _:
            pytest.fail("BasicTransfer did not match by position")


def test_verdict_certificate_defaults_to_none():
    assert Verdict(S11, True, None, "eg").certificate is None
    assert Verdict(S11, True, None, "eg") == Verdict(S11, True, None, "eg", None)


def test_graph_adjacency_is_cached_on_the_value():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.neighbors(1) == (0, 2)
    assert g._adjacency is g._adjacency
    assert g == SimpleGraph(3, frozenset({(0, 1), (1, 2)}))


# -- validation ---------------------------------------------------------------


def test_verdict_validation():
    with pytest.raises(ValueError, match="c-graphical implies graphical"):
        Verdict(S11, False, True, "eg")
    Verdict(S11, True, True, "eg")
    Verdict(S11, False, False, "eg")


@pytest.mark.parametrize(
    "to_rank, from_rank, message",
    [(0, 2, "ranks are 1-based"), (1, 0, "ranks are 1-based"), (2, 2, "strictly higher"),
     (3, 2, "strictly higher")],
)
def test_basic_transfer_validation(to_rank, from_rank, message):
    with pytest.raises(ValueError, match=message):
        BasicTransfer(to_rank, from_rank)


@pytest.mark.parametrize(
    "points, message",
    [
        (((F(1, 2), F(0)), (F(1), F(1))), "start at the origin"),
        (((F(0), F(0)), (F(1), F(1, 2))), "end at \\(1,1\\)"),
        (((F(0), F(0)), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (F(1), F(1))), "non-decreasing"),
    ],
)
def test_lorenz_curve_validation(points, message):
    with pytest.raises(ValueError, match=message):
        LorenzCurve(points)


def test_lorenz_curve_accepts_integer_endpoints():
    assert LorenzCurve(((0, 0), (1, 1))) == LorenzCurve(((F(0), F(0)), (F(1), F(1))))


def test_simple_graph_validation():
    with pytest.raises(ValueError, match="vertex count must be positive"):
        SimpleGraph(0, frozenset())
    with pytest.raises(SelfLoopError, match="self-loop at vertex 1"):
        SimpleGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="outside vertex range or unnormalized"):
        SimpleGraph(3, frozenset({(1, 3)}))
    with pytest.raises(ValueError, match="outside vertex range or unnormalized"):
        SimpleGraph(3, frozenset({(2, 1)}))
    # a list of edges may repeat a pair, which would make a multigraph
    with pytest.raises(EdgeExistsError, match=r"duplicate edge \(0, 1\)"):
        SimpleGraph(3, [(0, 1), (0, 1)])
    with pytest.raises(EdgeExistsError, match=r"duplicate edge \(1, 2\)"):
        SimpleGraph(3, [(1, 2), (0, 1), (1, 2), (0, 2)])


def test_simple_graph_keeps_no_edges_argument():
    g = SimpleGraph(3, [(1, 2), (0, 1)])
    assert "edges" not in vars(g)  # rebuilt from up when read
    assert g.edges == frozenset({(0, 1), (1, 2)}) and type(g.edges) is frozenset
    assert repr(g) == "SimpleGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))"
    assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize(
    "pairs, error, message",
    [
        ([(0, 1), (1, 0)], EdgeExistsError, r"^duplicate edge \(0, 1\)$"),
        ([(1, 1)], SelfLoopError, r"^self-loop at vertex 1$"),
        ([(0, 3)], ValueError, r"^edge \(0,3\) outside vertex range or unnormalized$"),
    ],
    ids=["repeat", "self-loop", "range"],
)
def test_from_edges_single_fault(pairs, error, message):
    """from_edges normalizes the pairs and leaves every check to the constructor."""
    with pytest.raises(error, match=message):
        SimpleGraph.from_edges(3, pairs)


def test_simple_graph_post_init_runs_on_every_construction(monkeypatch):
    seen = []
    post_init = SimpleGraph.__dict__["__post_init__"]

    def counted(graph):
        seen.append(len(graph.edges))
        post_init(graph)

    monkeypatch.setattr(SimpleGraph, "__post_init__", counted)
    SimpleGraph(3, frozenset({(0, 1)}))
    SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert seen == [1, 2]


# -- to_dict / from_dict ------------------------------------------------------


@pytest.mark.parametrize(
    "record",
    [
        STEP,
        TRACE,
        NonGraphicalWitness(1, S211),
        SimpleGraph(3, frozenset({(0, 1), (1, 2)})),
        Verdict(S11, True, None, "hh", TRACE),
        Verdict(S211, False, False, "certificate", NonGraphicalWitness(1, S211)),
        Verdict(S211, True, True, "eg", SimpleGraph(3, frozenset({(0, 1), (0, 2)}))),
        Verdict(S11, True, None, "eg"),
        MaximalSetReport(3, 0, frozenset({S211}), frozenset({S211}), True),
    ],
    ids=lambda r: type(r).__name__,
)
def test_dict_round_trip(record):
    assert type(record).from_dict(record.to_dict()) == record


def test_graph_dict_is_the_realization_certificate():
    g = SimpleGraph(4, frozenset({(2, 3), (0, 3), (0, 1)}))
    assert g.to_dict() == {"kind": "realization", "n": 4, "edges": [[0, 1], [0, 3], [2, 3]]}
    data = Verdict(DegreeSequence([2, 2, 1, 1]), True, True, "eg", g).to_dict()
    assert Verdict.from_dict(data).certificate == g
