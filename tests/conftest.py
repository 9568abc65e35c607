import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hypothesis
import hypothesis.strategies as st
import pytest

from degseq.graphs import SimpleGraph
from degseq.orders import DegreeSequence

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=500)


def degree_sequences(max_len: int = 7, max_value: int = 8) -> st.SearchStrategy:
    return st.lists(
        st.integers(0, max_value), min_size=1, max_size=max_len
    ).map(DegreeSequence)


def same_length_pairs(max_len: int = 7, max_value: int = 8) -> st.SearchStrategy:
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, max_value), min_size=n, max_size=n).map(DegreeSequence),
            st.lists(st.integers(0, max_value), min_size=n, max_size=n).map(DegreeSequence),
        )
    )


@st.composite
def small_graphs(draw, min_n: int = 1, max_n: int = 10) -> SimpleGraph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return SimpleGraph.from_edges(n, picked)


@st.composite
def random_graphs(draw, max_n: int = 80) -> SimpleGraph:
    """G(n, p) with n and p drawn; cheap to draw at every size."""
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.0, 1.0))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    )


@pytest.fixture
def graph_43331() -> SimpleGraph:
    # degrees (4,3,3,3,1): vertex 0 joined to all, triangle on 1,2,3
    return SimpleGraph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)]
    )
