import itertools
import operator
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from brute_partitions import partitions
from conftest import degree_sequences, same_length_pairs

from degseq.errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NotMajorizedError,
    OrderViolatedError,
    SumMismatchError,
    UnderflowError,
    ZeroSumError,
)
from degseq.orders import (
    BasicTransfer,
    Comparison,
    DegreeSequence,
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
from degseq.realizability import erdos_gallai

D = DegreeSequence


def all_nonincreasing(length, max_value):
    for combo in itertools.combinations_with_replacement(range(max_value, -1, -1), length):
        yield D(combo)


def equal_sum_majorized_pairs(max_len, max_value):
    """Every (x, y) with x <= y, equal sums, over the exhaustive family."""
    for n in range(1, max_len + 1):
        by_sum = {}
        for seq in all_nonincreasing(n, max_value):
            by_sum.setdefault(sum(seq), []).append(seq)
        for group in by_sum.values():
            for x in group:
                for y in group:
                    if majorized(x, y):
                        yield x, y


def minimum_transfer_count(x, y):
    """Independent count of unit transfers needed to climb from x to y.

    A transfer from rank j to rank i raises the running totals at
    positions i..j-1 by one each, so a decomposition is an interval cover
    of the deficit profile D(k) = prefix_y(k) - prefix_x(k). The minimum
    number of intervals is the total ascent sum(max(0, D(k) - D(k-1))).
    """
    x, y = DegreeSequence(x), DegreeSequence(y)
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    if sum(x) != sum(y):
        raise SumMismatchError(f"totals differ: {sum(x)} vs {sum(y)}")
    px, py = itertools.accumulate(x), itertools.accumulate(y)
    deficits = [b - a for a, b in zip(px, py)]
    prev = 0
    count = 0
    for dk in deficits:
        if dk > prev:
            count += dk - prev
        prev = dk
    return count


def hinge_sums(x, top):
    """sum over i of max(x_i - c, 0), for c = 0..top."""
    return [sum(max(v - c, 0) for v in x) for c in range(top + 1)]


class TestDegreeSequenceType:
    def test_sorts_on_construction(self):
        assert tuple(D((1, 3, 2))) == (3, 2, 1)

    def test_canonical_input_is_returned_as_is(self):
        x = D((1, 3, 2))
        assert D(x) is x
        assert D(tuple(x)) is not x and D(tuple(x)) == x

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            D(())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            D((1, -1))

    @pytest.mark.parametrize("values", [(2.7, 1), (1.5, 1.5), (2.0, 2), ("3", 1), (1, "1")])
    def test_rejects_non_integer_entries(self, values):
        # exact arithmetic: no silent truncation of 2.7 to 2, no parsing of "3"
        with pytest.raises(TypeError):
            D(values)

    def test_non_integer_entries_never_reach_a_verdict(self):
        with pytest.raises(TypeError):
            erdos_gallai([1.5, 1.5])

    def test_ints_and_bools_as_before(self):
        x = D((True, 2, False, 1))
        assert x == (2, 1, 1, 0)
        assert all(type(v) is int for v in x)
        assert format_sequence(x) == "2,1,1,0"

    def test_parse_records_sortedness(self):
        seq, was_sorted = parse_sequence("5,4,4,3,3,3")
        assert tuple(seq) == (5, 4, 4, 3, 3, 3) and was_sorted
        seq, was_sorted = parse_sequence("1, 3, 2")
        assert tuple(seq) == (3, 2, 1) and not was_sorted

    def test_parse_rejects_junk(self):
        # int() alone reads "1_0" as 10, "+3" as 3 and "٣" (Arabic-Indic) as 3
        for bad in ("", "1,,2", "1,a", "1;2", "1_0,1_0", "+3", "٣", "3,--1", "3,-", "1 0"):
            with pytest.raises(ValueError):
                parse_sequence(bad)

    def test_parse_keeps_the_sign_error_and_surrounding_whitespace(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            parse_sequence("3,-1")
        seq, was_sorted = parse_sequence(" 3 , 2,1 \n")
        assert tuple(seq) == (3, 2, 1) and was_sorted

    @pytest.mark.parametrize(
        "text, expected",
        [
            (" 3 , 2,1 ", ((3, 2, 1), True)),
            ('"3,2"', ((3, 2), True)),
            ("01,2", ((2, 1), False)),
            ("1\t,2", ((2, 1), False)),
            ("1,,2", "cannot parse sequence literal '1,,2'"),
            ("", "cannot parse sequence literal ''"),
            (",", "cannot parse sequence literal ','"),
            ("1_0,2", "cannot parse sequence literal '1_0,2'"),
            ("+3", "cannot parse sequence literal '+3'"),
            ("٣,1", "cannot parse sequence literal '٣,1'"),
            ("1 2", "cannot parse sequence literal '1 2'"),
            ("-1,2", "sequence entries must be non-negative"),
        ],
    )
    def test_parse_results_and_error_texts(self, text, expected):
        """The parts are checked as one joined string, so an empty part and
        a space inside a part must still fail with the same text."""
        try:
            seq, was_sorted = parse_sequence(text)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert type(seq) is D and (tuple(seq), was_sorted) == expected

    def test_format_round_trip(self):
        assert format_sequence(D((4, 3, 1))) == "4,3,1"


class TestMajorized:
    def test_known_dominated_pair(self):
        assert majorized(D((4, 3, 3, 3, 1)), D((5, 3, 3, 2, 1)))

    def test_unequal_sums_allowed(self):
        assert majorized(D((4, 4, 2, 1, 1)), D((4, 4, 4, 4, 4)))

    def test_reflexive(self):
        x = D((3, 2, 2))
        assert majorized(x, x)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            majorized(D((1, 1)), D((1, 1, 1)))

    @given(same_length_pairs())
    def test_antisymmetry(self, pair):
        x, y = pair
        if majorized(x, y) and majorized(y, x):
            assert x == y

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                *(
                    st.lists(st.integers(0, 5), min_size=n, max_size=n).map(D)
                    for _ in range(3)
                )
            )
        )
    )
    def test_transitivity(self, triple):
        x, y, z = triple
        if majorized(x, y) and majorized(y, z):
            assert majorized(x, z)
        if (
            sum(x) and sum(y) and sum(z)
            and lorenz_majorized(x, y) and lorenz_majorized(y, z)
        ):
            assert lorenz_majorized(x, z)


class TestLorenzMajorized:
    def test_constant_below_spread(self):
        assert lorenz_majorized(D((4, 4, 4, 4, 4)), D((4, 4, 2, 1, 1)))

    def test_flat_head_below_star(self):
        assert lorenz_majorized(D((2, 1, 1, 1, 1)), D((4, 1, 1, 1, 1)))

    def test_constant_vs_itself(self):
        x = D((3, 3, 3))
        assert lorenz_majorized(x, x)

    def test_zero_sum_rejected(self):
        with pytest.raises(ZeroSumError):
            lorenz_majorized(D((0, 0)), D((1, 1)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            lorenz_majorized(D((2, 1)), D((1, 1, 1)))

    @given(same_length_pairs(max_len=6, max_value=6))
    def test_antisymmetry_up_to_curve_equality(self, pair):
        x, y = pair
        if sum(x) == 0 or sum(y) == 0:
            return
        if lorenz_majorized(x, y) and lorenz_majorized(y, x):
            assert lorenz_curve(x).points == lorenz_curve(y).points

    def test_equal_sum_slice_agrees_with_generalized(self):
        for x, y in equal_sum_majorized_pairs(5, 5):
            if sum(x) > 0:
                assert lorenz_majorized(x, y)
        # and conversely on a sample
        for n in (3, 4, 5):
            group = [s for s in all_nonincreasing(n, 5) if sum(s) == 6]
            for x in group:
                for y in group:
                    assert lorenz_majorized(x, y) == majorized(x, y)


class TestCompare:
    def test_incomparable_pair(self):
        assert compare(D((4, 3, 3, 3, 1)), D((4, 4, 2, 2, 2))) is Comparison.INCOMPARABLE

    def test_equal(self):
        x = D((2, 1))
        assert compare(x, x) is Comparison.EQUAL

    def test_incomparable_longer_pair(self):
        a = D((6, 5, 3, 3, 2, 2, 1))
        b = D((6, 6, 2, 2, 2, 2, 2))
        assert compare(a, b) is Comparison.INCOMPARABLE

    def test_less_greater(self):
        x, y = D((4, 3, 3, 3, 1)), D((5, 3, 3, 2, 1))
        assert compare(x, y) is Comparison.LESS
        assert compare(y, x) is Comparison.GREATER

    def test_lorenz_curve_equal_sequences(self):
        assert compare(D((2, 2)), D((4, 4)), order="lorenz") is Comparison.EQUAL

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            compare(D((1,)), D((1,)), order="weird")


class TestLorenzCurve:
    def test_star_like_sequence(self):
        # independent prefix-sum oracle, then the frozen literal values
        seq = D((4, 1, 1, 1, 1))
        total = sum(seq)
        acc = 0
        expected = [Fraction(0)]
        for v in seq:
            acc += v
            expected.append(Fraction(acc, total))
        curve = lorenz_curve(seq)
        assert [y for _, y in curve.points] == expected
        assert expected == [
            Fraction(0),
            Fraction(1, 2),
            Fraction(5, 8),
            Fraction(3, 4),
            Fraction(7, 8),
            Fraction(1),
        ]

    def test_constant_is_diagonal(self):
        curve = lorenz_curve(D((5, 5, 5, 5)))
        for fx, fy in curve.points:
            assert fx == fy

    def test_endpoint(self):
        assert lorenz_curve(D((2, 1, 0))).points[-1] == (Fraction(1), Fraction(1))

    def test_zero_sum(self):
        with pytest.raises(ZeroSumError):
            lorenz_curve(D((0, 0, 0)))

    @given(degree_sequences())
    def test_concave_increments(self, seq):
        if sum(seq) == 0:
            return
        ys = [y for _, y in lorenz_curve(seq).points]
        increments = [b - a for a, b in zip(ys, ys[1:])]
        assert all(d2 <= d1 for d1, d2 in zip(increments, increments[1:]))

    def test_csv_strict_fractions(self):
        text = lorenz_curve(D((2, 1, 1))).to_csv()
        assert text.splitlines()[0] == "x,y"
        assert text.splitlines()[1] == "0/1,0/1"
        assert text.splitlines()[-1] == "1/1,1/1"


class TestNonnormalizedPoints:
    def test_small_example(self):
        assert nonnormalized_lorenz_points(D((2, 1, 1))) == ((0, 0), (1, 2), (2, 3), (3, 4))

    def test_all_zero(self):
        assert nonnormalized_lorenz_points(D((0, 0))) == ((0, 0), (1, 0), (2, 0))

    @given(degree_sequences())
    def test_final_point(self, seq):
        pts = nonnormalized_lorenz_points(seq)
        assert pts[-1] == (len(seq), sum(seq))


class TestBasicTransfer:
    def test_simple_move(self):
        out = apply_basic_transfer(D((2, 2, 2)), BasicTransfer(to_rank=1, from_rank=3))
        assert tuple(out) == (3, 2, 1)

    def test_sum_conserved(self):
        x = D((3, 2, 2, 1))
        out = apply_basic_transfer(x, BasicTransfer(to_rank=1, from_rank=4))
        assert sum(out) == sum(x)

    def test_order_violation(self):
        # raising rank 2 above rank 1 must fail, and so must lowering rank 2 below rank 3
        with pytest.raises(OrderViolatedError):
            apply_basic_transfer(D((2, 2, 1)), BasicTransfer(to_rank=2, from_rank=3))
        with pytest.raises(OrderViolatedError, match="lowering rank 2 would fall below rank 3"):
            apply_basic_transfer(D((3, 2, 2)), BasicTransfer(to_rank=1, from_rank=2))

    def test_underflow(self):
        with pytest.raises(UnderflowError):
            apply_basic_transfer(D((2, 1, 0)), BasicTransfer(to_rank=1, from_rank=3))

    def test_rank_past_the_end_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            apply_basic_transfer(D((2, 1)), BasicTransfer(to_rank=1, from_rank=3))

    def test_result_is_canonical_without_resorting(self):
        out = apply_basic_transfer(D((3, 2, 2, 1)), BasicTransfer(to_rank=2, from_rank=4))
        assert type(out) is DegreeSequence
        assert tuple(out) == (3, 3, 2, 0)

    def test_plain_tuple_is_sorted_first(self):
        out = apply_basic_transfer((2, 2, 3), BasicTransfer(to_rank=1, from_rank=3))
        assert type(out) is DegreeSequence
        assert tuple(out) == (4, 2, 1)

    def test_bad_ranks_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BasicTransfer(to_rank=3, from_rank=2)
        with pytest.raises(ValueError):
            BasicTransfer(to_rank=0, from_rank=2)


class TestDecompose:
    def test_identity_pair_empty_chain(self):
        x = D((3, 2, 1))
        chain = decompose_into_basic_transfers(x, x)
        assert chain.steps == ()
        assert chain.replay()[-1] == x

    def test_single_step(self):
        chain = decompose_into_basic_transfers(D((2, 2, 2)), D((3, 2, 1)))
        assert [(t.from_rank, t.to_rank) for t in chain.steps] == [(3, 1)]

    def test_two_block_target(self):
        x, y = D((3, 3, 2, 2, 2)), D((4, 4, 2, 1, 1))
        chain = decompose_into_basic_transfers(x, y)
        assert chain.replay()[-1] == y
        assert len(chain.steps) == minimum_transfer_count(x, y)

    def test_wrong_direction(self):
        with pytest.raises(NotMajorizedError):
            decompose_into_basic_transfers(D((3, 2, 1)), D((2, 2, 2)))

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatchError):
            decompose_into_basic_transfers(D((1, 1)), D((2, 1)))

    def test_unsorted_equal_inputs_give_the_empty_chain(self):
        # the multisets agree, so nothing moves; the chain once started at
        # (2,1,1) with a step ending at (3,1,0)
        chain = decompose_into_basic_transfers((1, 1, 2), (2, 1, 1))
        assert chain.start == (2, 1, 1)
        assert chain.steps == ()
        assert chain.replay()[-1] == (2, 1, 1)

    def test_unsorted_inputs_replay(self):
        # once a chain whose replay raised UnderflowError
        chain = decompose_into_basic_transfers([1, 2, 3], [3, 2, 1])
        assert chain.steps == ()
        assert chain.replay() == [D((3, 2, 1))]

    def test_unsorted_target_is_sorted_before_the_order_test(self):
        # (2,2,2) <= (3,2,1): once refused as not majorized
        chain = decompose_into_basic_transfers([2, 2, 2], [1, 2, 3])
        assert [(t.from_rank, t.to_rank) for t in chain.steps] == [(3, 1)]
        assert chain.replay()[-1] == (3, 2, 1)

    def test_minimum_count_takes_plain_tuples(self):
        # the oracle once raised AttributeError on a plain tuple
        assert minimum_transfer_count((2, 2, 2), (3, 2, 1)) == 1
        assert minimum_transfer_count((2, 2, 2), (1, 2, 3)) == 1

    def test_exhaustive_replay_small(self):
        for x, y in equal_sum_majorized_pairs(5, 5):
            chain = decompose_into_basic_transfers(x, y)
            seqs = chain.replay()
            assert seqs[-1] == y
            for s in seqs:
                assert majorized(x, s) and majorized(s, y)
            assert len(chain.steps) == minimum_transfer_count(x, y)


class TestMinTailSum:
    def test_direct_evaluation(self):
        assert min_tail_sum(D((4, 3, 3, 3, 1)), 2) == 5

    def test_k_equals_n(self):
        assert min_tail_sum(D((3, 2, 1)), 3) == 0

    def test_pairwise_inequality_instance(self):
        x, y = D((2, 2, 2)), D((3, 2, 1))
        assert min_tail_sum(x, 1) >= min_tail_sum(y, 1)
        assert min_tail_sum(x, 1) == 2

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            min_tail_sum(D((1, 1)), 3)

    def test_tail_inequality_sampled_family(self):
        for x, y in equal_sum_majorized_pairs(5, 5):
            for k in range(1, len(x)):
                assert min_tail_sum(x, k) >= min_tail_sum(y, k)


class TestConvexSum:
    """Convex sums, computed here, as an independent oracle for majorized.

    For equal totals, x <= y iff sum phi(x_i) <= sum phi(y_i) for every
    convex phi (Karamata; Hardy, Littlewood & Polya). On integer entries
    the hinges max(t - c, 0) at integer c suffice, as every convex phi
    agrees on the integers with a non-negative combination of them plus
    an affine part, which the equal totals cancel.
    """

    def test_hinge(self):
        # the hinge at 2 shows that (3,2,1) is not below (2,2,2)
        assert hinge_sums(D((3, 2, 1)), 3)[2] == 1 > hinge_sums(D((2, 2, 2)), 3)[2]
        assert not majorized(D((3, 2, 1)), D((2, 2, 2)))

    def test_square_witnesses_order(self):
        x, y = D((2, 2, 2)), D((3, 2, 1))
        assert majorized(x, y)
        assert sum(v * v for v in x) == 12 < 14 == sum(v * v for v in y)

    def test_convexity_inequality_over_family(self):
        # every pair of equal-sum sequences with n <= 7 and entries <= n-1:
        # majorized agrees with the whole hinge family, both ways
        pairs = 0
        for n in range(1, 8):
            for total in range(n * (n - 1) + 1):
                group = [
                    (x, hinge_sums(x, n - 1))
                    for x in map(D, partitions(total, n, max_part=n - 1))
                ]
                for x, hx in group:
                    for y, hy in group:
                        pairs += 1
                        assert majorized(x, y) == all(map(operator.le, hx, hy)), (x, y)
        assert pairs > 10**4


@settings(max_examples=200)
@given(same_length_pairs(max_len=6, max_value=6))
def test_decompose_round_trip_random(pair):
    x, y = pair
    if sum(x) != sum(y) or not majorized(x, y):
        return
    chain = decompose_into_basic_transfers(x, y)
    assert chain.replay()[-1] == y
