"""Integer sequences, majorization orders, Lorenz curves, unit transfers.

Two partial orders live here. The prefix-sum (generalized) order compares
raw running totals and does not require equal sums. The Lorenz order
compares normalized running totals, i.e. the Lorenz curves of the two
sequences; on equal-sum pairs the two orders coincide. All comparisons are
exact: ratios are decided by integer cross-multiplication and curves are
stored as Fractions, never floats.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable
from itertools import accumulate

from .errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NotMajorizedError,
    OrderViolatedError,
    SumMismatchError,
    UnderflowError,
    ZeroSumError,
)
from .record import Record


class DegreeSequence(tuple):
    """Non-increasing tuple of non-negative integers.

    Construction sorts any iterable of integers (a float or a string entry
    is a TypeError) in non-increasing order, so every DegreeSequence is
    canonical. Zero entries are legal and stand for isolated vertices;
    operations that need strictly positive entries say so explicitly.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]) -> "DegreeSequence":
        if type(values) is cls:
            return values
        vals = sorted(map(operator.index, values), reverse=True)
        if not vals:
            raise ValueError("a degree sequence must have at least one entry")
        if vals[-1] < 0:
            raise ValueError("degree sequence entries must be non-negative")
        return super().__new__(cls, vals)

    @classmethod
    def _from_sorted(cls, vals: list[int]) -> "DegreeSequence":
        """Wrap entries already non-increasing and non-negative, unchecked."""
        return tuple.__new__(cls, vals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DegreeSequence({','.join(map(str, self))})"


def parse_sequence(text: str) -> tuple[DegreeSequence, bool]:
    """Parse a comma-separated integer literal like ``"5,4,4,3,3,3"``.

    Returns the (descending-sorted) sequence and a flag telling whether the
    input was already sorted, so callers can warn about reordering.
    """
    parts = [p.strip() for p in text.strip().strip('"').split(",")]
    # ASCII digits only: int() alone would also read "1_0", "+3" and "٣"
    if not (all(map(str.isascii, parts)) and all(map(str.isdigit, parts))):
        if all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
            raise ValueError("sequence entries must be non-negative")
        raise ValueError(f"cannot parse sequence literal {text!r}")
    raw = [int(p) for p in parts]
    seq = DegreeSequence(raw)
    return seq, list(seq) == raw


def format_sequence(seq: Iterable[int]) -> str:
    return ",".join(map(str, seq))


# -- order relations ------------------------------------------------------


def majorized(x: DegreeSequence, y: DegreeSequence) -> bool:
    """True iff x is below y in the prefix-sum order (x <= y).

    Every running total of x must be at most the corresponding running
    total of y. Totals need not agree.
    """
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    ax = ay = 0
    for vx, vy in zip(x, y):
        ax += vx
        ay += vy
        if ax > ay:
            return False
    return True


def lorenz_majorized(x: DegreeSequence, y: DegreeSequence) -> bool:
    """True iff the Lorenz curve of x lies below (or on) that of y.

    Curves are compared at the shared abscissas k/N by exact
    cross-multiplication, so unequal totals are fine as long as both are
    positive. Endpoints agree automatically.
    """
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    sx, sy = sum(x), sum(y)
    if sx <= 0 or sy <= 0:
        raise ZeroSumError("Lorenz comparison needs positive totals")
    ax = ay = 0
    for vx, vy in zip(x[:-1], y[:-1]):
        ax += vx
        ay += vy
        if ax * sy > ay * sx:
            return False
    return True


class Comparison(enum.Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def compare(x: DegreeSequence, y: DegreeSequence, order: str = "generalized") -> Comparison:
    """Four-way verdict for x against y under the chosen order.

    In the Lorenz order, distinct sequences can share a normalized curve
    (any two proportional sequences do); such pairs compare Equal because
    the order's elements are the curves themselves. Under the generalized
    order Equal occurs exactly when the sequences coincide.
    """
    if order == "generalized":
        le, ge = majorized(x, y), majorized(y, x)
    elif order == "lorenz":
        le, ge = lorenz_majorized(x, y), lorenz_majorized(y, x)
    else:
        raise ValueError(f"unknown order {order!r}")
    if le and ge:
        return Comparison.EQUAL
    if le:
        return Comparison.LESS
    if ge:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


# -- Lorenz curves ---------------------------------------------------------


class LorenzCurve(Record):
    """Polygonal curve from (0,0) to (1,1) through (k/N, prefix_k/total)."""

    __slots__ = __match_args__ = ("points",)
    points: tuple  # pairs (x, y) of fractions.Fraction

    def __post_init__(self) -> None:
        if self.points[0] != (0, 0):
            raise ValueError("Lorenz curve must start at the origin")
        if self.points[-1] != (1, 1):
            raise ValueError("Lorenz curve must end at (1,1)")
        ys = [p[1] for p in self.points]
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("Lorenz ordinates must be non-decreasing")

    def to_csv(self) -> str:
        """CSV rows with fractions rendered strictly as p/q."""
        lines = ["x,y"]
        for fx, fy in self.points:
            lines.append(
                f"{fx.numerator}/{fx.denominator},{fy.numerator}/{fy.denominator}"
            )
        return "\n".join(lines) + "\n"


def lorenz_curve(x: DegreeSequence) -> LorenzCurve:
    """Exact Lorenz curve of x; requires a positive total."""
    from fractions import Fraction  # here, so that only Lorenz curves load it

    total = sum(x)
    if total <= 0:
        raise ZeroSumError("Lorenz curve needs a positive total")
    n = len(x)
    sums = enumerate(accumulate(x, initial=0))
    return LorenzCurve(tuple((Fraction(k, n), Fraction(acc, total)) for k, acc in sums))


def nonnormalized_lorenz_points(x: DegreeSequence) -> tuple[tuple[int, int], ...]:
    """Integer points (j, sum of the j largest entries) for j = 0..N."""
    return tuple(enumerate(accumulate(x, initial=0)))


# -- unit transfers --------------------------------------------------------


class BasicTransfer(Record):
    """Move one unit from rank ``from_rank`` up to rank ``to_rank``.

    Ranks are 1-based positions in the sorted sequence, with
    to_rank < from_rank. The amount is always a single unit; a transfer of
    h units is expressed as h consecutive unit transfers.
    """

    __slots__ = __match_args__ = ("to_rank", "from_rank")
    to_rank: int
    from_rank: int

    def __post_init__(self) -> None:
        if self.to_rank < 1 or self.from_rank < 1:
            raise ValueError("ranks are 1-based")
        if not self.to_rank < self.from_rank:
            raise ValueError("transfer must move a unit to a strictly higher rank")


def apply_basic_transfer(x: DegreeSequence, t: BasicTransfer) -> DegreeSequence:
    """Apply one unit transfer, preserving sortedness and the total.

    The checks below prove that the result is still non-increasing, so it
    is built as a DegreeSequence without sorting again.
    """
    x = DegreeSequence(x)
    n = len(x)
    if t.from_rank > n:
        raise IndexOutOfRangeError(f"from_rank {t.from_rank} exceeds length {n}")
    i, j = t.to_rank - 1, t.from_rank - 1
    if x[j] == 0:
        raise UnderflowError(f"rank {t.from_rank} is zero; nothing to move")
    if i > 0 and x[i - 1] < x[i] + 1:
        raise OrderViolatedError(
            f"raising rank {t.to_rank} would exceed rank {t.to_rank - 1}"
        )
    if j < n - 1 and x[j] - 1 < x[j + 1]:
        raise OrderViolatedError(
            f"lowering rank {t.from_rank} would fall below rank {t.from_rank + 1}"
        )
    vals = list(x)
    vals[i] += 1
    vals[j] -= 1
    return tuple.__new__(DegreeSequence, vals)


class TransferChain(Record):
    """A start sequence plus the unit transfers leading to a target."""

    __slots__ = __match_args__ = ("start", "steps")
    start: DegreeSequence
    steps: tuple[BasicTransfer, ...]

    def replay(self) -> list[DegreeSequence]:
        """All intermediate sequences including start and end."""
        out = [self.start]
        for t in self.steps:
            out.append(apply_basic_transfer(out[-1], t))
        return out


def decompose_into_basic_transfers(x: DegreeSequence, y: DegreeSequence) -> TransferChain:
    """Write y as x plus a chain of unit transfers.

    Requires equal totals and x <= y in the prefix-sum order; both inputs
    are sorted first. A unit moved from rank j to rank i < j raises the
    running totals at ranks i..j-1 by one, so the chain is a cover of the
    deficit profile D(k) = prefix_y(k) - prefix_x(k) by intervals. One
    sweep over D opens one interval per unit of ascent and closes the
    latest open one per unit of descent; these are the level-set intervals
    of D, a laminar family. The chain lists them in the order they open,
    which is by start ascending, then by end descending: the order in
    which repeatedly moving one unit from the first rank j > i with
    D(j) = 0 to the first rank i with D(i) > 0 meets them. Every
    intermediate stays sorted and sits between x and y in the order, and
    the chain has the minimum possible number of unit transfers (the total
    ascent of D). O(n + T) for T transfers.
    """
    x, y = DegreeSequence(x), DegreeSequence(y)
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    if sum(x) != sum(y):
        raise SumMismatchError(f"totals differ: {sum(x)} vs {sum(y)}")
    if not majorized(x, y):
        raise NotMajorizedError(f"{format_sequence(x)} is not below {format_sequence(y)}")
    to_ranks: list[int] = []
    from_ranks: list[int] = []
    open_steps: list[int] = []  # chain positions of the open intervals
    prev = deficit = 0
    for rank, (vx, vy) in enumerate(zip(x, y), start=1):
        deficit += vy - vx
        for _ in range(deficit - prev):
            open_steps.append(len(to_ranks))
            to_ranks.append(rank)
            from_ranks.append(0)
        for _ in range(prev - deficit):
            from_ranks[open_steps.pop()] = rank
        prev = deficit
    return TransferChain(start=x, steps=tuple(map(BasicTransfer, to_ranks, from_ranks)))


# -- auxiliary exact functionals -------------------------------------------


def min_tail_sum(x: DegreeSequence, k: int) -> int:
    """sum over j = k+1..N of min(x_j, k); zero when k = N."""
    n = len(x)
    if not 1 <= k <= n:
        raise IndexOutOfRangeError(f"k={k} outside 1..{n}")
    return sum(min(v, k) for v in x[k:])
