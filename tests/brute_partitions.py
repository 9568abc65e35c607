"""Non-increasing integer tuples with a given total, by brute force.

The tests compare library enumerations against this, so it shares no code
with `degseq`: it lists every non-increasing tuple with
`itertools.combinations_with_replacement` and groups them by their total,
once per (length, max_part, min_part).
"""

import itertools
from functools import lru_cache


@lru_cache(maxsize=4)
def _by_total(length: int, max_part: int, min_part: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    groups: dict[int, list[tuple[int, ...]]] = {}
    pool = range(max_part, min_part - 1, -1)
    for combo in itertools.combinations_with_replacement(pool, length):
        groups.setdefault(sum(combo), []).append(combo)
    return {total: tuple(combos) for total, combos in groups.items()}


def partitions(
    total: int, length: int, max_part: int, min_part: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Non-increasing tuples of `length` entries in [min_part, max_part]
    summing to `total`, in descending lexicographic order."""
    return _by_total(length, max_part, min_part).get(total, ())
