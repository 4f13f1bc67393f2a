"""Multiset bookkeeping for symmetric tensor indices.

A multi-index is a sorted tuple of integer basis labels.  Symmetric tensors
are stored sparsely on sorted representatives, so every coordinate-space
operation (contraction, symmetrization, Hermite evaluation) reduces to
counting: how many orderings a multiset has, how many ways a multiset splits
into two groups, which sub-multisets of a given size exist.  Those counts
live here.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator, Sequence

MultiIndex = tuple[int, ...]


def as_multi_index(indices: Sequence[int]) -> MultiIndex:
    """Sorted tuple representative of a multiset of basis labels."""
    return tuple(sorted(int(i) for i in indices))


def multiplicities(m: MultiIndex) -> list[tuple[int, int]]:
    """(label, count) pairs of the sorted multi-index m, labels ascending."""
    return [(v, m.count(v)) for v in dict.fromkeys(m)]


def permutation_count(m: MultiIndex) -> int:
    """Number of distinct orderings of m: |m|! / prod_i (count_i!)."""
    c = factorial(len(m))
    for v in set(m):
        c //= factorial(m.count(v))
    return c


def merge(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(sorted(a + b))


def subtract(m: MultiIndex, sub: MultiIndex) -> MultiIndex:
    """m minus sub, counting multiplicity; ValueError unless sub is contained."""
    out = list(m)
    for v in sub:
        try:
            out.remove(v)
        except ValueError:
            raise ValueError("subtract: second argument is not a sub-multiset") from None
    return tuple(out)


def sub_multisets(m: MultiIndex, r: int) -> list[tuple[MultiIndex, MultiIndex]]:
    """All distinct (sub, rest) splits of m with |sub| = r.

    Each distinct sub-multiset appears exactly once, regardless of how many
    position subsets of m realize it.
    """
    if r < 0 or r > len(m):
        return []
    items = multiplicities(m)
    out: list[tuple[MultiIndex, MultiIndex]] = []

    def rec(idx: int, need: int, chosen: list[int]) -> None:
        if need == 0:
            sub = tuple(chosen)
            out.append((sub, subtract(m, sub)))
            return
        if idx >= len(items):
            return
        val, avail = items[idx]
        remaining = sum(k for _, k in items[idx + 1:])
        lo = max(0, need - remaining)
        for take in range(lo, min(avail, need) + 1):
            rec(idx + 1, need - take, chosen + [val] * take)

    rec(0, r, [])
    return out


def split_count(whole: MultiIndex, part: MultiIndex) -> int:
    """Number of position subsets of `whole` whose values form `part`.

    With c_v copies of v in whole and u_v requested in part this is
    prod_v C(c_v, u_v); zero when part is not contained in whole.
    """
    n = 1
    for v in set(part):
        n *= comb(whole.count(v), part.count(v))
        if n == 0:
            return 0
    return n


def distinct_permutations(m: MultiIndex) -> Iterator[MultiIndex]:
    """Yield every distinct ordering of the multiset m exactly once."""
    if not m:
        yield ()
        return
    counter = dict(multiplicities(m))
    values = sorted(counter)
    buf: list[int] = []

    def rec() -> Iterator[MultiIndex]:
        if len(buf) == len(m):
            yield tuple(buf)
            return
        for v in values:
            if counter[v] > 0:
                counter[v] -= 1
                buf.append(v)
                yield from rec()
                buf.pop()
                counter[v] += 1

    yield from rec()
