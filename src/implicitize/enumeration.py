"""Stream domain monomials level by level, sorted by multidegree.

A level holds every exponent vector alpha >= 0 with a . alpha = i for the
grading's positive weight a, partitioned into components by beta = A alpha.
Enumeration is a depth-first knapsack over the variables. Each step adds one
precomputed integer for the monomial: its packed key, in a `MonomialPacking`
built with the grading's A, so that the key's top fields hold the packed
beta. One sort of the level's keys then orders them by beta,
lexicographically, and within one beta graded-lex. Each component is one run
of the sorted keys, and `key >> beta_shift`, its packed beta, is its key: the
packed betas of one packing add like the betas themselves, and their numeric
order is lexicographic beta order. A level stores the sorted keys, the
component keys and the run bounds, and nothing per component. Only
`MonomialPacking.beta` turns a key back into a tuple.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from itertools import islice
from typing import NamedTuple

from .grading import GradingMatrix, NoPositiveWeightError
from .polyring import MonomialPacking


class DegreeLevel(NamedTuple):
    """All monomials of one weighted degree, as runs of one sorted tuple of packed keys.

    `keys` ascend. Component k is keys[starts[k]:starts[k + 1]], the monomials
    whose packed beta is `ckeys[k]`; `ckeys` ascend, which is canonical beta
    order.
    """

    weighted_degree: int
    keys: tuple[int, ...]
    ckeys: tuple[int, ...]
    starts: array
    packing: MonomialPacking

    @property
    def monomial_count(self) -> int:
        return len(self.keys)

    @property
    def components(self) -> Mapping[int, tuple[int, ...]]:
        """A read-only view: packed beta -> members, as `runs` gives them."""
        return _Components(self)

    def runs(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(packed beta, members) per component in canonical order, members graded-lex descending."""
        keys = self.keys
        for ckey, lo, hi in zip(self.ckeys, self.starts, islice(self.starts, 1, None)):
            yield ckey, keys[lo:hi][::-1]


class _Components(Mapping):
    """The components of a level by packed beta, found by bisection on its `ckeys`."""

    __slots__ = ("level",)

    def __init__(self, level: DegreeLevel):
        self.level = level

    def __len__(self) -> int:
        return len(self.level.ckeys)

    def __iter__(self) -> Iterator[int]:
        return iter(self.level.ckeys)

    def __getitem__(self, ckey: int) -> tuple[int, ...]:
        level = self.level
        k = bisect_left(level.ckeys, ckey)
        if k == len(level.ckeys) or level.ckeys[k] != ckey:
            raise KeyError(ckey)
        return level.keys[level.starts[k] : level.starts[k + 1]][::-1]


def enumerate_level(
    grading: GradingMatrix, degree: int, packing: MonomialPacking | None = None
) -> DegreeLevel:
    """Every monomial of the given weighted degree, sorted into components by multidegree.

    Components come in lexicographic beta order; members are sorted
    graded-lex, leading monomial first. Keys use `packing`, by default one
    sized for this degree; a run shares one sized for its degree bound, and
    so one key layout. The packing must carry the grading's A, or its keys
    could not tell the components apart.
    """
    if grading.positive_weight is None:
        raise NoPositiveWeightError("enumeration requires a positive weight")
    if degree < 1:
        raise ValueError("weighted degree must be >= 1")
    n = grading.n
    weights = grading.positive_weight
    packing = packing or MonomialPacking(n, degree, grading.A)
    if packing.n != n or packing.bound < degree:
        raise ValueError(f"packing of {packing.n} variables to degree {packing.bound}")
    if packing.A != tuple(map(tuple, grading.A)):
        raise ValueError("the packing's multidegree fields are not the grading's")
    units = packing.units

    # suffix_gcd[v] divides every weight reachable using variables >= v
    suffix_gcd = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_gcd[v] = math.gcd(weights[v], suffix_gcd[v + 1])

    found: list[int] = []

    def descend(start: int, remaining: int, key: int):
        if remaining == 0:
            found.append(key)
            return
        if start >= n or remaining % suffix_gcd[start]:
            return
        for v in range(start, n):
            w, unit, mono = weights[v], units[v], key
            for rest in range(remaining - w, -1, -w):
                mono += unit
                descend(v + 1, rest, mono)

    descend(0, degree, 0)
    del descend  # it refers to itself: free the level's list now, not at the next gc

    found.sort()
    keys = tuple(found)
    del found
    shift = packing.beta_shift
    ckeys: list[int] = []
    starts = array("q")
    for k, key in enumerate(keys):
        ckey = key >> shift
        if not ckeys or ckey != ckeys[-1]:
            ckeys.append(ckey)
            starts.append(k)
    starts.append(len(keys))
    return DegreeLevel(degree, keys, tuple(ckeys), starts, packing)
