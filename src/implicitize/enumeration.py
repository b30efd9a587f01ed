"""Stream domain monomials level by level, sorted by multidegree.

A level holds every exponent vector alpha >= 0 with a . alpha = i for the
grading's positive weight a, partitioned into components by beta = A alpha.
Levels are built by recurrence, each from the levels below it: the
monomials of weighted degree d whose largest variable is v are x_v times
those of degree d - w_v whose largest variable is at most v, a prefix of
that level when it is kept grouped by largest variable. So each monomial is
made once, with one addition of integers: keys are packed in a
`MonomialPacking` built with the grading's A, so that the key's top fields
hold the packed beta, and adding keys multiplies monomials. A run streams
its levels 1..D through one `grouped` dict, and a group list is dropped as
soon as no later level reads it. One sort of the level's keys then orders
them by beta, lexicographically, and within one beta graded-lex. Each
component is one run of the sorted keys, and `key >> beta_shift`, its
packed beta, is its key: the packed betas of one packing add like the betas
themselves, and their numeric order is lexicographic beta order. A level
stores the sorted keys, the component keys and the run bounds, and nothing
per component. Only `MonomialPacking.beta` turns a key back into a tuple.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from itertools import compress, count, islice
from operator import sub
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
        """A read-only view: packed beta -> members, as `runs` gives them.

        perfbench's tracer reads `len(level.components)`, so this view is part
        of the benchmark's interface, not a test-only helper.
        """
        return _Components(self)

    def sizes(self) -> Iterator[int]:
        """The number of members of each component, in canonical order."""
        return map(sub, islice(self.starts, 1, None), self.starts)

    def multiple(self) -> array:
        """The indices of the components with more than one member, ascending."""
        return array("q", compress(count(), map((1).__lt__, self.sizes())))

    def members(self, k: int) -> tuple[int, ...]:
        """The members of component k, graded-lex descending."""
        return self.keys[self.starts[k] : self.starts[k + 1]][::-1]

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
        return level.members(k)


def enumerate_level(
    grading: GradingMatrix,
    degree: int,
    packing: MonomialPacking | None = None,
    *,
    grouped: dict | None = None,
) -> DegreeLevel:
    """Every monomial of the given weighted degree, sorted into components by multidegree.

    Components come in lexicographic beta order; members are sorted
    graded-lex, leading monomial first. Keys use `packing`, by default one
    sized for this degree; a run shares one sized for its degree bound, and
    so one key layout. The packing must carry the grading's A, or its keys
    could not tell the components apart.

    `grouped` streams a run's levels: it holds the lower levels grouped by
    largest variable, as earlier calls with the same packing left them, and
    this call adds its own unless it is at the packing's bound. Without it,
    the levels below are built here and dropped.
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
    keep = grouped is not None and degree < packing.bound
    if grouped is None:
        grouped = {}
    if not grouped:
        grouped[0] = ([0], [1] * n)  # the monomial 1 lies below every variable
    elif max(grouped) >= degree:
        raise ValueError("a stream's levels must ascend")
    reach = max(weights)

    # the monomials of degree d whose largest variable is v are x_v times those
    # of degree d - w_v whose largest variable is at most v: a prefix of that
    # level's groups, so every monomial is made once, with one addition
    for d in range(max(grouped) + 1, degree + 1):
        found: list[int] = []
        ends = []
        for v, unit in enumerate(units):
            lower = grouped.get(d - weights[v])
            if lower is not None:
                below, bounds = lower
                found += [key + unit for key in below[: bounds[v]]]
            ends.append(len(found))
        grouped.pop(d - reach, None)  # no later level reads it
        if d < degree or keep:
            grouped[d] = (found, ends)
    if keep:
        keys = tuple(sorted(found))
    else:  # no later level reads any group: sort this one in place
        grouped.clear()
        found.sort()
        keys = tuple(found)
    del found
    shift = packing.beta_shift
    ckeys: list[int] = []
    starts = array("q")
    add_ckey, add_start, last = ckeys.append, starts.append, None
    for k, key in enumerate(keys):
        ckey = key >> shift
        if ckey != last:
            add_ckey(ckey)
            add_start(k)
            last = ckey
    add_start(len(keys))
    return DegreeLevel(degree, keys, tuple(ckeys), starts, packing)
