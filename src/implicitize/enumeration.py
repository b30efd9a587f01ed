"""Stream domain monomials level by level and bucket them by multidegree.

A level holds every exponent vector alpha >= 0 with a . alpha = i for the
grading's positive weight a, partitioned into components keyed by
beta = A alpha. Enumeration is a depth-first knapsack over the variables.
Each step adds one precomputed integer for the monomial, its packed key
(`MonomialPacking`), and one for beta, packed into fields of one width per
run, beta_0 most significant. A field holds beta_k + 2^(w-1), and w is sized
from the packing's degree bound, so no field of any level of the run ever
borrows or overflows. The packed beta is the component's key: packed betas of
one run add like the betas themselves, and their numeric order is
lexicographic beta order. A component's members sort numerically too, which
is graded-lex order. Only `DegreeLevel.beta` turns a key back into a tuple.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .grading import GradingMatrix, NoPositiveWeightError
from .polyring import MonomialPacking


class DegreeLevel(NamedTuple):
    """All monomials of one weighted degree, grouped into components.

    A component maps its packed beta to its members, a tuple of packed keys,
    graded-lex descending; components come in ascending key order, which is
    canonical beta order. The packed beta of x^alpha is `beta_bias` +
    sum_i alpha_i `beta_units[i]`, in fields `beta_width` bits wide.
    """

    weighted_degree: int
    components: dict[int, tuple[int, ...]]
    packing: MonomialPacking
    beta_units: list[int]
    beta_bias: int
    beta_width: int

    @property
    def monomial_count(self) -> int:
        return sum(map(len, self.components.values()))

    def beta(self, key: int) -> tuple[int, ...]:
        """The multidegree tuple of a packed beta."""
        w = self.beta_width
        half, fields = 1 << w - 1, self.beta_bias.bit_length() // w
        return tuple((key >> w * k & (1 << w) - 1) - half for k in reversed(range(fields)))


def enumerate_level(
    grading: GradingMatrix, degree: int, packing: MonomialPacking | None = None
) -> DegreeLevel:
    """Bucket every monomial of the given weighted degree by its multidegree.

    Components are keyed by packed beta in lexicographic beta order; members
    are sorted graded-lex, leading monomial first. Keys use `packing`, by
    default one sized for this degree; a run shares one sized for its degree
    bound, and so one beta layout.
    """
    if grading.positive_weight is None:
        raise NoPositiveWeightError("enumeration requires a positive weight")
    if degree < 1:
        raise ValueError("weighted degree must be >= 1")
    n = grading.n
    weights = grading.positive_weight
    packing = packing or MonomialPacking(n, degree)
    if packing.n != n or packing.bound < degree:
        raise ValueError(f"packing of {packing.n} variables to degree {packing.bound}")
    units = packing.units
    # a total degree <= the bound bounds every |beta_k| by bound * max |A|
    span = packing.bound * max(abs(a) for row in grading.A for a in row)
    width, r = span.bit_length() + 1, grading.rank
    bias = sum(1 << width * (k + 1) - 1 for k in range(r))  # 2^(w-1) in every field
    bunits = [sum(c << width * (r - 1 - k) for k, c in enumerate(col)) for col in grading.columns()]

    # suffix_gcd[v] divides every weight reachable using variables >= v
    suffix_gcd = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_gcd[v] = math.gcd(weights[v], suffix_gcd[v + 1])

    buckets: dict[int, list[int]] = {}

    def descend(start: int, remaining: int, key: int, bkey: int):
        if remaining == 0:
            buckets.setdefault(bkey, []).append(key)
            return
        if start >= n or remaining % suffix_gcd[start]:
            return
        for v in range(start, n):
            w = weights[v]
            mono, beta = key, bkey
            for rest in range(remaining - w, -1, -w):
                mono += units[v]
                beta += bunits[v]
                descend(v + 1, rest, mono, beta)

    descend(0, degree, 0, bias)
    del descend  # it refers to itself: free the level's buckets now, not at the next gc

    # each bucket is freed as its sorted tuple is built, so a level is held once
    components = {}
    for bkey in sorted(buckets):
        members = buckets.pop(bkey)
        members.sort(reverse=True)
        components[bkey] = tuple(members)
    return DegreeLevel(degree, components, packing, bunits, bias, width)
