"""Stream domain monomials level by level and bucket them by multidegree.

A level holds every exponent vector alpha >= 0 with a . alpha = i for the
grading's positive weight a, partitioned into components keyed by
beta = A alpha. Enumeration is a depth-first knapsack over the variables.
Each step adds one precomputed integer for the monomial, its packed key
(`MonomialPacking`), and one for beta, packed the same way into fixed-width
fields that hold beta_k + 2^(w-1) (so they never borrow) and wide enough for
any beta of the level, beta_0 most significant; a component's beta is
unpacked once, as two's complement after flipping each field's top bit. Both
keys stay exact integer arithmetic throughout: a component sorts its keys
numerically, which is graded-lex order, and the level sorts its packed betas
numerically, which is lexicographic beta order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .grading import GradingMatrix, NoPositiveWeightError
from .polyring import MonomialPacking


@dataclass
class DegreeLevel:
    """All monomials of one weighted degree, grouped into components.

    A component is a tuple of packed keys, graded-lex descending.
    `beta_keys` holds each component's packed beta, in component order: the
    packed beta of x^alpha is `beta_bias` + sum_i alpha_i `beta_units[i]`.
    """

    weighted_degree: int
    components: dict[tuple[int, ...], tuple[int, ...]]
    packing: MonomialPacking
    beta_keys: list[int]
    beta_units: list[int]
    beta_bias: int

    @property
    def monomial_count(self) -> int:
        return sum(map(len, self.components.values()))


def enumerate_level(
    grading: GradingMatrix, degree: int, packing: MonomialPacking | None = None
) -> DegreeLevel:
    """Bucket every monomial of the given weighted degree by its multidegree.

    Components are keyed by beta in lexicographic order; members are sorted
    graded-lex, leading monomial first. Keys use `packing`, by default one
    sized for this degree; a run shares one sized for its degree bound.
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
    # a total degree <= degree bounds every |beta_k| by degree * max |A|
    span = degree * max(abs(a) for row in grading.A for a in row)
    for size, code in ((1, "b"), (2, "h"), (4, "i"), (8, "q")):
        if span < 1 << 8 * size - 1:
            break
    else:
        raise ValueError(f"multidegrees up to {span} do not fit 64-bit fields")
    r = grading.rank
    fmt = f">{r}{code}"
    flip = sum(1 << 8 * size * (k + 1) - 1 for k in range(r))
    bunits = [
        sum(c << 8 * size * (r - 1 - k) for k, c in enumerate(col)) for col in grading.columns()
    ]

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

    descend(0, degree, 0, flip)  # every field starts at its bias 2^(w-1)
    del descend  # it refers to itself: free the level's buckets now, not at the next gc

    # each bucket is freed as its sorted tuple is built, so a level is held once
    keys = sorted(buckets)
    components = {}
    for bkey in keys:
        members = buckets.pop(bkey)
        members.sort(reverse=True)
        components[struct.unpack(fmt, (bkey ^ flip).to_bytes(size * r, "big"))] = tuple(members)
    return DegreeLevel(degree, components, packing, keys, bunits, flip)
