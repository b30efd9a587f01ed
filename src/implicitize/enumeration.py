"""Stream domain monomials level by level and bucket them by multidegree.

A level holds every exponent vector alpha >= 0 with a . alpha = i for the
grading's positive weight a, partitioned into monomial bases keyed by
beta = A alpha. Enumeration is a depth-first knapsack over the variables
with beta accumulated incrementally, so membership is exact integer
arithmetic throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grading import GradingMatrix, NoPositiveWeightError
from .polyring import Monomial, grlex_key


@dataclass(frozen=True)
class MonomialBasis:
    """Canonically ordered monomials of one component."""

    monomials: tuple[Monomial, ...]

    def __len__(self):
        return len(self.monomials)


EMPTY_BASIS = MonomialBasis(())


@dataclass
class DegreeLevel:
    """All monomials of one weighted degree, grouped into components."""

    weighted_degree: int
    components: dict[tuple[int, ...], MonomialBasis]

    @property
    def monomial_count(self) -> int:
        return sum(len(b.monomials) for b in self.components.values())


def enumerate_level(grading: GradingMatrix, degree: int) -> DegreeLevel:
    """Bucket every monomial of the given weighted degree by its multidegree.

    Components are keyed by beta in lexicographic order; members are sorted
    graded-lex, leading monomial first.
    """
    if grading.positive_weight is None:
        raise NoPositiveWeightError("enumeration requires a positive weight")
    if degree < 1:
        raise ValueError("weighted degree must be >= 1")
    n = grading.n
    weights = grading.positive_weight
    r = grading.rank
    cols = grading.columns()

    # suffix_gcd[v] divides every weight reachable using variables >= v
    suffix_gcd = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix_gcd[v] = math.gcd(weights[v], suffix_gcd[v + 1])

    buckets: dict[tuple[int, ...], list[Monomial]] = {}
    beta = [0] * r
    pairs: list[tuple[int, int]] = []

    def descend(start: int, remaining: int):
        if remaining == 0:
            key = tuple(beta)
            buckets.setdefault(key, []).append(Monomial._make(tuple(pairs)))
            return
        if start >= n or remaining % suffix_gcd[start]:
            return
        for v in range(start, n):
            w = weights[v]
            top = remaining // w
            if top == 0:
                continue
            col = cols[v]
            pairs.append((v, 0))
            for e in range(1, top + 1):
                for k in range(r):
                    beta[k] += col[k]
                pairs[-1] = (v, e)
                descend(v + 1, remaining - w * e)
            for k in range(r):
                beta[k] -= top * col[k]
            pairs.pop()

    descend(0, degree)
    del descend  # it refers to itself: free the level's buckets now, not at the next gc

    components: dict[tuple[int, ...], MonomialBasis] = {}
    for key in sorted(buckets):
        components[key] = MonomialBasis(tuple(sorted(buckets[key], key=grlex_key)))
    return DegreeLevel(degree, components)


def lookup_basis(level: DegreeLevel, beta: tuple[int, ...]) -> MonomialBasis:
    """The component basis for beta, or the empty basis when absent."""
    return level.components.get(tuple(beta), EMPTY_BASIS)
