"""Certified component skipping via the Jacobian of the map.

When the Jacobian columns indexed by a support set S are independent over
the coefficient field, no kernel element is supported on S, so the whole
component can be dropped without solving it. Independence is tested at a
seeded random point over GF(p): evaluation can only lower rank, so a full
rank answer is a certificate, while a deficient one merely costs the exact
solve we would have done anyway.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .linalg import rank_mod_p
from .polyring import RingMap


@dataclass
class EvaluatedJacobian:
    """d(image_j)/d(t_i) evaluated at `point` over GF(prime); shape m x n."""

    entries: list[list[int]]
    point: list[int]
    prime: int


def build_jacobian(phi: RingMap, prime: int, seed: int) -> EvaluatedJacobian:
    """Evaluate all symbolic partials at a seeded uniform point of GF(p)^m."""
    rng = random.Random(seed)
    point = [rng.randrange(prime) for _ in range(phi.m)]
    entries = [[0] * phi.n for _ in range(phi.m)]
    for j, image in enumerate(phi.images):
        for i in range(phi.m):
            entries[i][j] = image.partial_derivative(i).eval_mod_p(point, prime)
    return EvaluatedJacobian(entries, point, prime)


def can_skip(
    jacobian: EvaluatedJacobian,
    support: Sequence[int],
    cache: dict[tuple[int, ...], bool] | None = None,
) -> bool:
    """True iff the Jacobian columns on `support` have rank |support|.

    `cache`, when given, memoizes decisions by sorted support.
    """
    key = tuple(sorted(support))
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    if not key:
        result = True
    else:
        sub = [[row[j] for j in key] for row in jacobian.entries]
        result = rank_mod_p(sub, jacobian.prime) == len(key)
    if cache is not None:
        cache[key] = result
    return result
