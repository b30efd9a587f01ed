"""Metamorphic checks: relabelling or rescaling a map keeps its generator counts.

Permuting the domain variables reorders the fields of every packed monomial,
and scaling an image changes every coefficient of the component systems;
neither changes how many minimal generators each degree has.
"""

from __future__ import annotations

import random
from fractions import Fraction

from implicitize import EngineOptions, Polynomial, RingMap, components_of_kernel

from support import random_monomial_map


def permuted(phi: RingMap, order: list[int]) -> RingMap:
    """The same map with domain variable k renamed from variable order[k]."""
    return RingMap(
        [phi.images[i] for i in order],
        m=phi.m,
        domain_names=[phi.domain_names[i] for i in order],
        codomain_names=phi.codomain_names,
    )


def scaled(phi: RingMap, factors: list[Fraction]) -> RingMap:
    return RingMap(
        [image * Polynomial.constant(phi.m, c) for image, c in zip(phi.images, factors)],
        m=phi.m,
        domain_names=phi.domain_names,
        codomain_names=phi.codomain_names,
    )


def _variants(phi: RingMap, rng: random.Random):
    order = list(range(phi.n))
    yield permuted(phi, order[::-1])
    rng.shuffle(order)
    yield permuted(phi, order)
    for _ in range(2):
        factors = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(phi.n)
        ]
        yield scaled(phi, factors)


def test_counts_survive_permutation_and_scaling(gr25, cusp):
    rng = random.Random(60221)
    maps = [(gr25, 3), (cusp, 4)] + [
        (random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3)), 3)
        for _ in range(6)
    ]
    for phi, degree in maps:
        expected = components_of_kernel(phi, degree).counts_by_degree()
        for variant in _variants(phi, rng):
            options = EngineOptions(seed=rng.randrange(100), prime=rng.choice([101, 2**61 - 1]))
            assert components_of_kernel(variant, degree, options).counts_by_degree() == expected
