"""Metamorphic checks: relabelling or rescaling a map keeps its generator counts.

Permuting the domain variables reorders the fields of every packed monomial,
and scaling an image changes every coefficient of the component systems.
Permuting the codomain variables reorders the grading's constraints and the
rows of every component system, and scaling them (t_j -> c_j t_j) rescales
those rows. None of these changes how many minimal generators each degree has.
"""

from __future__ import annotations

import random
from fractions import Fraction

from implicitize import Monomial, Polynomial, RingMap, components_of_kernel

from support import counts_by_degree, random_monomial_map


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


def substituted(phi: RingMap, order: list[int], factors: list[Fraction]) -> RingMap:
    """The map composed with t_j -> factors[j] * t_order[j] on the codomain."""
    images = []
    for image in phi.images:
        terms = []
        for mono, coeff in image.terms.items():
            for j, e in mono.exps:
                coeff *= factors[j] ** e
            terms.append((Monomial((order[j], e) for j, e in mono.exps), coeff))
        images.append(Polynomial(phi.m, terms))
    names = [""] * phi.m
    for j, name in zip(order, phi.codomain_names):
        names[j] = name
    return RingMap(images, m=phi.m, domain_names=phi.domain_names, codomain_names=names)


def _nonzero_rationals(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(count)]


def _variants(phi: RingMap, rng: random.Random):
    order = list(range(phi.n))
    yield permuted(phi, order[::-1])
    rng.shuffle(order)
    yield permuted(phi, order)
    for _ in range(2):
        yield scaled(phi, _nonzero_rationals(rng, phi.n))
    codomain = list(range(phi.m))
    rng.shuffle(codomain)
    yield substituted(phi, codomain, [Fraction(1)] * phi.m)
    yield substituted(phi, list(range(phi.m)), _nonzero_rationals(rng, phi.m))


def test_counts_survive_permutation_and_scaling(gr25, cusp):
    # domain and codomain variables permuted, images and codomain variables scaled
    rng = random.Random(60221)
    maps = [(gr25, 3), (cusp, 4)] + [
        (random_monomial_map(rng, rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 3)), 3)
        for _ in range(6)
    ]
    for phi, degree in maps:
        expected = counts_by_degree(components_of_kernel(phi, degree))
        for variant in _variants(phi, rng):
            prime = rng.choice([101, 2**61 - 1])
            assert counts_by_degree(components_of_kernel(variant, degree, prime=prime)) == expected
