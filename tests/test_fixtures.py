from __future__ import annotations

import pytest

from implicitize import (
    HomogeneityBasis,
    components_of_kernel,
    domain_grading,
    gen_grassmannian,
    naive_total_degree_kernel,
)


def test_grassmannian_sizes():
    g4 = gen_grassmannian(4)
    assert g4.n == 6 and g4.m == 8
    g5 = gen_grassmannian(5)
    assert g5.n == 10 and g5.m == 10
    with pytest.raises(ValueError):
        gen_grassmannian(2)
    with pytest.raises(ValueError):
        gen_grassmannian(4, k=3)


def test_grassmannian_minor_structure():
    g4 = gen_grassmannian(4)
    for image in g4.images:
        assert len(image.terms) == 2
        assert sorted(c for c in image.terms.values()) == [-1, 1]
        assert all(m.degree() == 2 for m in image.terms)


def test_grassmannian_three_columns_trivial_kernel():
    g3 = gen_grassmannian(3)
    assert g3.n == 3
    assert naive_total_degree_kernel(g3, 3).generators == []
    assert components_of_kernel(g3, 3).generators == []


def test_sunlet_shape(sunlet):
    assert sunlet.n == 64 and sunlet.m == 32
    assert sunlet.domain_names[0] == "q0000"
    for image in sunlet.images:
        assert len(image.terms) == 2
        for mono in image.terms:
            assert mono.degree() == 7
            assert all(e == 1 for _, e in mono.exps)
    # index arithmetic is 2-torsion: the image of q_{gggg} uses only
    # group element g on the leaf edges and 0 on the cycle sum edges
    names = dict(zip(sunlet.domain_names, sunlet.images))
    image = names["q1111"]
    supports = {sunlet.codomain_names[i] for mono in image.terms for i, _ in mono.exps}
    assert "a6_0" in supports  # g1 + g2 = 0
    assert "a7_0" in supports  # g1 + g4 = 0


def test_domain_grading_trivial_basis():
    grading = domain_grading(HomogeneityBasis(full_vectors=[], constraint_rank=5, n=3, m=2))
    assert grading.A == [] and grading.rank == 0
