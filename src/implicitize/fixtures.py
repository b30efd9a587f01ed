"""Built-in parameterizations used by the CLI, the docs, and the test suite."""

from __future__ import annotations

from itertools import combinations, product

from .polyring import Monomial, Polynomial, RingMap, Symmetry


def gen_cusp() -> RingMap:
    """(x, y, z) -> ((a+b)^2, a^2 - b^2, (a-b)^2), a quadric-cone chart."""
    a = Polynomial.variable(2, 0)
    b = Polynomial.variable(2, 1)
    return RingMap(
        [(a + b) ** 2, a * a - b * b, (a - b) ** 2],
        m=2,
        domain_names=["x", "y", "z"],
        codomain_names=["a", "b"],
    )


def gen_grassmannian(n: int) -> RingMap:
    """The Pluecker embedding of Gr(2, n): p_ij -> 2x2 minor on columns i, j.

    Domain variables are the pairs 1 <= i < j <= n in colexicographic order
    (sorted by j, then i); the codomain is the 2 x n matrix of entries x_rc.
    """
    if n < 3:
        raise ValueError("need at least 3 matrix columns")
    pairs = sorted(combinations(range(1, n + 1), 2), key=lambda ij: (ij[1], ij[0]))
    m = 2 * n

    def entry(r: int, c: int) -> int:
        # x_{r,c} with r in {1,2}, c in 1..n, laid out row-major
        return (r - 1) * n + (c - 1)

    sep = "" if n < 10 else "_"
    images = []
    for i, j in pairs:
        minor = Polynomial(
            m,
            [
                (Monomial([(entry(1, i), 1), (entry(2, j), 1)]), 1),
                (Monomial([(entry(1, j), 1), (entry(2, i), 1)]), -1),
            ],
        )
        images.append(minor)
    domain_names = [f"p{i}{sep}{j}" for i, j in pairs]
    codomain_names = [f"x{r}{sep}{c}" for r in (1, 2) for c in range(1, n + 1)]
    return RingMap(images, m=m, domain_names=domain_names, codomain_names=codomain_names)


def grassmannian_symmetries(n: int) -> list[Symmetry]:
    """Generators of S_n acting on the matrix columns of `gen_grassmannian(n)`.

    The transposition (1 2) and the n-cycle c -> c+1 (n -> 1) relabel the
    entries x_rc; the minor on columns i, j becomes the one on their images,
    with sign -1 when they swap order.
    """
    pairs = sorted(combinations(range(1, n + 1), 2), key=lambda ij: (ij[1], ij[0]))
    index = {ij: k for k, ij in enumerate(pairs)}
    out = []
    for move in ({1: 2, 2: 1}, {c: c % n + 1 for c in range(1, n + 1)}):
        col = [move.get(c, c) for c in range(n + 1)]
        domain = [
            (index[min(col[i], col[j]), max(col[i], col[j])], 1 if col[i] < col[j] else -1)
            for i, j in pairs
        ]
        codomain = [((r - 1) * n + col[c] - 1, 1) for r in (1, 2) for c in range(1, n + 1)]
        out.append(Symmetry(tuple(domain), tuple(codomain)))
    return out


# The 4-sunlet: a 4-cycle with a leaf at each vertex, leaf i attached by edge
# e_i, cycle edges e5..e8, and the two edges meeting at leaf 1's cycle vertex
# (e5, e8) directed into it as reticulation edges. Dropping one reticulation
# edge leaves a tree; each tree edge is keyed by the leaf set it splits off,
# which determines the group subscript of its parameter.
_SUNLET4_TREES = (
    # drop e8: leaf edges, then e5 splits {1}, e6 splits {1,2}, e7 splits {4}
    ((1, (1,)), (2, (2,)), (3, (3,)), (4, (4,)), (5, (1,)), (6, (1, 2)), (7, (4,))),
    # drop e5: leaf edges, then e8 splits {1}, e7 splits {1,4}, e6 splits {2}
    ((1, (1,)), (2, (2,)), (3, (3,)), (4, (4,)), (8, (1,)), (7, (1, 4)), (6, (2,))),
)


def gen_sunlet_k3p() -> RingMap:
    """The 4-leaf sunlet network map for the group Z2 x Z2.

    Group elements are encoded 0..3 with XOR as addition. The domain has one
    coordinate q_{g1 g2 g3 g4} for each tuple with g1+g2+g3+g4 = 0 (64
    variables); the codomain has one parameter per (edge, group element)
    pair, edges 1..8 (32 variables). Each image is the sum of the two tree
    terms obtained by dropping one of the two reticulation edges, a pair of
    squarefree degree-7 monomials.
    """
    group = range(4)
    m = 32

    def param(edge: int, g: int) -> int:
        return (edge - 1) * 4 + g

    tuples = [
        (g1, g2, g3, g4)
        for g1, g2, g3, g4 in product(group, repeat=4)
        if g1 ^ g2 ^ g3 ^ g4 == 0
    ]
    images = []
    for leaf_states in tuples:
        terms = []
        for tree in _SUNLET4_TREES:
            pairs = []
            for edge, side in tree:
                g = 0
                for leaf in side:
                    g ^= leaf_states[leaf - 1]
                pairs.append((param(edge, g), 1))
            terms.append((Monomial(pairs), 1))
        images.append(Polynomial(m, terms))
    domain_names = [f"q{g1}{g2}{g3}{g4}" for g1, g2, g3, g4 in tuples]
    codomain_names = [f"a{e}_{g}" for e in range(1, 9) for g in group]
    return RingMap(images, m=m, domain_names=domain_names, codomain_names=codomain_names)


def sunlet_k3p_symmetries() -> list[Symmetry]:
    """Generators of an order-12 symmetry group of `gen_sunlet_k3p()`.

    A relabelling of the nonzero elements of Z2 x Z2 is a group automorphism,
    applied to every q and a subscript alike: the transposition 1 <-> 2 and
    the 3-cycle 1 -> 2 -> 3 -> 1. The reflection swaps leaves 2 <-> 4 in the
    q subscripts and edges e2 <-> e4, e5 <-> e8, e6 <-> e7 in the a's.
    """
    tuples = [g for g in product(range(4), repeat=4) if g[0] ^ g[1] ^ g[2] ^ g[3] == 0]
    index = {g: k for k, g in enumerate(tuples)}
    out = []
    for label in ((0, 2, 1, 3), (0, 2, 3, 1)):
        domain = [(index[tuple(label[h] for h in g)], 1) for g in tuples]
        codomain = [(4 * e + label[g], 1) for e in range(8) for g in range(4)]
        out.append(Symmetry(tuple(domain), tuple(codomain)))
    edge = (0, 3, 2, 1, 7, 6, 5, 4)  # e1..e8, zero-based
    domain = [(index[g[0], g[3], g[2], g[1]], 1) for g in tuples]
    codomain = [(4 * edge[e] + g, 1) for e in range(8) for g in range(4)]
    out.append(Symmetry(tuple(domain), tuple(codomain)))
    return out
