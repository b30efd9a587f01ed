"""Degree-by-degree computation of minimal kernel generators.

For each weighted degree i up to the bound, the engine builds the level from
the levels below it (`enumerate_level`), groups its components into orbits
under the map's declared symmetries, then settles its components one at a
time, in canonical beta order; `settle` takes each through

    trim mod p against lower-degree generators -> certify (leading terms,
    then rank mod p) -> exact trim -> assemble the component's integer rows
    -> nullspace_primitive -> verify

(or, where no certificate can pass, an exact trim cut at a guessed tail,
which the kernel must prove; see below)
and returns its status, the `LevelStats` count the level loop tallies it in
(`STATUSES`): certified (`skipped_matroid`, `skipped_prescreen`), settled
by its orbit (`certified_by_symmetry`) or `solved`: its exact kernel ran,
also on no column, so `solved` counts the exact kernels.

At every setting of `prime`, None included, a component of one monomial
with no zero-image variable never reaches `settle`: its image is a product
of nonzero images, and no lift lands on it, so it has no generator and is
counted certified in bulk, with no call, timer or member tuple. A level pays
per orbit and per real certificate, not per component.

A symmetry x_i -> +-x_sigma(i) with phi o sigma = tau o phi maps ker phi onto
itself and, when it fixes the positive weight, the ideal of the lower-degree
generators too, so it carries each component onto one with as many new
minimal generators. The moves are closed into a group once per run
(`symmetry_group`); a small group carries each orbit's first member by all
its elements, a large one is walked by its moves, each component reached
carrying on the exponents that reached it (`orbits`): one decode per orbit
either way. Only the first member of an orbit is certified; when it has no
new generators, the others are settled without trim, certificate or member
tuple. When it has some, every member skips the certificate and is solved
exactly, for its own canonical generators, and must find as many.

Until a generator is emitted, monomials are ints of one run-wide
`MonomialPacking` built with the grading's A, so `key >> beta_shift` is the
packed beta of a monomial's component. Image denominators are cleared once
per run, phi_i = psi_i / d_i (`IntegerImages`); the certificate and the
exact solve both read the integer images psi^alpha = d^alpha phi(x^alpha) of
the columns. Column j is d^alpha_j > 0 times column j of phi's coefficient
matrix, so a kernel vector v gives the generator with coefficients
v_j d^alpha_j, made primitive.
New generators are the kernel vectors over the trimmed column set; their
count per component is exactly the number of minimal generators of that
multidegree. Trimming runs whenever lower-degree generators exist: without it
the kernel would also hold their multiples, which are not minimal. Trimming
at level i reads only generators from levels < i, through a push index that
files their shifts under the components they land on, so components within a
level never interact. A solved component is finished where it is solved:
its generators are sorted and appended to the run's, and below the degree
bound they also become lift sources, the reduced row echelon basis of their
coefficient rows (`lift_sources`), which spans what they span with distinct
leading monomials, so the trim's elimination has far fewer collisions.
Components are settled in canonical beta order, so appending keeps the
run's order. Emitted generators are untouched.

The certificate proves the images psi^alpha of c columns independent
(`certify_no_generators`): exactly, when their leading monomials under one of
a few fixed monomial orders are pairwise distinct, which needs no expansion;
otherwise when they have rank c mod p. It first reads the
columns C_p left by a trim mod p: the lift rows L of a component, with pivot
columns P_p over GF(p) and r_p = |P_p|, span U inside the component's kernel
W. Then r_p <= rank_Q(L) = dim U <= dim W, and a full-rank certificate on
C_p gives W meet span(e_C_p) = 0, so dim W <= |P_p| = r_p. Hence U = W: the
component has no new generators, for every prime, and no exact trim or
matrix is needed. Only when that fails does the exact trim run, then the
exact solve, which reuses the certificate's psi^alpha when its columns are
C_p. When they differ, the component goes straight to the exact solve, so
each is certified at most once and a prime that drops the lift rank costs
work, never an answer. An empty C_p means r_p is every column: the lift rows
span the whole component, so U = W with no certificate (`skipped_prescreen`).

A failed certificate still shortens the exact trim. Its elimination takes
the columns smallest first, so the leading run of its pivots is a tail T:
the last t columns of C_p, independent mod p and so over Q, with t capped so
that T is also the last t members of the component. A kernel vector
whose leading column lies in T is supported on T, so it is zero; every lift
row, and every row of its echelon form, is a kernel vector, so no exact
pivot lies in T. The pivots of a column prefix are the prefix of the
pivots, so the exact trim drops the lift entries in T and finds the same
columns and lift rank (`trim_basis`'s `tail`). A prime that finds a shorter
tail costs work, never an answer. Orbit members solved for their own
generators, and runs with `prime=None`, trim in full.

A certificate that cannot pass is not run. When every image phi_i is
homogeneous of degree d_i (`image_degrees`, once per run), the images of a
component of codomain degree D = sum_i alpha_i d_i lie among the
R = comb(m - 1 + D, m - 1) monomials of degree D in the m codomain
variables. When R is below the component's size minus its lift rows, every
C_p has more than R columns, so no certificate passes at any prime: the
component skips the mod-p trim and the certificate, guesses that its last
R members have independent images, and cuts its exact trim at that tail.
A pivot of the full trim in a tail, guessed or proven, would lead an
echelon row of the lift rows, a kernel vector on the cut columns that is
zero outside the tail. So when the kernel vectors restricted to the columns
outside the tail are independent, the cut trim is exact, as a proven tail's
always is; otherwise one more pass, an exact trim with no tail and its
solve, settles the component, with no mod-p work. A component with no lift
rows keeps every column and needs no guess. The guess runs at any `prime`,
`None` included, and for orbit members too: it is exact work. No prime
changes the output, and nothing is random. Each kernel vector is verified
on the images and the packed beta (`_verify_generator`). A component leaves
behind only its generators, their lift sources and its status.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from math import comb, prod
from typing import NamedTuple, Sequence

from .enumeration import DegreeLevel, enumerate_level
from .grading import GradingMatrix, NoPositiveWeightError, grading_for_map
from .linalg import echelon, is_prime, normalize_primitive, nullspace_primitive, rank_mod_p
from .linalg import reduced_echelon
from .polyring import DEFAULT_PRIME, IntegerImages, MonomialPacking, Polynomial
from .polyring import RingMap, Symmetry, grlex_key, unlimited_int_digits


class EngineInvariantError(RuntimeError):
    """An internal consistency check failed; the output cannot be trusted."""


class Generator(NamedTuple):
    """One minimal generator, with the multidegree and weighted degree it has."""

    poly: Polynomial
    beta: tuple[int, ...]
    weighted_degree: int


class LevelStats(NamedTuple):
    weighted_degree: int
    monomials: int
    components: int
    skipped_matroid: int  # certified, with nothing trimmed
    skipped_prescreen: int  # certified after a non-empty trim
    certified_by_symmetry: int  # settled by its orbit's representative
    certified_by_leading_terms: int  # of the two skipped counts, certified by distinct leading monomials
    solved: int  # ran the exact kernel
    generators: int
    seconds: float
    stage_seconds: dict[str, float]  # keyed by STAGES, summed over components


STAGES = ("enumerate", "orbits", "trim", "certify", "assemble", "kernel", "verify")
STATUSES = ("skipped_matroid", "skipped_prescreen", "certified_by_symmetry", "solved")  # one per component


class GeneratorSet(NamedTuple):
    """Canonically ordered minimal generators plus run bookkeeping."""

    generators: list[Generator]
    level_stats: list[LevelStats]
    grading: GradingMatrix


class LiftSource(NamedTuple):
    """One row of the reduced basis of the generators of one (weighted degree, beta).

    `monos` are packed monomials, `coeffs` their primitive integer coefficients.
    """

    weighted_degree: int
    monos: tuple[int, ...]
    coeffs: tuple[int, ...]


def lift_sources(degree: int, columns: list[int], rows: list[list[int]]) -> list[LiftSource]:
    """A component's generators as lift sources: the reduced basis of their span.

    `rows` are the generators' primitive coefficients over the packed
    `columns`, graded-lex descending, and are replaced by their reduced row
    echelon basis (`reduced_echelon`). Shifting by a monomial keeps that
    order, so the lift rows of a component span what the generators' shifts
    span, and trimming keeps its pivot columns; but the rows now have
    distinct leading columns, so far fewer of them collide during the
    elimination. A lone generator is its own basis.
    """
    return [
        LiftSource(degree, tuple(columns[j] for j in row), tuple(row.values()))
        for _, row in reduced_echelon(rows, len(columns))
    ]


def push_index(sources: list[LiftSource], level: DegreeLevel, levels: dict) -> dict:
    """The lift sources of each component of `level`, keyed by its packed beta.

    Each lower-degree source s is walked over the components of level
    deg(level) - deg(s); every shift lands on the component of `level` whose
    packed beta is the shift's key plus s's offset, the packed beta
    `s.monos[0] >> beta_shift` that all of s's monomials share, and is filed
    under it, in source order, as (s's packed monomials, their integer
    coefficients, the shift monomials). Each shift level's runs are listed
    once per call, and their member tuples are shared by every source.
    """
    index: dict[int, list] = {}
    runs: dict[int, list] = {}
    shift = level.packing.beta_shift
    for s in sources:
        degree = level.weighted_degree - s.weighted_degree
        if degree not in runs:
            shifts = levels.get(degree)
            if shifts is not None and shifts.packing is not level.packing:
                raise ValueError("push_index needs levels that share one packing")
            runs[degree] = [] if shifts is None else list(shifts.runs())
        offset = s.monos[0] >> shift
        for gamma_key, gammas in runs[degree]:
            index.setdefault(gamma_key + offset, []).append((s.monos, s.coeffs, gammas))
    return index


def symmetry_moves(grading: GradingMatrix, symmetries: list[Symmetry]) -> list[list[int]]:
    """The variable permutations of the symmetries that fix the positive weight.

    A symmetry x_i -> +-x_sigma(i) sends the component of x^alpha to the one
    of x^sigma(alpha), with beta sum_i alpha_i A[:, sigma(i)]. That is a map
    of betas, beta -> M beta, exactly when the row space of A is sigma-invariant,
    which holds for the grading of any map that the symmetry preserves; it is
    checked here once per run, with `echelon`. Identities are dropped.
    """
    weight = grading.positive_weight
    moves = []
    for sym in symmetries:
        sigma = [target for target, _ in sym.domain]
        if sigma == list(range(grading.n)) or any(weight[t] != weight[i] for i, t in enumerate(sigma)):
            continue
        moved = [[row[t] for t in sigma] for row in grading.A]
        if len(echelon(grading.A + moved, grading.n)) != grading.rank:
            raise EngineInvariantError("the grading's row space is not invariant under a symmetry")
        moves.append(sigma)
    return moves


GROUP_CAP = 64  # the largest symmetry group whose elements `orbits` carries components by


def symmetry_group(moves: list[list[int]]) -> list[tuple[int, ...]] | None:
    """The elements of the group the moves generate, identity excluded; None past GROUP_CAP.

    The moves are closed under composition once per run, stopping as soon as
    more than GROUP_CAP permutations are known.
    """
    if not moves:
        return []
    identity = tuple(range(len(moves[0])))
    group = {identity}
    frontier = [identity]
    while frontier:
        reached = []
        for g in frontier:
            for sigma in moves:
                h = tuple([sigma[i] for i in g])
                if h not in group:
                    group.add(h)
                    reached.append(h)
                    if len(group) > GROUP_CAP:
                        return None
        frontier = reached
    group.discard(identity)
    return sorted(group)


def orbits(
    level: DegreeLevel, multiple: Sequence[int], moves: list[list[int]], group: list | None
) -> dict[int, int]:
    """The packed beta of the first member of each component's orbit.

    Only the components with more than one monomial are keyed, those listed
    in `multiple` (`level.multiple()`, built once per level by the caller):
    transports preserve component size, so a lone component is its own
    orbit. The leading member x^alpha of an orbit's first component is
    decoded once and carried by sigma to x^sigma(alpha), whose packed beta
    is sum_i alpha_i `packing.beta_units[sigma(i)]`: a transport costs a few
    multiply-adds and one dict lookup, and a component first reached is
    found by bisection of `ckeys`. `group` is `symmetry_group(moves)`: when
    known, its elements carry the first member to the whole orbit at once;
    otherwise the moves walk the orbit, each component reached passing on
    the exponents that reached it (any member of a component lands in the
    same component). A transported beta that is not a component of the same
    size, or that lies in another orbit, is an EngineInvariantError: moves
    that permute the variables and preserve the grading generate a finite
    group, whose orbits are disjoint.
    """
    keys, ckeys, starts = level.keys, level.ckeys, level.starts
    walk = group is None
    perms = moves if walk else group
    units = [[level.packing.beta_units[t] for t in sigma] for sigma in perms]
    first: dict[int, int] = {}
    for k in multiple:
        start = ckeys[k]
        if start in first:
            continue
        first[start] = start
        size = starts[k + 1] - starts[k]
        stack = [level.packing.pairs(keys[starts[k + 1] - 1])]  # the leading member's exponents
        while stack:
            pairs = stack.pop()
            for sigma, moved in zip(perms, units):
                key = 0
                for i, e in pairs:
                    key += e * moved[i]
                rep = first.get(key)
                if rep == start:
                    continue
                j = bisect_left(ckeys, key)
                alike = j < len(ckeys) and ckeys[j] == key and starts[j + 1] - starts[j] == size
                if rep is not None or not alike:  # not a component of this size, or in another orbit
                    raise EngineInvariantError("a symmetry carries a component out of its level")
                first[ckeys[j]] = start  # the level's own int, not a copy
                if walk:
                    stack.append([(sigma[i], e) for i, e in pairs])
    return first


def trim_basis(
    basis: tuple[int, ...], lifts: list, prime: int | None = None, tail: int = 0
) -> tuple[list[int], int]:
    """Columns of a component that can still support new minimal generators.

    `lifts` is the component's `push_index` entry. The span of its shifted
    generators is removed, leaving the non-pivot columns. Returns (columns,
    lift rank). Generator coefficients are primitive integers, so the lift
    rows are too. With a `prime`, the pivot columns and the rank are those of
    the lift rows mod p (`rank_mod_p`): the mod-p trim that the certificate
    reads first.

    `tail` counts the last members of `basis` left out of the elimination,
    which gives the pivots of the column prefix before them. When the
    tail's images are independent, those are all the pivots: the lift rows
    are kernel vectors, and an echelon row leading in the tail would be a
    kernel vector supported on independent columns. The caller checks the
    tail on the kernel, whether guessed or proven (`certify_no_generators`).
    """
    if not lifts:
        return list(basis), 0
    position = {mono: idx for idx, mono in enumerate(basis)}
    cut = len(basis) - tail
    try:  # every shift is looked up, the tail's too, before the cut drops it
        rows = [
            {j: c for m, c in zip(monos, coeffs) if (j := position[gamma + m]) < cut}
            for monos, coeffs, gammas in lifts
            for gamma in gammas
        ]
    except KeyError as missing:
        raise EngineInvariantError(f"lift monomial {missing} escapes its component") from None
    taken = set(rank_mod_p(rows, prime)) if prime else {c for c, _ in echelon(rows, cut)}
    return [m for idx, m in enumerate(basis) if idx not in taken], len(taken)


def component_rows(images: list[dict[int, int]]) -> list[dict[int, int]]:
    """The sparse integer rows whose column j is the integer image images[j].

    Rows are indexed by the packed codomain monomials the images touch,
    graded-lex descending; columns with zero image contribute no rows. The
    certificate and the exact solve both pass the columns' psi^alpha.
    """
    row_keys = sorted({g for image in images for g in image}, reverse=True)
    row_index = {g: i for i, g in enumerate(row_keys)}
    rows: list[dict] = [{} for _ in row_keys]
    for c, image in enumerate(images):
        for gamma, coeff in image.items():
            rows[row_index[gamma]][c] = coeff
    return rows


def certify_no_generators(
    columns: list[int], images: IntegerImages, packing: MonomialPacking, prime: int, trailing: int = 0
) -> tuple[bool, list[dict[int, int]] | None, int]:
    """(certified, images, tail): True proves that the packed `columns` have independent images.

    `packing` is the `MonomialPacking(phi.n, bound)` of `images`. Leading terms
    come first, with no expansion: under a monomial order, the leading
    monomial of psi^alpha is sum_i alpha_i LM(psi_i), with a nonzero
    coefficient, so c columns whose leading monomials are pairwise distinct
    under one of `images.leading_keys()`'s orders have independent images
    over Q, whatever the prime (returned images None). A lone column is the
    one-column case. Columns that touch a variable with zero image are not
    tried. Otherwise the c images psi^alpha = d^alpha phi(x^alpha) are
    expanded, and returned for the exact solve, as R x c rows
    (`component_rows`). With d^alpha > 0 they have the rank of the
    component's coefficient matrix, and rank only drops from Q to GF(p), so
    rank c mod p proves a trivial kernel at every prime, dividing a
    denominator or not.

    `tail` is how many of the last `trailing` columns are proven
    independent: all of them on success. The elimination takes the columns
    last first, which leaves the rank unchanged; when it falls short, the
    leading run 0, 1, ..., t - 1 of its pivots shows the last t columns
    independent mod p, and so over Q. R < c rows cannot reach rank c, so
    they are eliminated only for the tail, when `trailing` asks for one.
    """
    c = len(columns)
    alphas = list(map(packing.pairs, columns))
    if not any(column & images.zero_fields for column in columns):
        for lead in images.leading_keys():
            if len({sum([e * lead[i] for i, e in alpha]) for alpha in alphas}) == c:
                return True, None, trailing
    expanded = images.expand(alphas)
    rows = component_rows(expanded[::-1])
    if len(rows) >= c:
        pivots = rank_mod_p(rows, prime, c)
        if len(pivots) == c:
            return True, expanded, trailing
    elif trailing:
        pivots = rank_mod_p(rows, prime)
    else:
        return False, expanded, 0
    run = next((t for t, pivot in enumerate(pivots) if pivot != t), len(pivots))
    return False, expanded, min(run, trailing)


def image_degrees(phi: RingMap) -> list[int] | None:
    """The degree of each image phi_i (0 for a zero image), or None unless every image is homogeneous.

    Then (d_1, ..., d_n) with t = (1, ..., 1) is a weight of the grading's
    homogeneity space, so it lies in the row span of the grading matrix, and
    every member x^alpha of a component has the same codomain degree
    sum_i alpha_i d_i. None also when the codomain has no variables.
    """
    degrees = []
    for f in phi.images:
        found = {mono.degree() for mono in f.terms}
        if len(found) > 1:
            return None
        degrees.append(found.pop() if found else 0)
    return degrees if phi.m else None


def _verify_generator(images: list, vec: list[int], columns: list[int], key: int, packing: MonomialPacking):
    """Check that sum_j vec_j images[j] = 0 exactly and that every term has the packed beta `key`.

    `columns` holds the packed key of each x^alpha, whose packed beta is
    `column >> beta_shift`, and `images` its psi^alpha, not the rows, so a bad
    matrix is caught. As every d^alpha > 0, the sum vanishes exactly when the
    generator sum_j vec_j d^alpha_j x^alpha_j maps to zero.
    """
    total: dict[int, int] = {}
    for v, image, column in zip(vec, images, columns):
        if v:
            if column >> packing.beta_shift != key:
                raise EngineInvariantError(f"a generator term lies outside component {packing.beta(key)}")
            for gamma, c in image.items():
                total[gamma] = total.get(gamma, 0) + v * c
    if any(total.values()):
        raise EngineInvariantError(f"a generator of {packing.beta(key)} does not map to zero")


def components_of_kernel(
    phi: RingMap, max_degree: int, *, prime: int | None = DEFAULT_PRIME
) -> GeneratorSet:
    """All minimal generators of ker(phi) of weighted degree <= max_degree.

    The weighted degree is taken against the grading's positive weight, which
    is the all-ones vector (plain total degree) whenever the row span allows
    it. Raises NoPositiveWeightError when no positive weight exists. `prime`
    is the one switch: the modulus of the mod-p trim and the certificate,
    checked with `is_prime`, or None for none of that modular work, so that
    every component is solved exactly except the lone ones counted in bulk
    and the orbit members settled by symmetry, which both happen at every
    setting. No setting changes the output.
    """
    if max_degree < 1:
        raise ValueError("degree bound must be >= 1")
    grading = grading_for_map(phi)
    if grading.positive_weight is None:
        raise NoPositiveWeightError("the grading admits no strictly positive weight vector")
    # rank mod a composite can over-count: a product of nonzero pivots can vanish
    if prime is not None and not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    # a monomial's total degree is at most its weighted degree
    packing = MonomialPacking(phi.n, max_degree, grading.A)
    images = IntegerImages(phi, max_degree)
    generators: list[Generator] = []
    level_stats: list[LevelStats] = []
    moves = symmetry_moves(grading, phi.symmetries)
    group = symmetry_group(moves)
    levels: dict[int, DegreeLevel] = {}
    grouped: dict = {}  # the lower levels that enumerate_level builds each level from
    sources: list[LiftSource] = []
    zero = images.zero_fields
    # with homogeneous images, the images of a component of codomain degree
    # D >= min(degrees) lie among the comb(m - 1 + D, m - 1) monomials of degree D
    m, degrees = phi.m, image_degrees(phi)
    least_reach = comb(m - 1 + min(degrees), m - 1) if degrees else float("inf")

    def lap(stage: str, since: float) -> float:
        """Add the seconds since `since` to `stage` of the current level; return now."""
        now = time.perf_counter()
        stages[stage] += now - since
        return now

    def settle(k: int) -> str:
        """Settle component k of the current level, to the end.

        Its generators are sorted and appended to `generators` and, below the
        degree bound, their reduced basis to `sources`. A refuted tail costs
        one more exact pass, with no tail and no mod-p work.
        """
        key = ckeys[k]
        rep = first.get(key, key)
        if rep != key and rep not in unsettled:
            return "certified_by_symmetry"
        basis = level.members(k)
        lifts = index.get(key, [])
        screened = expanded = None  # the mod-p trim's columns, and their images
        reach = hopeless = 0  # hopeless: no certificate can pass
        now = time.perf_counter()
        if len(basis) > least_reach:
            reach = comb(m - 1 + sum([degrees[i] * e for i, e in packing.pairs(basis[0])]), m - 1)
            hopeless = reach < len(basis) - sum(len(gammas) for _, _, gammas in lifts)
        tail = reach if hopeless and lifts else 0  # the last members of basis with independent images
        if prime and rep == key and not hopeless:
            screened, rank_p = trim_basis(basis, lifts, prime)
            now = lap("trim", now)
            if not screened:  # rank mod p is every column, so the lift rows span it
                return "skipped_prescreen"
            # only an exact trim reads the tail, which must be the last members of basis
            trailing = 0
            if lifts:
                shared = zip(reversed(basis), reversed(screened))
                trailing = next((j for j, (b, c) in enumerate(shared) if b != c), len(screened))
            certified, expanded, tail = certify_no_generators(screened, images, packing, prime, trailing)
            now = lap("certify", now)
            if certified:
                tally["certified_by_leading_terms"] += expanded is None
                return "skipped_prescreen" if rank_p else "skipped_matroid"
        for tail in (tail, 0):  # a refuted tail gets one more pass, with none
            columns, _ = trim_basis(basis, lifts, tail=tail)
            now = lap("trim", now)
            alphas = [packing.pairs(c) for c in columns]
            if columns != screened:  # else the certificate expanded these columns' images
                expanded = images.expand(alphas)
            rows = component_rows(expanded)
            now = lap("assemble", now)
            vectors = nullspace_primitive(rows, len(columns))
            del rows  # a solve's largest object, freed before the check and a second pass
            # the tail is refuted when a kernel vector lives on it alone, which a proven tail rules out
            cut = len(columns) - tail
            refuted = tail and len(echelon([vec[:cut] for vec in vectors], cut)) < len(vectors)
            now = lap("kernel", now)
            if not refuted:
                break
        found = len(vectors)
        if (found or rep != key) and unsettled.setdefault(rep, found) != found:
            raise EngineInvariantError(f"orbit members of {packing.beta(key)} differ in new generators")
        scales = [prod(images.denominators[i] ** e for i, e in alpha) for alpha in alphas]
        polys, coefficients = [], []
        for vec in vectors:
            _verify_generator(expanded, vec, columns, key, packing)
            coeffs = normalize_primitive([v * d for v, d in zip(vec, scales)])
            coefficients.append(coeffs)
            polys.append(Polynomial(phi.n, {packing.monomial(c): v for c, v in zip(columns, coeffs) if v}))
        polys.sort(
            key=lambda f: (grlex_key(f.leading()[0]), sorted((m.exps, str(c)) for m, c in f.terms.items()))
        )
        if polys:  # a tuple beta is decoded only for a component with generators
            beta = packing.beta(key)
            generators.extend(Generator(f, beta, degree) for f in polys)
        now = lap("verify", now)
        if degree < max_degree:
            sources.extend(lift_sources(degree, columns, coefficients))
            lap("trim", now)
        return "solved"

    for degree in range(1, max_degree + 1):
        started = time.perf_counter()
        stages = dict.fromkeys(STAGES, 0.0)
        level = levels[degree] = enumerate_level(grading, degree, packing, grouped=grouped)
        now = lap("enumerate", started)
        multiple = level.multiple()  # the components of more than one member, which orbits key
        first = orbits(level, multiple, moves, group) if moves else {}
        now = lap("orbits", now)
        index = push_index(sources, level, levels)
        lap("trim", now)
        before = len(generators)
        # an orbit's first member settles it when it has no new generators;
        # otherwise every member goes straight to its own exact solve, which
        # must find as many generators
        unsettled: dict[int, int] = {}
        ckeys = level.ckeys
        tally = dict.fromkeys((*STATUSES, "certified_by_leading_terms"), 0)
        # a lone monomial with no zero-image variable has a nonzero image, and
        # no lift lands on it: a lift row with two or more terms lands on as
        # many monomials of one component, and a one-term row lies in the
        # kernel, so it has a zero-image variable, and so do its shifts
        work: Sequence[int] = multiple
        if zero:
            keys, starts = level.keys, level.starts
            work = [k for k, size in enumerate(level.sizes()) if size > 1 or keys[starts[k]] & zero]
        tally["skipped_matroid"] = len(ckeys) - len(work)
        with unlimited_int_digits():  # settle's sort compares coefficients as decimals
            for k in work:
                tally[settle(k)] += 1
        del first, unsettled
        if sum(tally[status] for status in STATUSES) != len(ckeys):
            raise EngineInvariantError("component statuses do not reconcile")
        level_stats.append(
            LevelStats(
                weighted_degree=degree,
                monomials=level.monomial_count,
                components=len(ckeys),
                generators=len(generators) - before,
                seconds=time.perf_counter() - started,
                stage_seconds=stages,
                **tally,
            )
        )
    return GeneratorSet(generators, level_stats, grading)
