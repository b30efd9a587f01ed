"""Exact low-degree kernel generators of polynomial ring maps.

The engine discovers a maximal multigrading under which the kernel is
homogeneous, then finds the minimal generators of each graded component by
exact linear algebra, one small system per multidegree.
"""

from .engine import (
    EngineInvariantError,
    EngineOptions,
    Generator,
    GeneratorSet,
    components_of_kernel,
)
from .enumeration import DegreeLevel, MonomialBasis, enumerate_level, lookup_basis
from .fixtures import gen_cusp, gen_grassmannian, gen_sunlet_k3p
from .grading import (
    GradingMatrix,
    HomogeneityBasis,
    Multidegree,
    NoPositiveWeightError,
    build_constraints,
    domain_grading,
    find_positive_weight,
    grading_for_map,
    homogeneity_space,
    multidegree_of,
)
from .linalg import ComponentMatrix, KernelBasis, exact_kernel, rank_mod_p
from .mapfile import MapParseError, emit_map_json, emit_map_text, parse_map, parse_map_file
from .polyring import (
    DEFAULT_PRIME,
    BadPrimeError,
    Monomial,
    Polynomial,
    RingMap,
    format_polynomial,
    grlex_key,
)

__version__ = "0.1.0"
