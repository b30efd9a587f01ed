"""Exact low-degree kernel generators of polynomial ring maps.

The engine discovers a maximal multigrading under which the kernel is
homogeneous, then finds the minimal generators of each graded component by
exact linear algebra, one small system per multidegree.
"""

from .engine import (
    EngineInvariantError,
    Generator,
    GeneratorSet,
    components_of_kernel,
)
from .enumeration import DegreeLevel, enumerate_level
from .fixtures import (
    gen_cusp,
    gen_grassmannian,
    gen_sunlet_k3p,
    grassmannian_symmetries,
    sunlet_k3p_symmetries,
)
from .grading import (
    GradingMatrix,
    NoPositiveWeightError,
    build_constraints,
    domain_grading,
    find_positive_weight,
    grading_for_map,
    homogeneity_space,
)
from .linalg import rank_mod_p
from .mapfile import MapParseError, emit_map_json, emit_map_text, parse_map, parse_map_file
from .polyring import (
    DEFAULT_PRIME,
    Monomial,
    MonomialPacking,
    Polynomial,
    RingMap,
    Symmetry,
    format_polynomial,
    grlex_key,
)

__version__ = "0.1.0"
