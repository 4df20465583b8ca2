"""sejoin: exact-arithmetic construction and enumeration of Sasaki-Einstein
7-manifold joins and their quotient Bott orbifolds."""

from .kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DegenerateEquationError,
    DomainError,
    Polynomial,
)
from .ypq import (
    YpqEinstein,
    einstein_ray,
    family_member,
    fano_index,
    hirzebruch_quotient,
    is_quasi_regular,
    solve,
)
from .join import (
    JoinQuotient,
    JoinSpec,
    ReebRay,
    canonical_l,
    se_cubic,
    se_ray_from_w,
    smoothness_check,
    w_from_k,
)
from .bott import BottOrbifold, CohClass
from .topology import TorsionInvariant, homotopy_distinct
from .metric import CalabiData, CalabiProfile
from .catalog import SERecord, build_record, enumerate_joins, verify_paper_examples

__version__ = "0.1.0"

__all__ = [
    "AlgebraicRoot",
    "ConsistencyError",
    "DegenerateEquationError",
    "DomainError",
    "Polynomial",
    "YpqEinstein",
    "einstein_ray",
    "family_member",
    "fano_index",
    "hirzebruch_quotient",
    "is_quasi_regular",
    "solve",
    "JoinQuotient",
    "JoinSpec",
    "ReebRay",
    "canonical_l",
    "se_cubic",
    "se_ray_from_w",
    "smoothness_check",
    "w_from_k",
    "BottOrbifold",
    "CohClass",
    "TorsionInvariant",
    "homotopy_distinct",
    "CalabiData",
    "CalabiProfile",
    "SERecord",
    "build_record",
    "enumerate_joins",
    "verify_paper_examples",
]
