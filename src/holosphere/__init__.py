"""Minimal spherical surfaces from holomorphic data.

The package builds isotropic holomorphic chains from a list of input
functions, evaluates the resulting unit-sphere surfaces on grids, checks
every asserted geometric invariant numerically, reconstructs the
holomorphic data back from a surface, and exposes the two derived
parametrizations (flat-point-free Kaehler hypersurfaces of Euclidean
space and codimension-two ruled minimal submanifolds of spheres).
"""

from .chain import (
    AlphaChain,
    build_alpha_chain,
    f_chain_eval,
    recursion_crosscheck,
    scan_grid,
)
from .domain import Domain
from .errors import (
    ConfigError,
    DegenerateSurfaceError,
    DomainError,
    EvaluationError,
    HolosphereError,
    NotPseudoholomorphicError,
    ParseError,
    QuadratureError,
    SingularPointError,
)
from .expr import (
    Antiderivative,
    HoloExpr,
    antiderivative,
    eval_expr,
    parse_expr,
    to_string,
)
from .geometry import (
    DiagnosticsReport,
    SurfaceEvaluator,
    calabi_check,
    chain_fundamental_form,
    minimality_residual,
    verify_all,
)
from .reconstruct import (
    XiField,
    extract_xi,
    g_chain_at,
    roundtrip,
)

__all__ = [
    "AlphaChain",
    "Antiderivative",
    "ConfigError",
    "DegenerateSurfaceError",
    "DiagnosticsReport",
    "Domain",
    "DomainError",
    "EvaluationError",
    "HoloExpr",
    "HolosphereError",
    "NotPseudoholomorphicError",
    "ParseError",
    "QuadratureError",
    "SingularPointError",
    "SurfaceEvaluator",
    "XiField",
    "antiderivative",
    "build_alpha_chain",
    "calabi_check",
    "chain_fundamental_form",
    "eval_expr",
    "extract_xi",
    "f_chain_eval",
    "g_chain_at",
    "minimality_residual",
    "parse_expr",
    "recursion_crosscheck",
    "roundtrip",
    "scan_grid",
    "to_string",
    "verify_all",
]

__version__ = "0.1.0"
