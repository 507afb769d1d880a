"""Exact symbolic engine for a deformed Weyl-Clifford superalgebra.

The engine computes canonical normal forms in the algebra generated by
coordinate covectors, Dunkl-deformed vectors, a finite reflection group,
and Clifford generators, builds the rank-one orthosymplectic realization
living inside it, constructs the supercentralizer generators, and verifies
the full identity catalog to exact zero, cross-checked by an independent
module of polynomials tensor the exterior algebra, under any Gram matrix.

The elements of the realization and the supercentralizer (X, D, H, ...,
Casimir, Omega, M(u, v), Pm(a), ...) are written once, as text of the
expression language in `DEFINITIONS`; read them with `evaluate`, for
example ``evaluate(ctx, "Casimir")`` or ``evaluate(ctx, "M(x1, x2)")``.
"""

from .scalars import BaseNumber, Scalar
from .geometry import (Covector, QuadraticSpace, Vector, WittBasis, beta,
                       bilinear_B, pairing, witt_basis)
from .groups import (Reflection, ReflectionGroup, build_group,
                     from_generators, parse_group_spec, trivial_group)
from .core import (Context, Element, Monomial, anticommutator,
                   antisymmetrize, random_element, supercommutator)
from .oracle import PolySpinor, SpinorModule
from .osp import OspGenerators, build_osp, p_alpha, p_plus
from .centralizer import o_proj
from .parser import (DEFINITIONS, Evaluator, ParseError, evaluate,
                     parse_expression)
from .suites import (IdentityCase, RunOptions, SuiteEnv, SuiteReport,
                     catalog, catalog_ids, make_env, run_oracle_crosscheck,
                     run_suite, suite_names)

__version__ = "0.1.0"
