"""Exact symbolic engine for a deformed Weyl-Clifford superalgebra.

The engine computes canonical normal forms in the algebra generated by
coordinate covectors, Dunkl-deformed vectors, a finite reflection group,
and Clifford generators, builds the rank-one orthosymplectic realization
living inside it, constructs the supercentralizer generators, and verifies
the full identity catalog to exact zero, cross-checked by an independent
module of polynomials tensor the exterior algebra, under any Gram matrix.
"""

from .scalars import BaseNumber, Scalar
from .geometry import (Covector, QuadraticSpace, Vector, WittBasis, beta,
                       bilinear_B, pairing, witt_basis)
from .groups import (Reflection, ReflectionGroup, build_group,
                     from_generators, parse_group_spec, trivial_group)
from .core import (Context, Element, Monomial, anticommutator,
                   antisymmetrize, random_element, supercommutator)
from .oracle import PolySpinor, SpinorModule
from .osp import (OspGenerators, build_osp, casimir, gen_symmetry,
                  pair_element, p_alpha, p_minus, p_plus, q_minus, q_plus,
                  scasimir)
from .centralizer import M, central_omega, o_proj, o_subset, o_top
from .parser import Evaluator, ParseError, evaluate, parse_expression
from .suites import (IdentityCase, RunOptions, SuiteEnv, SuiteReport,
                     catalog, catalog_ids, make_env, run_oracle_crosscheck,
                     run_suite, suite_names)

__version__ = "0.1.0"
