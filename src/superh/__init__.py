"""Exact harmonic analysis on superspace with m bosonic and 2n Grassmann variables.

Everything is computed in exact rational arithmetic: the sparse polynomial
ring, the orthosymplectic differential operators, spherical harmonic kernels
and their decompositions, supersphere integration, and the module structure
(irreducibility bands, simple dimensions, branching rules).
"""

from .superalgebra import (
    Parity,
    ParseError,
    SuperMonomial,
    SuperPolynomial,
    dim_Pk,
    monomial_basis,
    parse,
    render,
)
from .diffops import (
    LinearOperator,
    Metric,
    check_sl2,
    euler,
    euler_b,
    euler_f,
    killing_check,
    laplace_beltrami,
    laplace_beltrami_bosonic,
    laplace_beltrami_fermionic,
    metric,
    nabla2,
    osp_generator,
    r2,
    theta2,
)
from .harmonic import (
    FischerDecomposition,
    HarmonicPiece,
    ProjectionOperator,
    decompose_Hk,
    dim_Hk,
    fischer,
    harmonic_basis,
    is_harmonic,
    projection_Q,
)
from .integration import (
    ScaledRational,
    invariance_suite,
    invariant_density_solutions,
    pizzetti,
    reciprocal_gamma,
    sphere_moment,
    supersphere_integral_phi,
)
from .modules import (
    RepSpace,
    SpaceSpec,
    branching,
    decompose_simple,
    in_window,
    indecomposability_witness,
    is_irreducible,
    rep_space,
    simple_dim,
    submodule_closure,
    window_submodule_check,
)

__version__ = "0.1.0"
