"""Exact-arithmetic toolkit for finite-dimensional BiHom-Lie algebras."""

from .algebra import (
    AxiomReport,
    BiHomAlgebra,
    CheckResult,
    StructureTensor,
    Witness,
    ad_matrix,
    check_all,
    check_bihom_jacobi,
    check_bihom_skew,
    check_commuting,
    check_multiplicative_alpha,
    check_multiplicative_beta,
    conjugate_algebra,
    conjugate_tensor,
    is_lie_algebra,
)
from .analysis import (
    Decomposition,
    IdealReport,
    TypeLabel,
    automorphism_permutation,
    burnside_generators,
    decompose_bihom,
    decompose_semisimple,
    enveloping_dim,
    is_ideal,
    is_semisimple_lie,
    is_simple,
    killing_form,
    type_candidates,
)
from .catalog import (
    direct_sum,
    make_L1,
    make_L2,
    make_L3,
    make_sl2,
    sl2_bihom,
)
# not the function classify3, so that bihomlie.classify3 stays the module
from .classify3 import (
    ClassLabel,
    Profile,
    Sl2Triple,
    alpha_profile,
    bihom_isomorphic3,
    find_sl2_triple,
    normalize_l1_params,
)
from .errors import (
    AxiomViolation,
    BiHomError,
    DimensionMismatch,
    IrrationalEigenvalues,
    IrrationalSplit,
    NotAutomorphism,
    NotAutomorphismShape,
    NotCommuting,
    NotLie,
    NotPermuted,
    NotRegular,
    NotSemisimple,
    NotSimple,
    NotSplit,
    ParseError,
    SingularMatrix,
    SplitUndecided,
    Unmatched,
    ZeroParameter,
)
from .exactlin import (
    MatrixQ,
    Subspace,
    char_poly,
    det,
    invert,
    kernel,
    rank,
    rational_roots,
)
from .fileio import load, save
from .twist import TwistInput, induce_lie, roundtrip_check, yau_twist

__all__ = [name for name in dir() if not name.startswith("_")]
