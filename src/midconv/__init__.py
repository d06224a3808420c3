"""Exact middle convolution, rigidity indices and Katz-style reduction
for tuples of matrices defining linear ODE systems with irregular
singularities.  All arithmetic is exact over the rationals."""

from .exactla import (
    Mat,
    Subspace,
    charpoly,
    is_semisimple,
    jordan_data,
    jordan_partition,
    rational_spectrum,
    rref_nullspace,
)
from .errors import (
    AssumptionViolated,
    InternalError,
    MidconvError,
    PreconditionError,
    ValidationError,
)
from .model import (
    MatrixTuple,
    SingularPoint,
    SpectralType,
    addition,
    bessel_example,
    build_L,
    from_okubo,
    hypergeometric_example,
    pad_point,
    spectral_type,
    validate,
)
from .convolution import (
    MCOutcome,
    convolution_matrices,
    middle_convolution,
    subspace_K,
    subspace_L,
    subspace_Lprime,
)
from .rigidity import (
    RigidityReport,
    are_similar,
    commutant_dim,
    index,
    index_from_spectral,
    is_irreducible,
    local_index,
    okubo_index,
)
from .reduction import (
    ReductionStep,
    ReductionTrace,
    TerminalPattern,
    classify_terminal,
    choose_pivot,
    enumerate_terminals,
    reduce,
    reduce_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
