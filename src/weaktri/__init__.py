"""Exact-arithmetic toolkit for weak triangularizability of matrix spaces
over finite fields: decision procedures, invariant-flag recovery, split-pencil
sweeps, and exhaustive Grassmannian survey campaigns."""

from .adapted import (
    find_adapted_vector,
    is_adapted_vector,
    projective_reps,
    range_constrained,
)
from .errors import (
    BudgetExceededError,
    PreconditionError,
    SpaceFileError,
    TheoremViolationError,
)
from .flags import (
    Flag,
    RecoveryTrace,
    extract_structure_maps,
    flag_space,
    recover_flag,
)
from .gf import (
    FieldCtx,
    Poly,
    is_prime,
    parse_field,
    poly_gcd,
    splits_over,
)
from .linalg import Mat, char_poly, invert, kernel_basis, rref, rref_solve, span_rows
from .pencils import (
    CounterexampleReport,
    PencilReport,
    char2_odd_counterexample,
    pencil_splits_all,
    verify_pencil_division,
)
from .spaces import (
    DEFAULT_BUDGET,
    MatSpace,
    format_spacefile,
    parse_spacefile,
)
from .survey import (
    DEFAULT_SEED,
    CampaignReport,
    CampaignSpec,
    HitRecord,
    count_flags,
    gen_joint,
    gen_random,
    gen_sl,
    gen_sym,
    gen_triangular,
    grassmann_count,
    run_campaign,
)
from .triang import (
    SpaceVerdict,
    is_triangularizable,
    space_weakly_triangularizable,
)

__version__ = "0.1.0"
