"""Exact cohomology, sheaf-character invariants and weak Brill-Noether
verdicts on rational surfaces."""

from .lattice import (
    DivisorClass,
    GENERAL,
    LatticeError,
    ParseError,
    PointConfig,
    SurfaceModel,
    basis_divisor,
    blowup_hirzebruch,
    blowup_p2,
    canonical,
    chi_line_bundle,
    collinear_config,
    del_pezzo,
    divisor,
    divisor_expr,
    hirzebruch,
    intersect,
    is_nef,
    neg_one_curves,
    parse_divisor,
    parse_surface,
    weyl_reflect,
    zero_divisor,
)
from .cohomology import (
    CohomologyAnswer,
    CohomologyVector,
    Vanishing,
    blowup_cohomology_oracle,
    certified_cohomology,
    hirzebruch_cohomology,
    hirzebruch_pushforward_oracle,
    interpolation_h0,
    line_bundle_cohomology,
    vanishing_by_rules,
)
from .chern import (
    CharacterError,
    ChernCharacter,
    character_from_chi,
    euler_pairing,
    hirzebruch_normalize,
    line_bundle_character,
    parse_character,
    riemann_roch_chi,
    serre_dual_character,
)
from .resolutions import (
    ExceptionalCollection,
    ResolutionError,
    ResolutionReport,
    builtin_collection,
    prioritary_hypotheses_check,
    solve_exponents,
    two_term_resolution,
    verify_strong_exceptional,
)
from .goodsums import (
    GoodSum,
    GoodSumError,
    WBNWitness,
    delpezzo_decompose,
    fiber_class,
    is_good_sum,
    prioritary_sum_check,
    rounding_sum,
)
from .decide import (
    Obstruction,
    VerificationError,
    WBNStatus,
    WBNVerdict,
    obstruction_certificate,
    rank_one_wbn,
    wbn,
)

__version__ = "0.1.0"
