"""Balanced lines of two-colored planar point sets.

Exact enumeration of balanced lines, rotation and sliding-rotation
machinery, and verifiable certificates that every instance admits at least
r of them.
"""

from .geometry import (
    BalancedLinesError,
    BoundTooSmall,
    CollinearTriple,
    Color,
    ColorImbalance,
    DirectedLine,
    Direction,
    DuplicateAbscissa,
    GuaranteeViolation,
    Instance,
    LabeledPoint,
    SameColorPair,
    ValidationError,
    build_points,
    halfplane_weight,
    instance_from_json,
    instance_to_json,
    is_balanced,
    validate,
)
from .generators import gen_random, gen_separated_convex
from .oracle import (
    BalancedLine,
    count_balanced,
    enumerate_naive,
    enumerate_sweep,
    lines_to_csv,
    lines_to_json,
)
from .rotation import (
    EvenRedCount,
    LevelOutOfRange,
    RotationEvent,
    RotationSpec,
    RotationTrace,
    UnknownPoint,
    WrongSubset,
    check_level_coupling,
    find_balanced_halving,
    is_delta_preserving,
    run_rotation,
    transitions_at,
)
from .sliding import (
    InvalidCurve,
    NotPositivelyOriented,
    RotateArc,
    Slide,
    SlidingRotation,
    Waist,
    evaluate_at,
    is_delta_preserving_sliding,
    is_positively_oriented,
    lift_rotation,
    sliding_profile,
    validate_curve,
    waist,
)
from .gamma import Gamma, decompose_fhg, find_gamma
from .certificate import (
    Certificate,
    CertificateFailure,
    CertifiedLine,
    Provenance,
    UnclassifiableTransition,
    certificate_to_json,
    flank_lines,
    recharge,
    strip_transitions,
    verify_lower_bound,
)

__version__ = "0.1.0"
