"""Exact planar cone arithmetic and torus-action stability analysis.

The package decides stability of coordinate-support patterns on the
quadric sum(z_i w_i) = 0 in C^3 x C^3 under a two-torus action with
integer weight vectors, entirely in exact integer arithmetic.  It also
counts graded dimensions of the character-graded coordinate ring, renders
weight fans as SVG, evaluates the real moment map, and ships randomized
verification suites that cross-check every classifier against an
independent implementation.
"""

from conestab.cones import (
    Cone2,
    Vec2,
    as_vec2,
    cross,
    dot,
    neg,
    on_ray,
    perp,
    strictly_separates,
)
from conestab.graded import (
    Monomial,
    find_invariant_monomial,
    graded_dim,
    hilbert_table,
)
from conestab.moment import MomentValue, moment_map
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    SupportPattern,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    fan_condition,
    fan_condition_membership,
    flag_datum,
    hm_weight,
    r0_is_trivial,
    weights_from_biquotient,
)
from conestab.svg import fan_svg
from conestab.verify import (
    TrialConfig,
    VerifyReport,
    datum_stream,
    main_theorem_sides,
    random_datum,
    verify_hm_reduction,
    verify_intcone,
    verify_main_theorem,
    verify_r0,
    verify_star_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PATTERNS",
    "Cone2",
    "MomentValue",
    "Monomial",
    "StabilityClass",
    "SupportPattern",
    "TrialConfig",
    "Vec2",
    "VerifyReport",
    "WeightDatum",
    "__version__",
    "as_vec2",
    "classify_by_cone",
    "classify_by_one_ps",
    "cross",
    "datum_stream",
    "dot",
    "fan_condition",
    "fan_condition_membership",
    "fan_svg",
    "find_invariant_monomial",
    "flag_datum",
    "graded_dim",
    "hilbert_table",
    "hm_weight",
    "main_theorem_sides",
    "moment_map",
    "neg",
    "on_ray",
    "perp",
    "r0_is_trivial",
    "random_datum",
    "strictly_separates",
    "verify_hm_reduction",
    "verify_intcone",
    "verify_main_theorem",
    "verify_r0",
    "verify_star_equivalence",
    "weights_from_biquotient",
]
