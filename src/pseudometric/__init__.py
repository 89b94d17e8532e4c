"""Finite pseudometric spaces with exact rational distances.

Spaces, their zero-distance classes and metric reflections, the open-ball
topology, pseudoisometries with a complete isometry search, superspace
constructions, a canonical interchange format, and randomized suites that
exercise every invariant the library promises.
"""

from .constructions import (
    GenParams,
    check_cec_minimality,
    completion_glue,
    glue_zero_point,
    in_cec,
    is_superspace,
    random_space,
    random_superspace,
)
from .core import (
    Dist,
    PointMap,
    Report,
    Space,
    Violation,
    as_dist,
    class_of,
    format_dist,
    is_metric,
    saturate,
    validate_pseudometric,
    zero_classes,
)
from .document import DocumentError, emit_document, load_space, parse_document
from .fuzz import FuzzReport, run_fuzz
from .morphisms import (
    IsoSearchStats,
    ResourceLimitError,
    are_pseudoisometric,
    brute_force_pseudoisometry,
    compose,
    find_isometry,
    induced_reflection_map,
    is_distance_preserving,
    is_pseudoisometry,
)
from .reflection import (
    Reflection,
    check_well_defined,
    metric_reflection,
    projection_as_pseudoisometry,
)
from .topology import (
    EPSequence,
    boundary,
    closed_via_completeness,
    closure,
    complete_via_boundary,
    interior,
    is_cauchy,
    is_closed,
    is_open,
    limit_points,
    open_ball,
)

__version__ = "0.1.0"

__all__ = [
    "Dist",
    "DocumentError",
    "EPSequence",
    "FuzzReport",
    "GenParams",
    "IsoSearchStats",
    "PointMap",
    "Reflection",
    "Report",
    "ResourceLimitError",
    "Space",
    "Violation",
    "are_pseudoisometric",
    "as_dist",
    "boundary",
    "brute_force_pseudoisometry",
    "check_cec_minimality",
    "check_well_defined",
    "class_of",
    "closed_via_completeness",
    "closure",
    "complete_via_boundary",
    "completion_glue",
    "compose",
    "emit_document",
    "find_isometry",
    "format_dist",
    "glue_zero_point",
    "in_cec",
    "induced_reflection_map",
    "interior",
    "is_cauchy",
    "is_closed",
    "is_distance_preserving",
    "is_metric",
    "is_open",
    "is_pseudoisometry",
    "is_superspace",
    "limit_points",
    "load_space",
    "metric_reflection",
    "open_ball",
    "parse_document",
    "projection_as_pseudoisometry",
    "random_space",
    "random_superspace",
    "run_fuzz",
    "saturate",
    "validate_pseudometric",
    "zero_classes",
]
