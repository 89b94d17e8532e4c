"""The public surface: what the package exports and what its data types offer.

These pins make growth deliberate: a new export or a new public method on
``Space`` or ``Subset`` fails here until the pin is edited with it.
"""

import dataclasses

import pytest

import pseudometric
from pseudometric import Space, Subset, Violation
from pseudometric.core import members_of

EXPORTS = [
    "Dist", "DocumentError", "EPSequence", "Embedding", "FuzzReport", "GenParams",
    "IsoSearchStats", "Partition", "PointMap", "Reflection", "Report", "ResourceLimitError",
    "Space", "Subset", "Violation", "are_pseudoisometric", "as_dist", "boundary",
    "brute_force_pseudoisometry", "check_cec_minimality", "check_well_defined", "class_of",
    "closed_via_completeness", "closure", "complete_via_boundary", "completion_glue", "compose",
    "emit_document", "find_isometry", "format_dist", "glue_zero_point", "in_cec",
    "induced_reflection_map", "interior", "is_cauchy", "is_closed", "is_distance_preserving",
    "is_metric", "is_open", "is_pseudoisometry", "is_superspace", "limit_points", "load_space",
    "metric_reflection", "open_ball", "parse_document", "projection_as_pseudoisometry",
    "random_space", "random_superspace", "run_fuzz", "saturate", "validate_pseudometric",
    "zero_classes",
]


def _public_non_fields(cls) -> list[str]:
    fields = {f.name for f in dataclasses.fields(cls)}
    return sorted(n for n in dir(cls) if not n.startswith("_") and n not in fields)


def test_exports_are_pinned():
    assert len(EXPORTS) == 53
    assert sorted(pseudometric.__all__) == EXPORTS


def test_every_export_resolves():
    assert [name for name in pseudometric.__all__ if not hasattr(pseudometric, name)] == []


def test_space_and_subset_members_are_pinned():
    assert _public_non_fields(Space) == ["index", "n", "validate"]
    assert _public_non_fields(Subset) == []


@pytest.mark.parametrize("index", [2, -1])
def test_subset_and_members_of_share_the_index_rule(index):
    space = Space(("a", "b"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError) as via_subset:
        Subset(space, {index})
    with pytest.raises(ValueError) as via_members_of:
        members_of(space, {index})
    assert str(via_subset.value) == str(via_members_of.value) == f"point index {index} out of range"


@pytest.mark.parametrize(
    "violation, text",
    [
        (Violation("triangle", (1, 0, 2), (3, 1, 1)), "triangle at (1,0,2): 3, 1, 1"),
        (Violation("symmetry", (0, 1), (1, 2)), "symmetry at (0,1): 1, 2"),
        (Violation("unreached_class", (4,)), "unreached_class at (4)"),
    ],
)
def test_violation_text_names_points_by_index(violation, text):
    assert str(violation) == text
