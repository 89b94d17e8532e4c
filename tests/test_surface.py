"""The public surface: what the package exports and what its data types offer.

These pins make growth deliberate: a new export or a new public method on
``Space`` fails here until the pin is edited with it.
"""

import dataclasses

import pytest

import pseudometric
from pseudometric import (
    EPSequence,
    PointMap,
    Report,
    Space,
    Violation,
    boundary,
    class_of,
    closure,
    glue_zero_point,
    interior,
    is_open,
    limit_points,
    open_ball,
    saturate,
)
from pseudometric.core import members_of

EXPORTS = [
    "Dist", "DocumentError", "EPSequence", "FuzzReport", "GenParams",
    "IsoSearchStats", "PointMap", "Reflection", "Report", "ResourceLimitError",
    "Space", "Violation", "are_pseudoisometric", "as_dist", "boundary",
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
    assert len(EXPORTS) == 50
    assert sorted(pseudometric.__all__) == EXPORTS


def test_every_export_resolves():
    assert [name for name in pseudometric.__all__ if not hasattr(pseudometric, name)] == []


def test_space_members_are_pinned():
    assert _public_non_fields(Space) == ["index", "n", "validate"]


def test_report_members_are_pinned():
    assert tuple(_public_non_fields(Report)) == ("ok",)


POINT_ARGUMENTS = {
    "members_of": lambda s, i: members_of(s, {i}),
    "class_of": class_of,
    "saturate": lambda s, i: saturate(s, [i]),
    "is_open": lambda s, i: is_open(s, [i]),
    "open_ball": lambda s, i: open_ball(s, i, 1),
    "PointMap": lambda s, i: PointMap(s, s, (0, i)),
    "EPSequence": lambda s, i: EPSequence(s, (), (i,)),
    "glue_zero_point": lambda s, i: glue_zero_point(s, i, "c"),
}


@pytest.mark.parametrize("index", [2, -1, 0.5, 1.7, "0", True, False])
@pytest.mark.parametrize("entry", POINT_ARGUMENTS)
def test_every_point_argument_passes_one_index_rule(entry, index):
    space = Space(("a", "b"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError) as error:
        POINT_ARGUMENTS[entry](space, index)
    assert str(error.value) == f"point index {index!r} out of range"


@pytest.mark.parametrize("entry", ["members_of", "PointMap"])
def test_float_index_cannot_hide_behind_an_equal_int(entry):
    space = Space(("a", "b"), ((0, 1), (1, 0)))
    call = {"members_of": members_of, "PointMap": lambda s, ix: PointMap(s, s, ix)}[entry]
    with pytest.raises(ValueError, match=r"^point index 1\.0 out of range$"):
        call(space, (1, 1.0))


def test_set_valued_functions_return_frozensets():
    space = Space(("a", "b", "c"), ((0, 0, 1), (0, 0, 1), (1, 1, 0)))
    results = [
        class_of(space, 0),
        saturate(space, [0]),
        saturate(space, []),
        open_ball(space, 0, 1),
        closure(space, [0]),
        interior(space, [0]),
        boundary(space, [0]),
        limit_points(EPSequence(space, (), (0,))),
        limit_points(EPSequence(space, (), (0, 2))),
    ]
    assert [type(r) for r in results] == [frozenset] * len(results)


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
