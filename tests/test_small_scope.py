"""The paper's two theorems, checked on every small space.

Every space up to a few points with small integer distances, instead of
many random ones: on a small scope, every instance beats a sample.
"""

from pseudometric import (
    PointMap,
    are_pseudoisometric,
    completion_glue,
    find_isometry,
    in_cec,
    is_closed,
    is_distance_preserving,
    is_metric,
    is_pseudoisometry,
    metric_reflection,
)

from oracles import (
    closed_by_definition,
    factorial_isometry,
    one_point_extensions,
    reflection_key,
    small_spaces,
)


def test_pseudoisometric_iff_reflections_isometric():
    spaces = small_spaces(4, (0, 1, 2, 3))
    keys = [reflection_key(s) for s in spaces]
    classes = {}
    for key, space in zip(keys, spaces):
        classes.setdefault(key, space)
    assert (len(spaces), len(classes)) == (687, 61)
    pairs = 0
    for key, space in zip(keys, spaces):
        for other, rep in classes.items():
            if len(other) != len(key):  # quotients of different sizes
                continue
            witness = are_pseudoisometric(space, rep)
            assert (witness is not None) == (other == key)
            assert witness is None or is_pseudoisometry(witness).ok
            pairs += 1
    assert pairs == 24_751


def test_find_isometry_agrees_with_every_permutation():
    metric = [s for s in small_spaces(4) if is_metric(s)]
    pairs = [(a, b) for a in metric for b in metric if a.n == b.n]
    assert len(pairs) == 4_165
    for a, b in pairs:
        witness, _ = find_isometry(a, b)
        assert (witness is None) == (factorial_isometry(a, b) is None)
        assert witness is None or is_distance_preserving(witness)


def test_closed_iff_in_cec_on_every_one_point_extension():
    # Every finite space is complete, so Y is closed in Z iff Z is in CEC(Y).
    superspaces = in_class = 0
    for y in small_spaces(3, (0, 1, 2, 3)):
        for z in one_point_extensions(y, range(4)):
            inclusion = PointMap(y, z, tuple(range(y.n)))
            closed = is_closed(z, inclusion.images)
            assert in_cec(inclusion) == closed == closed_by_definition(z, frozenset(range(y.n)))
            superspaces += 1
            in_class += closed
    assert (superspaces, in_class) == (686, 587)


def test_space_is_closed_in_every_completion_glue():
    glued = 0
    for y in small_spaces(3, (0, 1, 2, 3)):
        quotient = metric_reflection(y).quotient
        for ystar in one_point_extensions(quotient, range(1, 4)):
            inclusion = completion_glue(y, PointMap(quotient, ystar, tuple(range(quotient.n))))
            image = frozenset(inclusion.images)
            assert is_closed(inclusion.codomain, image)
            assert closed_by_definition(inclusion.codomain, image)
            glued += 1
    assert glued == 587
