import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudometric import (
    GenParams,
    Space,
    Violation,
    check_well_defined,
    is_metric,
    is_pseudoisometry,
    metric_reflection,
    projection_as_pseudoisometry,
    random_space,
)

from oracles import pseudoisometry_by_definition, small_spaces


def mk(labels, rows):
    return Space(tuple(labels), tuple(tuple(r) for r in rows))


TWO_CLASS = mk("abcd", [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
METRIC3 = mk("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestMetricReflection:
    def test_metric_space_reflects_to_itself(self):
        refl = metric_reflection(METRIC3)
        assert refl.quotient == METRIC3
        assert refl.projection.images == (0, 1, 2)
        assert refl.section.images == (0, 1, 2)

    def test_indiscrete_space_collapses_to_a_point(self):
        space = mk("abcd", [[0] * 4] * 4)
        refl = metric_reflection(space)
        assert refl.quotient.n == 1
        assert refl.quotient.labels == ("a",)

    def test_two_class_space(self):
        refl = metric_reflection(TWO_CLASS)
        assert refl.quotient.labels == ("a", "c")
        assert refl.quotient.matrix == (
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        )
        # the quotient distance agrees with every cross pair, not just reps
        proj = refl.projection.images
        for i in range(TWO_CLASS.n):
            for j in range(TWO_CLASS.n):
                assert refl.quotient.matrix[proj[i]][proj[j]] == TWO_CLASS.matrix[i][j]

    def test_quotient_is_metric(self):
        for space in small_spaces(4):
            assert is_metric(metric_reflection(space).quotient)

    def test_section_laws(self):
        for space in (TWO_CLASS, METRIC3):
            refl = metric_reflection(space)
            for q in range(refl.quotient.n):
                assert refl.projection.images[refl.section.images[q]] == q
            for i in range(space.n):
                back = refl.section.images[refl.projection.images[i]]
                assert space.matrix[i][back] == 0

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            metric_reflection(Space((), ()))

    def test_reflection_is_idempotent(self):
        for space in (TWO_CLASS, METRIC3):
            quotient = metric_reflection(space).quotient
            again = metric_reflection(quotient)
            assert again.quotient == quotient
            assert again.projection.images == tuple(range(quotient.n))


class TestReflectionIsKept:
    """One reflection per space, kept without a reference back to the space."""

    def test_second_call_returns_the_same_quotient(self):
        space = mk("abcd", TWO_CLASS.matrix)
        first, second = metric_reflection(space), metric_reflection(space)
        assert second == first
        assert second.quotient is first.quotient

    def test_space_keeps_equality_hash_and_repr(self):
        space = mk("abcd", TWO_CLASS.matrix)
        metric_reflection(space)
        fresh = mk("abcd", TWO_CLASS.matrix)
        assert space == fresh
        assert hash(space) == hash(fresh)
        assert repr(space) == repr(fresh)

    def test_space_is_freed_without_the_cycle_collector(self):
        space = mk("abcd", TWO_CLASS.matrix)
        gc.disable()
        try:
            metric_reflection(space)
            alive = weakref.ref(space)
            del space
            assert alive() is None
        finally:
            gc.enable()

    def test_broken_zero_pattern_raises_on_every_call(self):
        space = mk("abc", [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        for _ in range(3):
            with pytest.raises(ValueError, match="not transitive"):
                metric_reflection(space)

    def test_quotient_table_is_the_computed_one(self):
        rng = random.Random(29)
        for _ in range(200):
            space = random_space(
                GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 7),
                          zero_merge_prob=Fraction(rng.randint(0, 3), 3))
            )
            q = metric_reflection(space).quotient
            assert q._zero_partition == Space(q.labels, q.matrix)._zero_partition


class TestWellDefined:
    def test_valid_spaces_pass(self):
        for space in small_spaces(4):
            assert check_well_defined(space).ok

    def test_random_spaces_up_to_six_points_pass(self):
        import random

        rng = random.Random(55)
        for _ in range(60):
            space = random_space(
                GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 6),
                          zero_merge_prob=Fraction(1, 2))
            )
            assert check_well_defined(space).ok

    def test_triangle_breakage_shows_up(self):
        corrupted = mk("abc", [[0, 0, 1], [0, 0, 2], [1, 2, 0]])
        report = check_well_defined(corrupted)
        assert report.violations == (
            Violation("class_distance", (0, 2, 1, 2), (Fraction(1), Fraction(2))),
        )

    def test_metric_space_trivially_ok(self):
        assert check_well_defined(METRIC3).ok

    @staticmethod
    def planted(rng, symmetric):
        # Random classes, 0 inside a class and 1..3 across, so the zero
        # pattern is an equivalence but the triangle inequality often breaks.
        n = rng.randint(1, 6)
        cls = [rng.randrange(n) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if cls[i] != cls[j] and (i < j or not symmetric):
                    rows[i][j] = rng.randint(1, 3)
                if symmetric and i > j:
                    rows[i][j] = rows[j][i]
        return mk("abcdef"[:n], rows)

    def test_report_is_the_definition(self):
        rng = random.Random(13)
        broken = 0
        for _ in range(300):
            space = self.planted(rng, symmetric=True)
            d, n = space.matrix, space.n
            r = [min(y for y in range(n) if d[x][y] == 0) for x in range(n)]
            expected = tuple(
                Violation("class_distance", (r[i], r[j], i, j), (d[r[i]][r[j]], d[i][j]))
                for i in range(n)
                for j in range(i + 1, n)
                if d[i][j] != d[r[i]][r[j]]
            )
            assert check_well_defined(space).violations == expected
            broken += bool(expected)
        assert broken > 50

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_agrees_with_the_projection_check(self, symmetric):
        rng = random.Random(17)
        for _ in range(300):
            space = self.planted(rng, symmetric)
            projection = metric_reflection(space).projection
            assert check_well_defined(space).ok == is_pseudoisometry(projection).ok


class TestProjection:
    def test_singleton(self):
        pi = projection_as_pseudoisometry(mk("a", [[0]]))
        assert pi.images == (0,)
        assert is_pseudoisometry(pi).ok

    def test_indiscrete_constant_map(self):
        pi = projection_as_pseudoisometry(mk("abc", [[0] * 3] * 3))
        assert pi.images == (0, 0, 0)
        assert is_pseudoisometry(pi).ok

    def test_two_class_projection(self):
        pi = projection_as_pseudoisometry(TWO_CLASS)
        assert pi.images == (0, 0, 1, 1)
        assert is_pseudoisometry(pi).ok
        assert pseudoisometry_by_definition(pi)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 7),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 3)]),
)
def test_projection_preserves_all_distances(seed, n, zmp):
    space = random_space(GenParams(seed=seed, n=n, zero_merge_prob=zmp))
    refl = metric_reflection(space)
    assert is_metric(refl.quotient)
    proj = refl.projection.images
    for i in range(space.n):
        for j in range(space.n):
            assert refl.quotient.matrix[proj[i]][proj[j]] == space.matrix[i][j]
    assert pseudoisometry_by_definition(refl.projection)
