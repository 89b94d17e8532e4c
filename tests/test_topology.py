import random
from fractions import Fraction

import pytest

from pseudometric import (
    EPSequence,
    GenParams,
    PointMap,
    Space,
    check_well_defined,
    class_of,
    boundary,
    closed_via_completeness,
    closure,
    complete_via_boundary,
    find_isometry,
    interior,
    is_cauchy,
    is_closed,
    is_metric,
    is_open,
    is_pseudoisometry,
    limit_points,
    metric_reflection,
    open_ball,
    random_space,
    saturate,
    zero_classes,
)

from oracles import (
    all_subsets,
    closed_by_definition,
    closure_by_definition,
    open_by_definition,
    small_spaces,
)


def mk(labels, rows):
    return Space(tuple(labels), tuple(tuple(r) for r in rows))


TWO_CLASS = mk("abcd", [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
METRIC3 = mk("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestOpenBall:
    def test_huge_radius_gives_whole_space(self):
        assert open_ball(METRIC3, 0, 100) == {0, 1, 2}

    def test_min_positive_radius_gives_center_in_metric_space(self):
        assert open_ball(METRIC3, 0, 1) == {0}

    def test_ball_contains_zero_class(self):
        assert open_ball(TWO_CLASS, 0, Fraction(1, 2)) == {0, 1}

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            open_ball(METRIC3, 0, 0)


class TestOpenClosed:
    def test_empty_and_full_are_open(self):
        assert is_open(TWO_CLASS, frozenset())
        assert is_open(TWO_CLASS, range(4))

    def test_metric_space_is_discrete(self):
        for A in all_subsets(METRIC3.n):
            assert is_open(METRIC3, A)
            assert is_closed(METRIC3, A)

    def test_half_class_is_neither(self):
        assert not is_open(TWO_CLASS, {0})
        assert not is_closed(TWO_CLASS, {0})
        assert is_open(TWO_CLASS, {0, 1})
        assert is_closed(TWO_CLASS, {0, 1})

    def test_empty_set_closed(self):
        assert is_closed(TWO_CLASS, frozenset())

    def test_open_iff_closed_iff_saturated_exhaustive(self):
        for space in small_spaces(4):
            for A in all_subsets(space.n):
                o = is_open(space, A)
                c = is_closed(space, A)
                s = saturate(space, A) == A
                assert o == c == s
                assert o == open_by_definition(space, A)
                assert c == closed_by_definition(space, A)

    def test_metric_iff_every_subset_closed(self):
        for space in small_spaces(4):
            every = all(is_closed(space, A) for A in all_subsets(space.n))
            assert every == is_metric(space)


class TestClosure:
    def test_empty(self):
        assert closure(TWO_CLASS, frozenset()) == frozenset()

    def test_metric_identity(self):
        assert closure(METRIC3, {0, 2}) == {0, 2}

    def test_grows_to_class(self):
        assert closure(TWO_CLASS, {0}) == {0, 1}

    def test_equals_saturate_and_definition(self):
        for space in small_spaces(4):
            for A in all_subsets(space.n):
                got = closure(space, A)
                assert got == saturate(space, A)
                if A:
                    assert got == closure_by_definition(space, A)


class TestInteriorBoundary:
    def test_full_set_has_empty_boundary(self):
        assert boundary(TWO_CLASS, range(4)) == frozenset()

    def test_metric_space_boundaries_empty(self):
        for A in all_subsets(METRIC3.n):
            assert boundary(METRIC3, A) == frozenset()

    def test_half_class_boundary(self):
        assert boundary(TWO_CLASS, {0}) == {0, 1}
        assert interior(TWO_CLASS, {0}) == frozenset()

    def test_boundary_is_closure_minus_interior(self):
        for space in small_spaces(4):
            for A in all_subsets(space.n):
                want = closure(space, A) - interior(space, A)
                assert boundary(space, A) == want

    def test_boundary_against_definition(self):
        for space in small_spaces(3):
            for A in all_subsets(space.n):
                rest = frozenset(range(space.n)) - A
                want = closure_by_definition(space, A) & closure_by_definition(space, rest) if A and rest else None
                if want is not None:
                    assert boundary(space, A) == want


class TestSequences:
    def test_constant_sequence(self):
        seq = EPSequence(TWO_CLASS, (), (0,))
        assert is_cauchy(seq)
        assert limit_points(seq) == {0, 1}

    def test_zero_distance_cycle_is_cauchy(self):
        seq = EPSequence(TWO_CLASS, (2,), (0, 1))
        assert is_cauchy(seq)
        assert limit_points(seq) == {0, 1}

    def test_positive_distance_cycle_is_not(self):
        seq = EPSequence(TWO_CLASS, (), (0, 2))
        assert not is_cauchy(seq)
        assert limit_points(seq) == frozenset()

    def test_prefix_is_irrelevant(self):
        noisy = EPSequence(TWO_CLASS, (2, 3, 0), (1,))
        assert is_cauchy(noisy)
        assert limit_points(noisy) == {0, 1}

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            EPSequence(TWO_CLASS, (), ())

    def test_closed_sets_contain_their_limits(self):
        rng = random.Random(17)
        for _ in range(40):
            space = random_space(
                GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 6),
                          zero_merge_prob=Fraction(1, 2))
            )
            anchor = rng.randrange(space.n)
            cls = sorted(class_of(space, anchor))
            cycle = tuple(rng.choice(cls) for _ in range(rng.randint(1, 3)))
            seq = EPSequence(space, (), cycle)
            assert is_cauchy(seq)
            closed = saturate(space, set(cycle) | {rng.randrange(space.n)})
            assert limit_points(seq) & closed


class TestCompletenessCriteria:
    def test_empty_subset_trivially_complete(self):
        assert complete_via_boundary(TWO_CLASS, frozenset())

    def test_half_class_walkthrough(self):
        # boundary of {a} is {a,b}; both classes meet {a}
        assert boundary(TWO_CLASS, {0}) == {0, 1}
        assert complete_via_boundary(TWO_CLASS, {0})

    def test_every_finite_subset_is_complete(self):
        for space in small_spaces(4):
            for A in all_subsets(space.n):
                assert complete_via_boundary(space, A)

    def test_closedness_criterion_matches_is_closed(self):
        for space in small_spaces(4):
            for A in all_subsets(space.n):
                if A:
                    assert closed_via_completeness(space, A) == is_closed(space, A)

    def test_closedness_criterion_sampled_larger(self):
        rng = random.Random(23)
        for _ in range(40):
            space = random_space(
                GenParams(seed=rng.getrandbits(32), n=rng.randint(6, 10),
                          zero_merge_prob=Fraction(1, 2))
            )
            for _ in range(10):
                mask = rng.getrandbits(space.n)
                A = frozenset(i for i in range(space.n) if mask >> i & 1)
                if A:
                    assert closed_via_completeness(space, A) == is_closed(space, A)

    def test_saturated_set_passes(self):
        assert closed_via_completeness(TWO_CLASS, {0, 1})

    def test_half_class_fails(self):
        assert not closed_via_completeness(TWO_CLASS, {0})

    def test_full_set_passes(self):
        assert closed_via_completeness(TWO_CLASS, range(4))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            closed_via_completeness(TWO_CLASS, frozenset())


class TestInvalidZeroPattern:
    # d(b, a) = 0 but d(a, b) = 1: the zero relation is not symmetric, so
    # it has no zero classes and every read of them must refuse.
    ASYMMETRIC = mk("ab", [[0, 1], [0, 0]])

    QUERIES = {
        "zero_classes": lambda s: zero_classes(s),
        "saturate": lambda s: saturate(s, {1}),
        "class_of": lambda s: class_of(s, 0),
        "metric_reflection": lambda s: metric_reflection(s),
        "is_open": lambda s: is_open(s, {1}),
        "is_closed": lambda s: is_closed(s, {1}),
        "closure": lambda s: closure(s, {1}),
        "interior": lambda s: interior(s, {1}),
        "boundary": lambda s: boundary(s, {1}),
        "complete_via_boundary": lambda s: complete_via_boundary(s, {1}),
        "closed_via_completeness": lambda s: closed_via_completeness(s, {1}),
        "limit_points": lambda s: limit_points(EPSequence(s, (), (1,))),
        "is_metric": lambda s: is_metric(s),
        "find_isometry": lambda s: find_isometry(s, s),
        "is_cauchy": lambda s: is_cauchy(EPSequence(s, (), (0, 1))),
        "is_pseudoisometry": lambda s: is_pseudoisometry(PointMap.identity(s)),
        "check_well_defined": lambda s: check_well_defined(s),
    }

    @pytest.mark.parametrize("name", list(QUERIES))
    def test_asymmetric_zero_rejected(self, name):
        with pytest.raises(ValueError, match="not symmetric"):
            self.QUERIES[name](self.ASYMMETRIC)
