import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from pseudometric import (
    GenParams,
    PointMap,
    Space,
    check_cec_minimality,
    completion_glue,
    glue_zero_point,
    in_cec,
    is_closed,
    is_metric,
    is_superspace,
    metric_reflection,
    random_space,
    random_superspace,
    saturate,
    zero_classes,
)


def mk(labels, rows):
    return Space(tuple(labels), tuple(tuple(r) for r in rows))


PAIR = mk("ab", [[0, 1], [1, 0]])


class TestSuperspace:
    def test_identity_embedding(self):
        assert is_superspace(PointMap.identity(PAIR))

    def test_added_point_with_matching_distances(self):
        sup = mk("abz", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert is_superspace(PointMap(PAIR, sup, (0, 1)))

    def test_distorted_pair_detected(self):
        sup = mk("abz", [[0, 2, 2], [2, 0, 1], [2, 1, 0]])
        assert not is_superspace(PointMap(PAIR, sup, (0, 1)))

    def test_non_injective_inclusion_detected(self):
        zeros = mk("ab", [[0, 0], [0, 0]])
        sup = mk("z", [[0]])
        e = PointMap(zeros, sup, (0, 0))
        assert not is_superspace(e)
        with pytest.raises(ValueError, match="not a superspace inclusion"):
            check_cec_minimality(e)


class TestCec:
    def test_whole_space_vacuously_in(self):
        assert in_cec(PointMap.identity(PAIR))

    def test_zero_distance_neighbor_excluded(self):
        sup = mk("abz", [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert not in_cec(PointMap(PAIR, sup, (0, 1)))

    def test_metric_superspaces_of_metric_spaces_qualify(self):
        rng = random.Random(6)
        for _ in range(20):
            y = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 5),
                                       zero_merge_prob=Fraction(0)))
            e = random_superspace(y, GenParams(seed=rng.getrandbits(32), n=2), force_cec=True)
            assert is_metric(e.codomain)
            assert in_cec(e)

    def test_superspace_precondition(self):
        sup = mk("abz", [[0, 2, 2], [2, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError):
            in_cec(PointMap(PAIR, sup, (0, 1)))


class TestGlueZeroPoint:
    def test_twin_sits_at_distance_zero(self):
        e = glue_zero_point(PAIR, 0, "y0")
        assert e.codomain.matrix[2][0] == 0

    def test_singleton_case(self):
        single = mk("a", [[0]])
        e = glue_zero_point(single, 0, "y0")
        assert e.codomain.n == 2
        assert e.codomain.matrix[0][1] == 0
        assert not is_closed(e.codomain, {0})

    def test_two_point_case(self):
        e = glue_zero_point(PAIR, 0, "y0")
        assert e.codomain.labels == ("a", "b", "y0")
        assert e.codomain.matrix[2] == (Fraction(0), Fraction(1), Fraction(0))
        assert e.codomain.validate().ok
        assert is_superspace(e)
        assert not is_closed(e.codomain, {0, 1})
        assert not in_cec(e)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="requires a nonempty space"):
            glue_zero_point(Space((), ()), 0, "y0")

    def test_label_collision_rejected(self):
        # A used label, and labels that no Space could hold: the twin is
        # built without Space.__init__, so each must meet the label rule there.
        for label, message in (
            ("a", "label 'a' already used"),
            ("", "labels must be nonempty strings, got ''"),
            ("\ud800", "label '\\ud800' is not encodable as UTF-8"),
            (5, "labels must be nonempty strings, got 5"),
        ):
            with pytest.raises(ValueError) as info:
                glue_zero_point(PAIR, 0, label)
            assert str(info.value) == message


class TestCompletionGlue:
    def test_reflection_itself_reproduces_the_space(self):
        y = mk("abcd", [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
        refl = metric_reflection(y)
        e = completion_glue(y, PointMap.identity(refl.quotient))
        assert e.codomain == y

    def test_new_point_over_collapsed_pair(self):
        y = mk("ab", [[0, 0], [0, 0]])
        ystar = mk(("a", "p"), [[0, 1], [1, 0]])
        quotient = metric_reflection(y).quotient
        e = completion_glue(y, PointMap(quotient, ystar, (0,)))
        assert e.codomain.labels == ("a", "b", "p")
        assert e.codomain.matrix == (
            (Fraction(0), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(0)),
        )
        assert e.codomain.validate().ok
        assert in_cec(e)
        assert is_closed(e.codomain, frozenset(e.images))

    def test_midpoint_between_classes(self):
        y = mk("abc", [[0, 0, 2], [0, 0, 2], [2, 2, 0]])
        quotient = metric_reflection(y).quotient
        assert quotient.labels == ("a", "c")
        ystar = mk(("a", "c", "m"), [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        e = completion_glue(y, PointMap(quotient, ystar, (0, 1)))
        m = e.codomain.index("m")
        assert e.codomain.matrix[m][0] == 1
        assert e.codomain.matrix[m][1] == 1
        assert e.codomain.matrix[m][2] == 1
        assert e.codomain.validate().ok
        assert in_cec(e)

    def test_label_collision_gets_fresh_suffix(self):
        y = mk("ab", [[0, 0], [0, 0]])
        ystar = mk(("a", "b"), [[0, 1], [1, 0]])
        quotient = metric_reflection(y).quotient
        e = completion_glue(y, PointMap(quotient, ystar, (0,)))
        assert e.codomain.labels == ("a", "b", "b*")

    def test_non_metric_superspace_rejected(self):
        y = mk("ab", [[0, 0], [0, 0]])
        quotient = metric_reflection(y).quotient
        bad = mk(("a", "p"), [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            completion_glue(y, PointMap(quotient, bad, (0,)))

    def test_embedding_of_another_space_rejected(self):
        y = mk("ab", [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="must map the metric reflection"):
            completion_glue(y, PointMap.identity(PAIR))

    def test_distorting_embedding_rejected(self):
        y = mk("abc", [[0, 0, 2], [0, 0, 2], [2, 2, 0]])
        quotient = metric_reflection(y).quotient
        ystar = mk(("a", "c"), [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            completion_glue(y, PointMap(quotient, ystar, (0, 1)))

    def test_empty_space_is_refused_by_the_reflection(self):
        # The empty space has no metric reflection, whatever the embedding.
        empty = Space((), ())
        for ystar in (empty, PAIR):
            with pytest.raises(ValueError, match="metric reflection requires a nonempty space"):
                completion_glue(empty, PointMap(empty, ystar, ()))


class TestCecMinimality:
    def test_cec_superspace_with_closed_image(self):
        rng = random.Random(3)
        y = random_space(GenParams(seed=rng.getrandbits(32), n=3))
        e = random_superspace(y, GenParams(seed=rng.getrandbits(32), n=2), force_cec=True)
        assert is_closed(e.codomain, frozenset(e.images))
        assert check_cec_minimality(e)

    def test_zero_glue_output_vacuous(self):
        e = glue_zero_point(PAIR, 1, "y0")
        assert check_cec_minimality(e)

    def test_identity_embedding(self):
        assert check_cec_minimality(PointMap.identity(PAIR))


class TestRandomSpace:
    def test_no_merging_yields_a_metric(self):
        for seed in range(40):
            space = random_space(GenParams(seed=seed, n=6, zero_merge_prob=Fraction(0)))
            assert is_metric(space)

    def test_singleton(self):
        space = random_space(GenParams(seed=9, n=1))
        assert space.n == 1 and space.matrix == ((Fraction(0),),)

    def test_deterministic_in_seed(self):
        p = GenParams(seed=123456, n=7, zero_merge_prob=Fraction(1, 2))
        assert random_space(p) == random_space(p)

    def test_zero_merging_produces_nontrivial_classes(self):
        merged = 0
        for seed in range(60):
            space = random_space(GenParams(seed=seed, n=6, zero_merge_prob=Fraction(1, 2)))
            if not is_metric(space):
                merged += 1
        assert merged > 30

    def test_every_seed_validates(self):
        for seed in range(10_000):
            p = GenParams(
                seed=seed,
                n=seed % 6 + 1,
                zero_merge_prob=Fraction(seed % 3, 4),
            )
            assert random_space(p).validate().ok

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="n must be at least 0, got -1"):
            GenParams(seed=0, n=-1)
        with pytest.raises(ValueError):
            GenParams(seed=0, n=1, zero_merge_prob=Fraction(3, 2))
        with pytest.raises(ValueError, match="random_space requires n >= 1"):
            random_space(GenParams(seed=0, n=0))
        # A size is an int and not a bool, checked before any draw.
        for n in (2.5, "3", True, None):
            with pytest.raises(ValueError, match="n must be an int"):
                GenParams(seed=0, n=n)
        with pytest.raises(ValueError, match="seed must be an int, got 'x'"):
            GenParams(seed="x", n=2)

    def test_probability_one_merges_every_point(self):
        p = GenParams(seed=0, n=3, zero_merge_prob=1)
        assert p.zero_merge_prob == 1
        assert zero_classes(random_space(p)) == (frozenset({0, 1, 2}),)

    @pytest.mark.parametrize(
        "value",
        [
            "abc", None, "1/0", [1], True, False, Decimal("Infinity"), Decimal("-Infinity"),
            "1e-2000000", Decimal("1e-2000000"),
        ],
        ids=[
            "word", "None", "zero-denominator", "list", "True", "False", "inf", "minus-inf",
            "long-exponent", "long-decimal-exponent",
        ],
    )
    def test_unreadable_probability_names_it(self, value):
        # Anything Fraction cannot read, exponent notation past the digit
        # limit, and a bool, are refused by name.
        with pytest.raises(ValueError) as caught:
            GenParams(seed=1, n=4, zero_merge_prob=value)
        assert str(caught.value) == f"zero_merge_prob must be a rational number, got {value!r}"

    def test_probability_messages_are_unchanged(self):
        with pytest.raises(TypeError) as caught:
            GenParams(seed=1, n=4, zero_merge_prob=0.5)
        assert str(caught.value) == (
            "float zero_merge_prob is not allowed; pass int, str or Fraction"
        )
        for outside in ("3/2", "-1/4"):
            with pytest.raises(ValueError) as caught:
                GenParams(seed=1, n=4, zero_merge_prob=outside)
            assert str(caught.value) == "zero_merge_prob must lie in [0, 1]"

    def test_float_probability_rejected(self):
        # A float would carry its binary rounding into every draw, as in as_dist.
        with pytest.raises(TypeError, match="float"):
            GenParams(seed=1, n=4, zero_merge_prob=0.1)
        with pytest.raises(TypeError, match="float"):
            GenParams(seed=1, n=4, zero_merge_prob=0.5)
        assert GenParams(seed=1, n=4, zero_merge_prob="1/10").zero_merge_prob == Fraction(1, 10)


class TestRandomSuperspace:
    def test_zero_additions_is_identity(self):
        e = random_superspace(PAIR, GenParams(seed=1, n=0))
        assert e.codomain == PAIR
        assert e.images == (0, 1)

    def test_forced_positive_distances(self):
        rng = random.Random(19)
        for _ in range(40):
            y = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 5),
                                       zero_merge_prob=Fraction(1, 2)))
            e = random_superspace(y, GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 3)),
                                  force_cec=True)
            assert is_superspace(e)
            assert e.codomain.validate().ok
            assert in_cec(e)

    def test_zero_merging_reaches_non_cec_instances(self):
        non_cec = 0
        for seed in range(40):
            y = random_space(GenParams(seed=seed, n=3))
            e = random_superspace(
                y,
                GenParams(seed=seed + 1000, n=2, zero_merge_prob=Fraction(3, 4)),
                force_cec=False,
            )
            assert is_superspace(e)
            assert e.codomain.validate().ok
            if not in_cec(e):
                non_cec += 1
        assert non_cec > 10

    def test_new_points_do_not_disturb_saturation_of_y(self):
        y = mk("ab", [[0, 0], [0, 0]])
        e = random_superspace(y, GenParams(seed=5, n=2), force_cec=True)
        image = frozenset(e.images)
        assert is_closed(e.codomain, image)
        assert saturate(e.codomain, image) == image

    def test_empty_base_builds_one_space(self, monkeypatch):
        # The generated block gets its final labels as it is built, as
        # random_space builds its one Space.
        original, built = Space.__post_init__, []

        def spy(self):
            built.append(self)
            original(self)

        empty, p = Space((), ()), GenParams(seed=4, n=5)
        monkeypatch.setattr(Space, "__post_init__", spy)
        x = random_space(p)
        assert built == [x]
        e = random_superspace(empty, p)
        assert built == [x, e.codomain]
        assert e.codomain.labels == ("q0", "q1", "q2", "q3", "q4")

    def test_deterministic(self):
        y = random_space(GenParams(seed=2, n=4))
        p = GenParams(seed=88, n=3, zero_merge_prob=Fraction(1, 3))
        assert random_superspace(y, p).codomain == random_superspace(y, p).codomain


def _derived_reprs():
    # Every derived construction over seeded inputs: generated spaces,
    # reflections, superspaces (none added, anchored, forced positive, over
    # the empty space) and both gluings.
    for seed in range(120):
        k = seed % 4
        x = random_space(
            GenParams(seed=seed, n=1 + seed % 7, zero_merge_prob=Fraction(seed % 4, 4))
        )
        refl = metric_reflection(x)
        extension = random_superspace(refl.quotient, GenParams(seed=seed + 1, n=k), force_cec=True)
        yield from map(repr, (
            x,
            refl,
            random_superspace(x, GenParams(seed=seed + 2, n=k, zero_merge_prob=Fraction(1, 3))),
            random_superspace(x, GenParams(seed=seed + 3, n=k), force_cec=True),
            random_superspace(Space((), ()), GenParams(seed=seed + 4, n=k)),
            glue_zero_point(x, seed % x.n, "twin"),
            completion_glue(x, extension),
        ))


def test_derived_constructions_are_pinned():
    digest = hashlib.sha256("\n".join(_derived_reprs()).encode()).hexdigest()
    assert digest == "0a26b964be863f550bff421b87091cef49acfb1a6335a81b09ec4a4bb8d0629b"
