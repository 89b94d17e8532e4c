import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudometric import (
    GenParams,
    PointMap,
    Space,
    as_dist,
    class_of,
    format_dist,
    is_metric,
    metric_reflection,
    random_space,
    saturate,
    validate_pseudometric,
    zero_classes,
)

from oracles import all_subsets, scan_axioms, small_spaces, validate_by_definition


def mk(labels, rows):
    return Space(tuple(labels), tuple(tuple(r) for r in rows))


TWO_CLASS = mk("abcd", [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
METRIC3 = mk("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
ALLZERO3 = mk("abc", [[0, 0, 0], [0, 0, 0], [0, 0, 0]])


seeded_spaces = st.builds(
    lambda seed, n, z: random_space(GenParams(seed=seed, n=n, zero_merge_prob=z)),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]),
)


class TestDist:
    def test_parses_strings_ints_fractions(self):
        assert as_dist("3/6") == Fraction(1, 2)
        assert as_dist(4) == 4
        assert as_dist(Fraction(7, 3)) == Fraction(7, 3)

    def test_fraction_is_built_once(self):
        half = Fraction(1, 2)
        assert as_dist(half) is half
        assert mk("ab", [[0, half], [half, 0]]).matrix[0][1] is half

    def test_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            as_dist(-1)
        with pytest.raises(TypeError):
            as_dist(0.5)

    def test_format_lowest_terms(self):
        assert format_dist(Fraction(4, 2)) == "2"
        assert format_dist(Fraction(3, 4)) == "3/4"


class TestValidate:
    def test_singleton_ok(self):
        assert validate_pseudometric(("a",), ((0,),)).ok

    def test_triangle_violation_witnesses(self):
        rows = [[0, 1, 1], [1, 0, 3], [1, 3, 0]]
        report = validate_pseudometric("abc", rows)
        assert not report.ok
        got = {(v.points, v.values) for v in report.violations if v.rule == "triangle"}
        assert got == {
            ((1, 0, 2), (Fraction(3), Fraction(1), Fraction(1))),
            ((2, 0, 1), (Fraction(3), Fraction(1), Fraction(1))),
        }
        assert {tuple(v.points) for v in report.violations} == set(
            scan_axioms(rows)["triangle"]
        )

    def test_zero_distance_pair_is_fine(self):
        assert validate_pseudometric("abc", [[0, 0, 1], [0, 0, 1], [1, 1, 0]]).ok

    def test_input_errors_are_not_violations(self):
        with pytest.raises(ValueError):
            validate_pseudometric("ab", [[0]])
        with pytest.raises(ValueError):
            validate_pseudometric("aa", [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            validate_pseudometric("ab", [[0, 1], [1]])

    def test_negative_and_asymmetry_reported(self):
        report = validate_pseudometric("ab", [[0, -1], [2, 0]])
        rules = {v.rule for v in report.violations}
        assert "negative" in rules and "symmetry" in rules

    def test_nonzero_diagonal_reported(self):
        report = validate_pseudometric("ab", [[1, 0], [0, 0]])
        assert any(v.rule == "diagonal" and v.points == (0,) for v in report.violations)

    def test_float_and_unparseable_entries_are_input_errors(self):
        with pytest.raises(ValueError, match=r"entry \(0,1\) is a float"):
            validate_pseudometric("ab", [[0, 0.5], [Fraction(1, 2), 0]])
        with pytest.raises(ValueError, match=r"entry \(1,0\) is not a rational"):
            validate_pseudometric("ab", [[0, 1], ["one", 0]])
        with pytest.raises(ValueError, match=r"entry \(1,1\) is not a rational"):
            validate_pseudometric("ab", [[0, 1], [1, None]])

    @pytest.mark.parametrize(
        "denominators",
        [(1,), (1, 2, 3, 4), (7, 11, 13), (97, 101, 103, 107)],
        ids=["integers", "small", "coprime", "large-lcm"],
    )
    def test_equals_reference_report(self, denominators):
        # Whole reports (rule order, witnesses and Fraction values) against
        # the Fraction loops, on raw matrices of mixed entry types with
        # negatives, asymmetry and nonzero diagonals, from n = 0 up.
        rng = random.Random(sum(denominators))
        kinds = (Fraction, str, lambda v: v.numerator if v.denominator == 1 else v)
        for t in range(160):
            n = t % 8
            sym = rng.random() < 0.5
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if sym and j < i:
                        v = Fraction(rows[j][i])
                    elif i == j and rng.random() < 0.8:
                        v = Fraction(0)
                    else:
                        v = Fraction(rng.randint(-2, 12), rng.choice(denominators))
                    rows[i][j] = rng.choice(kinds)(v)
            labels = [f"x{i}" for i in range(n)]
            report = validate_pseudometric(labels, rows)
            expected = validate_by_definition(labels, rows)
            assert report == expected
            assert repr(report) == repr(expected)

    def test_agrees_with_naive_scan_on_enumerated_family(self):
        # Every {0,1,2} assignment on up to 4 points, valid or not.
        import itertools

        for n in range(1, 5):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for combo in itertools.product((0, 1, 2), repeat=len(pairs)):
                rows = [[Fraction(0)] * n for _ in range(n)]
                for (i, j), v in zip(pairs, combo):
                    rows[i][j] = rows[j][i] = Fraction(v)
                report = validate_pseudometric("abcd"[:n], rows)
                oracle = scan_axioms(rows)
                assert report.ok == (not any(oracle.values()))
                assert {v.points for v in report.violations if v.rule == "triangle"} == set(
                    oracle["triangle"]
                )

    def test_agrees_with_naive_scan_on_corrupted_matrices(self):
        rng = random.Random(99)
        for _ in range(60):
            space = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(2, 5)))
            rows = [list(r) for r in space.matrix]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(space.n), rng.randrange(space.n)
                rows[i][j] = Fraction(rng.randint(-2, 6))
            report = validate_pseudometric(space.labels, rows)
            oracle = scan_axioms(rows)
            assert report.ok == (not any(oracle.values()))
            for rule in ("negative", "diagonal", "symmetry", "triangle"):
                assert {v.points for v in report.violations if v.rule == rule} == set(
                    oracle[rule]
                )


class TestSpace:
    def test_structural_checks(self):
        with pytest.raises(ValueError):
            Space(("a", "a"), ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            Space(("a",), ((0, 0),))
        with pytest.raises(ValueError):
            Space(("a", "b"), ((0, -1), (-1, 0)))
        for label in ("", 1):
            with pytest.raises(ValueError, match="labels must be nonempty strings"):
                Space((label,), ((0,),))
        with pytest.raises(ValueError, match="matrix has 1 rows, expected 2"):
            Space(("a", "b"), ((0, 1),))
        with pytest.raises(ValueError, match="map has 1 images, expected 4"):
            PointMap(TWO_CLASS, TWO_CLASS, (0,))

    @pytest.mark.parametrize("label", ["\ud800", "a\udcff"], ids=["high", "escaped-byte"])
    def test_label_without_utf8_form_rejected(self, label):
        with pytest.raises(ValueError, match="not encodable as UTF-8"):
            Space((label,), ((0,),))

    def test_broken_axioms_still_representable(self):
        space = mk("abc", [[0, 0, 1], [0, 0, 2], [1, 2, 0]])
        assert not space.validate().ok

    def test_label_index(self):
        assert TWO_CLASS.index("c") == 2
        with pytest.raises(ValueError):
            TWO_CLASS.index("z")


class TestIsMetric:
    def test_singleton(self):
        assert is_metric(mk("a", [[0]]))

    def test_zero_pair_is_not_metric(self):
        assert not is_metric(mk("ab", [[0, 0], [0, 0]]))

    def test_positive_distances(self):
        assert is_metric(mk("abc", [[0, 1, 1], [1, 0, 2], [1, 2, 0]]))


class TestZeroClasses:
    def test_indiscrete_space_single_block(self):
        assert [sorted(b) for b in zero_classes(ALLZERO3)] == [[0, 1, 2]]

    def test_metric_space_singletons(self):
        assert [sorted(b) for b in zero_classes(METRIC3)] == [[0], [1], [2]]

    def test_two_pair_blocks(self):
        assert [sorted(b) for b in zero_classes(TWO_CLASS)] == [[0, 1], [2, 3]]

    def test_intransitive_zeros_rejected(self):
        bad = mk("abc", [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            zero_classes(bad)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            zero_classes(mk("ab", [[1, 2], [2, 0]]))

    def test_computed_once_and_invisible_to_equality(self):
        space = mk("abcd", TWO_CLASS.matrix)
        part = zero_classes(space)
        assert zero_classes(space) is part
        assert space == TWO_CLASS and hash(space) == hash(TWO_CLASS)
        assert repr(space) == repr(TWO_CLASS)

    def test_block_lookup(self):
        assert metric_reflection(TWO_CLASS).projection.images == (0, 0, 1, 1)
        assert class_of(TWO_CLASS, 3) == {2, 3}
        assert class_of(TWO_CLASS, 3) is zero_classes(TWO_CLASS)[1]


def test_zero_classes_partition_every_space():
    # The invariants of the zero partition, checked on every zero pattern on
    # up to 4 points and on seeded random spaces with merged points.
    spaces = list(small_spaces(4))
    assert len(spaces) == 146
    spaces += [
        random_space(GenParams(seed=seed, n=1 + seed % 7, zero_merge_prob=Fraction(seed % 3, 3)))
        for seed in range(200)
    ]
    for s in spaces:
        blocks = zero_classes(s)
        assert type(blocks) is tuple and zero_classes(s) is blocks
        assert all(type(b) is frozenset and b for b in blocks)
        assert sum(map(len, blocks)) == s.n
        assert frozenset().union(*blocks) == set(range(s.n))
        assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)
        images = metric_reflection(s).projection.images
        for i in range(s.n):
            (k,) = [k for k, b in enumerate(blocks) if i in b]
            assert class_of(s, i) is blocks[k]
            assert images[i] == k


class TestClassOf:
    def test_metric_space_singleton(self):
        assert class_of(METRIC3, 1) == {1}

    def test_indiscrete(self):
        assert class_of(ALLZERO3, 1) == {0, 1, 2}

    def test_partner(self):
        assert class_of(TWO_CLASS, 1) == {0, 1}

    def test_matches_partition_block(self):
        for space in (TWO_CLASS, METRIC3, ALLZERO3):
            blocks = zero_classes(space)
            images = metric_reflection(space).projection.images
            for a in range(space.n):
                assert class_of(space, a) == blocks[images[a]]

    def test_classes_equal_or_disjoint(self):
        for space in small_spaces(3):
            for a in range(space.n):
                for b in range(space.n):
                    ca, cb = class_of(space, a), class_of(space, b)
                    assert ca == cb or not (ca & cb)


class TestSaturate:
    def test_empty(self):
        assert saturate(TWO_CLASS, frozenset()) == frozenset()

    def test_metric_identity(self):
        assert saturate(METRIC3, {0, 2}) == {0, 2}

    def test_grows_to_class(self):
        assert saturate(TWO_CLASS, {0}) == {0, 1}

    def test_closure_operator_laws_exhaustive(self):
        spaces = [
            TWO_CLASS,
            random_space(GenParams(seed=5, n=6, zero_merge_prob=Fraction(1, 2))),
            random_space(GenParams(seed=11, n=6, zero_merge_prob=Fraction(1, 3))),
        ]
        for space in spaces:
            n = space.n
            sats = {}
            for A in all_subsets(n):
                s = saturate(space, A)
                sats[A] = s
                assert A <= s
                assert saturate(space, s) == s
            for big in range(1 << n):
                sub = big
                while True:
                    A = frozenset(i for i in range(n) if sub >> i & 1)
                    B = frozenset(i for i in range(n) if big >> i & 1)
                    assert sats[A] <= sats[B]
                    if sub == 0:
                        break
                    sub = (sub - 1) & big


@settings(max_examples=60, deadline=None)
@given(seeded_spaces)
def test_zero_relation_is_an_equivalence(space):
    m = space.matrix
    n = space.n
    for i in range(n):
        assert m[i][i] == 0
        for j in range(n):
            assert (m[i][j] == 0) == (m[j][i] == 0)
            for k in range(n):
                if m[i][j] == 0 and m[j][k] == 0:
                    assert m[i][k] == 0
