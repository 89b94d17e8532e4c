import itertools
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudometric import core
from pseudometric import (
    GenParams,
    PointMap,
    Space,
    as_dist,
    class_of,
    completion_glue,
    format_dist,
    glue_zero_point,
    in_cec,
    is_metric,
    metric_reflection,
    open_ball,
    random_space,
    random_superspace,
    run_fuzz,
    saturate,
    validate_pseudometric,
    zero_classes,
)

from oracles import (
    all_subsets,
    small_spaces,
    validate_by_definition,
    without_form,
    zero_classes_by_definition,
)


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
        assert as_dist("1e3") == 1000
        # Exponent notation reads up to the interpreter's digit limit (the
        # least nonzero one is 640), and without bound when the limit is 0.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert as_dist("1E+640") == 10**640
            assert as_dist(Decimal("1e-640")) == Fraction(1, 10**640)
            # A Decimal of exactly the limit's digits still reads.
            assert as_dist(Decimal("1" * 640)) == int("1" * 640)
            with pytest.raises(ValueError, match="not a rational number"):
                as_dist("1e641")
            sys.set_int_max_str_digits(0)
            assert as_dist("1e3") == 1000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_fraction_is_built_once(self):
        half = Fraction(1, 2)
        assert as_dist(half) is half
        assert mk("ab", [[0, half], [half, 0]]).matrix[0][1] is half

    def test_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            as_dist(-1)
        with pytest.raises(TypeError):
            as_dist(0.5)
        for unreadable in (
            "1/0", None, "x", Decimal("Infinity"), Decimal("-Infinity"),
            # Exponent notation past the interpreter's digit limit.
            "1e1000000", "1e-1000000", Decimal("1e1000000"),
            # A Decimal coefficient one digit past it.
            Decimal("1" * (sys.get_int_max_str_digits() + 1)),
        ):
            with pytest.raises(ValueError, match="not a rational number"):
                as_dist(unreadable)
        with pytest.raises(ValueError, match="not a rational number"):
            Space(("a",), [["1/0"]])
        infinity = Decimal("Infinity")
        with pytest.raises(ValueError, match="not a rational number: Decimal"):
            Space(("a", "b"), [[0, infinity], [infinity, 0]])
        with pytest.raises(ValueError, match="not a rational number: Decimal"):
            open_ball(METRIC3, 0, -infinity)

    def test_rejects_bool_as_a_float_is_rejected(self):
        # A bool is a flag, not a distance, wherever a float is refused.
        message = "bool distances are not allowed; pass int, str or Fraction"
        for flag in (True, False):
            with pytest.raises(TypeError) as caught:
                as_dist(flag)
            assert str(caught.value) == message
        with pytest.raises(TypeError, match=message):
            Space(("a", "b"), ((False, True), (True, False)))
        with pytest.raises(TypeError, match=message):
            open_ball(METRIC3, 0, True)
        with pytest.raises(TypeError) as caught:
            as_dist(0.5)
        assert str(caught.value) == "float distances are not allowed; pass int, str or Fraction"

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
        assert report == validate_by_definition("abc", rows)

    def test_zero_distance_pair_is_fine(self):
        assert validate_pseudometric("abc", [[0, 0, 1], [0, 0, 1], [1, 1, 0]]).ok

    def test_input_errors_are_not_violations(self):
        with pytest.raises(ValueError):
            validate_pseudometric("ab", [[0]])
        with pytest.raises(ValueError):
            validate_pseudometric("aa", [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            validate_pseudometric("ab", [[0, 1], [1]])

    @pytest.mark.parametrize(
        "labels, message",
        [
            ((1, ""), "labels must be nonempty strings, got 1"),
            (("a", ""), "labels must be nonempty strings, got ''"),
            (("", ""), "labels must be nonempty strings, got ''"),
            (("a", "\ud800"), "label '\\ud800' is not encodable as UTF-8"),
            (("a", "a"), "duplicate labels"),
        ],
        ids=["int", "empty", "empty-twice", "surrogate", "duplicate"],
    )
    def test_labels_follow_the_space_rule(self, labels, message):
        # The raw-matrix check accepts exactly the labels a Space can hold,
        # with the same first error.
        rows = [[0, 1], [1, 0]]
        with pytest.raises(ValueError) as from_space:
            Space(labels, rows)
        with pytest.raises(ValueError) as from_validate:
            validate_pseudometric(labels, rows)
        assert str(from_validate.value) == str(from_space.value) == message

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
        with pytest.raises(ValueError, match=r"entry \(0,1\) is not a rational"):
            validate_pseudometric("ab", [[0, Decimal("Infinity")], [1, 0]])
        with pytest.raises(ValueError, match=r"entry \(1,0\) is not a rational"):
            validate_pseudometric("ab", [[0, 1], ["1e1000000", 0]])
        digits = Decimal("1" * (sys.get_int_max_str_digits() + 1))
        with pytest.raises(ValueError, match=r"entry \(0,1\) is not a rational"):
            validate_pseudometric("ab", [[0, digits], [1, 0]])

    def test_bool_entries_are_input_errors(self):
        for rows, message in [
            ([[0, True], [1, 0]], "entry (0,1) is a bool; distances must be exact rationals"),
            ([[False, 1], [1, 0]], "entry (0,0) is a bool; distances must be exact rationals"),
            ([[0, 1], [0.5, 0]], "entry (1,0) is a float; distances must be exact rationals"),
        ]:
            with pytest.raises(ValueError) as caught:
                validate_pseudometric("ab", rows)
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "labels, matrix, message",
        [
            (("a", "b"), ["01", "10"], "matrix row 0 must be a sequence of entries, got '01'"),
            (("a", "b"), [[0, 1], b"10"], "matrix row 1 must be a sequence of entries, got b'10'"),
            (("a",), "0", "matrix must be a sequence of rows, got '0'"),
            (("a",), b"0", "matrix must be a sequence of rows, got b'0'"),
            ((), "", "matrix must be a sequence of rows, got ''"),
        ],
        ids=["str-rows", "bytes-row", "str-matrix", "bytes-matrix", "empty-str"],
    )
    def test_string_rows_are_refused(self, labels, matrix, message):
        # A string is a sequence of characters, not of entries: both entry
        # points refuse it with the same error instead of reading "01" as 0, 1.
        with pytest.raises(ValueError) as from_space:
            Space(labels, matrix)
        with pytest.raises(ValueError) as from_validate:
            validate_pseudometric(labels, matrix)
        assert str(from_validate.value) == str(from_space.value) == message

    @pytest.mark.parametrize(
        "labels, matrix, prefix",
        [
            (
                ("a", "b"),
                (bytearray(b"\x00\x01"), bytearray(b"\x01\x00")),
                "matrix row 0 must be a sequence of entries, got bytearray(",
            ),
            (
                ("a", "b"),
                [[0, 1], memoryview(b"\x01\x00")],
                "matrix row 1 must be a sequence of entries, got <memory at ",
            ),
            (("a",), [5], "matrix row 0 must be a sequence of entries, got 5"),
            (("a",), None, "matrix must be a sequence of rows, got None"),
            (("a",), iter([[0]]), "matrix must be a sequence of rows, got <list_iterator "),
            (
                {"a", "b", "c"},
                ((0, 1, 2), (1, 0, 1), (2, 1, 0)),
                "labels must be ordered, got a set",
            ),
            (frozenset("ab"), [[0, 1], [1, 0]], "labels must be ordered, got a frozenset"),
            ({"a": 1, "b": 0}, [[0, 1], [1, 0]], "labels must be ordered, got a dict"),
        ],
        ids=[
            "bytearray-rows", "memoryview-row", "int-row", "none-matrix", "iterator-matrix",
            "set-labels", "frozenset-labels", "dict-labels",
        ],
    )
    def test_matrix_and_rows_are_lists_or_tuples(self, labels, matrix, prefix):
        # A buffer is a sequence of byte values, and anything else is not a
        # matrix or a row at all; a set of labels has no order but its hash
        # order, and a dict would give its keys. Both entry points refuse each with the same ValueError,
        # instead of reading bytes as distances, raising a bare TypeError or
        # building a different space under another hash seed.
        with pytest.raises(ValueError) as from_space:
            Space(labels, matrix)
        with pytest.raises(ValueError) as from_validate:
            validate_pseudometric(labels, matrix)
        assert str(from_validate.value) == str(from_space.value)
        assert str(from_space.value).startswith(prefix)

    def test_whole_report_on_every_small_matrix(self):
        # Every 2-point matrix over {-1, 0, 1/2, 1, 2} and every 3-point
        # matrix over {0, 1, 2} with a zero diagonal, asymmetric ones
        # included: the whole report (rules, order, witnesses, values)
        # equals the Fraction loops', so both triangle screens and the rule
        # order meet every small case. Mixed rows take the entry-by-entry path.
        matrices = [
            [e[:2], e[2:]] for e in itertools.product((-1, 0, Fraction(1, 2), 1, 2), repeat=4)
        ] + [
            [[0, a, b], [c, 0, d], [e, f, 0]]
            for a, b, c, d, e, f in itertools.product((0, 1, 2), repeat=6)
        ]
        assert len(matrices) == 625 + 729
        for rows in matrices:
            labels = ("a", "b", "c")[: len(rows)]
            report = validate_pseudometric(labels, rows)
            expected = validate_by_definition(labels, rows)
            assert report == expected
            assert repr(report) == repr(expected)

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
                assert report == validate_by_definition("abcd"[:n], rows)

    def test_agrees_with_naive_scan_on_corrupted_matrices(self):
        rng = random.Random(99)
        for _ in range(60):
            space = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(2, 5)))
            rows = [list(r) for r in space.matrix]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(space.n), rng.randrange(space.n)
                rows[i][j] = Fraction(rng.randint(-2, 6))
            report = validate_pseudometric(space.labels, rows)
            assert report == validate_by_definition(space.labels, rows)


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
        # Images are read in the caller's order: a set has none, and a dict
        # would give its keys, so a reversal would read as the identity.
        with pytest.raises(ValueError, match="^images must be ordered, got a set$"):
            PointMap(TWO_CLASS, TWO_CLASS, {3, 2, 1, 0})
        with pytest.raises(ValueError, match="^images must be ordered, got a dict$"):
            PointMap(TWO_CLASS, TWO_CLASS, {0: 3, 1: 2, 2: 1, 3: 0})

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


def naive_mismatches(m):
    # Every pair i < j whose distance the map changes, one entry at a time.
    dm, cm, images = m.domain.matrix, m.codomain.matrix, m.images
    return [
        (i, j, dm[i][j], cm[images[i]][images[j]])
        for i in range(m.domain.n)
        for j in range(i + 1, m.domain.n)
        if cm[images[i]][images[j]] != dm[i][j]
    ]


class TestDistanceMismatches:
    def test_agrees_with_the_pairwise_loop(self):
        # Codomains that break symmetry and the triangle inequality; domains
        # that share the codomain's entries (a pullback), or hold equal but
        # distinct Fractions, or other values, entry by entry.
        rng = random.Random(34)
        seen = set()
        for _ in range(300):
            k = rng.randint(1, 5)
            codomain = mk(
                [f"c{u}" for u in range(k)],
                [[Fraction(rng.randint(1, 4) * (u != v)) for v in range(k)] for u in range(k)],
            )
            n = rng.randint(1, 5)
            images = tuple(rng.randrange(k) for _ in range(n))
            rows = [[codomain.matrix[images[i]][images[j]] for j in range(n)] for i in range(n)]
            for i, j in itertools.product(range(n), repeat=2):
                pick = rng.randrange(3)
                if pick == 1:
                    v = rows[i][j]
                    rows[i][j] = Fraction(v.numerator, v.denominator)  # equal, another object
                elif pick == 2:
                    rows[i][j] = Fraction(rng.randint(0, 4))
            m = PointMap(mk([f"d{i}" for i in range(n)], rows), codomain, images)
            got = list(core._distance_mismatches(m))
            want = naive_mismatches(m)
            assert got == want, (m, got, want)
            # The very objects of both matrices, not equal copies.
            assert all(a is b for g, w in zip(got, want) for a, b in zip(g, w))
            seen.add(bool(got))
        assert seen == {False, True}

    def test_equal_distinct_entries_are_no_mismatch(self):
        codomain = mk("uvw", [[0, 1, 2], [3, 0, 1], [1, 1, 0]])
        rows = [[Fraction(v.numerator) for v in row] for row in codomain.matrix]
        m = PointMap(mk("uvw", rows), codomain, (0, 1, 2))
        assert all(a is not b for a, b in zip(m.domain.matrix[0][1:], codomain.matrix[0][1:]))
        assert list(core._distance_mismatches(m)) == []
        # A row that differs is walked in j order, past its equal entries.
        rows[0][2] = Fraction(5)
        m = PointMap(mk("uvw", rows), codomain, (0, 1, 2))
        assert list(core._distance_mismatches(m)) == [(0, 2, Fraction(5), Fraction(2))]


class TestPullback:
    def test_anchored_radii_add_up_on_both_sides_of_the_diagonal(self):
        # Points 3 to 6 are anchored to 0, 2, 0 and 1 at radii 1/2, 0, 1/3
        # and 2: an anchored pair sits at d(a, a') + r + r', an anchored
        # point and an original one at d(a, p) + r, and the diagonal at 0.
        points = [0, 1, 2, 0, 2, 0, 1]
        radii = [Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(2)]
        r = [Fraction(0)] * 3 + radii
        space = core._pullback(METRIC3, points, [f"p{i}" for i in range(7)], radii)
        for i, j in itertools.product(range(7), repeat=2):
            d = METRIC3.matrix[points[i]][points[j]]
            assert space.matrix[i][j] == (0 if i == j else d + r[i] + r[j]), (i, j)
        assert space.matrix[3][5] == space.matrix[5][3] == Fraction(5, 6)
        assert space.matrix[3][6] == space.matrix[6][3] == Fraction(7, 2)
        assert space.matrix[4][5] == space.matrix[5][4] == Fraction(7, 3)
        assert space.validate().ok

    def test_carried_form_follows_radii_to_new_scales(self):
        # Radii 1/5 and 2/7 take a generated space's scale 12 to 420, and a
        # second pullback with radius 1/11 takes that to 4620; a radius of
        # 3/4 then keeps 4620, and a plain reorder keeps its parent's scale.
        parent = random_space(GenParams(seed=3, n=4))
        child = core._pullback(
            parent, [0, 1, 2, 3, 2, 0], [f"c{i}" for i in range(6)], [Fraction(1, 5), Fraction(2, 7)]
        )
        grand = core._pullback(
            child, [5, 4, 3, 1, 4], [f"g{i}" for i in range(5)], [Fraction(0), Fraction(1, 11)]
        )
        kept = core._pullback(grand, [4, 0, 2], "xyz", [Fraction(3, 4)])
        reordered = core._pullback(parent, [2, 0, 3, 1], "wxyz")
        for space, scale in ((parent, 12), (child, 420), (grand, 4620), (kept, 4620), (reordered, 12)):
            assert space._form[0] == scale
            assert_carries_its_matrix(space)
            assert space.validate().ok
        assert child.matrix[4][5] == child.matrix[2][0] + Fraction(1, 5) + Fraction(2, 7)


def assert_carries_its_matrix(space):
    # The carried (L, rows) is the matrix at scale L, entry by entry, in ints.
    scale, rows = space._form
    assert type(scale) is int and scale > 0
    assert [[type(v) for v in row] for row in rows] == [[int] * space.n] * space.n
    assert [list(row) for row in rows] == [[v * scale for v in row] for row in space.matrix]


@pytest.mark.parametrize("seed", [0, 1])
def test_every_space_the_suites_build_carries_its_matrix(seed, monkeypatch):
    # Every space the fuzz suites draw or derive (twins, clones, permuted
    # copies, quotients, superspaces and gluings) carries its int form.
    from pseudometric import constructions, fuzz

    built = []

    def spy(build):
        def building(*args):
            built.append(build(*args))
            return built[-1]

        return building

    for module in (core, constructions, fuzz):
        monkeypatch.setattr(module, "_pullback", spy(core._pullback))
    monkeypatch.setattr(fuzz, "_space", spy(fuzz._space))
    assert run_fuzz(seed, 20, 6).ok
    assert len(built) > 250
    for space in built:
        assert_carries_its_matrix(space)


def suite_kind_embeddings(count, seed):
    # Superspace inclusions of the kinds the fuzz constructions suite builds,
    # over generated spaces: a zero twin, a generated superspace, a
    # reflection's metric extension and its gluing, and a superspace with
    # one radius of another denominator, so at another scale.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        y = random_space(GenParams(seed=rng.getrandbits(63), n=n, zero_merge_prob=Fraction(1, 3)))
        yield glue_zero_point(y, rng.randrange(n), "twin")
        params = GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 3), zero_merge_prob=Fraction(1, 2))
        yield random_superspace(y, params, force_cec=bool(rng.randrange(2)))
        params = GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 2))
        extension = random_superspace(metric_reflection(y).quotient, params, force_cec=True)
        yield extension
        yield completion_glue(y, extension)
        radius = Fraction(rng.randint(0, 3), rng.randint(1, 9))
        z = core._pullback(y, [*range(n), rng.randrange(n)], [*y.labels, "r"], [radius])
        yield PointMap(y, z, tuple(range(n)))


def test_carried_form_gives_the_answers_of_the_fraction_matrix():
    # Validation reads the carried int form; a parsed copy, which carries
    # none, scales its Fractions. Zero classes and in_cec agree on both.
    embeddings = list(suite_kind_embeddings(40, 35))
    metric, cec, scales = set(), set(), set()
    for e in embeddings:
        for space in (e.domain, e.codomain):
            copy = without_form(space)
            report = space.validate()
            assert report == copy.validate() == validate_pseudometric(space.labels, space.matrix)
            assert report.ok
            assert zero_classes(space) == zero_classes(copy)
            metric.add(is_metric(space))
            scales.add(space._form[0])
        cec.add(in_cec(e))
        assert in_cec(e) == in_cec(PointMap(without_form(e.domain), without_form(e.codomain), e.images))
    assert len(embeddings) == 200
    assert metric == cec == {False, True}
    assert len(scales) > 2


def test_carried_form_reports_what_the_fraction_matrix_breaks():
    # A matrix that breaks the diagonal, symmetry and triangle rules, given
    # its int form by hand: the report quotes the very Fraction entries.
    rows = [
        [Fraction(1, 3), 1, 5, 0],
        [1, 0, Fraction(1, 2), 1],
        [5, Fraction(2, 3), 0, 1],
        [0, 1, 1, 0],
    ]
    broken = mk("abcd", rows)
    want = validate_pseudometric(broken.labels, broken.matrix)
    broken.__dict__["_form"] = (6, [[int(v * 6) for v in row] for row in broken.matrix])
    report = broken.validate()
    assert report == want
    assert {v.rule for v in report.violations} == {"diagonal", "symmetry", "triangle"}
    entries = [v for row in broken.matrix for v in row]
    for v in report.violations:
        assert all(any(value is entry for entry in entries) for value in v.values)


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
        with pytest.raises(ValueError, match="not transitive"):
            zero_classes(bad)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="not reflexive"):
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


def _broken_rules(z):
    # The equivalence rules the zero relation ``z[i][j]`` breaks.
    pts = range(len(z))
    broken = set()
    if not all(z[i][i] for i in pts):
        broken.add("reflexive")
    if any(z[i][j] != z[j][i] for i in pts for j in pts):
        broken.add("symmetric")
    if any(z[i][j] and z[j][k] and not z[i][k] for i in pts for j in pts for k in pts):
        broken.add("transitive")
    return broken


def _check_zero_pattern(rows):
    # zero_classes raises exactly when the zero relation is not an
    # equivalence, and the error names a rule the relation breaks; a
    # "reflexive" or "symmetric" error names a pair that witnesses it. On an
    # equivalence the classes are the definition's, and class_of reads them.
    z = [[v == 0 for v in row] for row in rows]
    broken = _broken_rules(z)
    space = mk("abcdef"[:len(rows)], rows)
    if not broken:
        blocks = zero_classes(space)
        assert blocks == zero_classes_by_definition(space.matrix)
        for i in range(space.n):
            assert class_of(space, i) is next(b for b in blocks if i in b)
        return False
    with pytest.raises(ValueError) as info:
        zero_classes(space)
    rule, a, b = re.match(
        r"zero-distance relation is not (\w+): d\((\w),(\w)\) = ", str(info.value)
    ).groups()
    assert rule in broken, (rows, str(info.value))
    i, j = space.index(a), space.index(b)
    if rule == "reflexive":
        assert i == j and not z[i][i]
    elif rule == "symmetric":
        assert z[i][j] != z[j][i]
    return True


def test_zero_pattern_error_names_a_rule_it_breaks():
    # Every zero/one matrix on 1-3 points.
    count = 0
    for n in range(1, 4):
        for bits in itertools.product((0, 1), repeat=n * n):
            count += 1
            _check_zero_pattern([bits[i * n:(i + 1) * n] for i in range(n)])
    assert count == 530


def test_seeded_zero_patterns_on_4_to_6_points():
    # Planted partitions, some with one to three entries flipped between 0
    # and 1, so that equivalences and near misses of every rule both occur.
    rng = random.Random(17)
    verdicts = []
    for _ in range(3000):
        n = rng.randint(4, 6)
        k = rng.randint(1, n)
        cls = [rng.randrange(k) for _ in range(n)]
        rows = [[int(cls[i] != cls[j]) for j in range(n)] for i in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = 1 - rows[i][j]
        verdicts.append(_check_zero_pattern(rows))
    assert 1000 < sum(verdicts) < 2500


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
