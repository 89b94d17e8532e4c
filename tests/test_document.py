import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudometric import (
    DocumentError,
    GenParams,
    Space,
    emit_document,
    parse_document,
    random_space,
)
from pseudometric.document import parse_dist_literal

CANONICAL = """{
  "points": ["a", "b"],
  "d": [
    ["0", "1/2"],
    ["1/2", "0"]
  ]
}
"""


def test_canonical_round_trip_is_identity():
    assert emit_document(parse_document(CANONICAL)) == CANONICAL


def test_non_canonical_fractions_are_reduced():
    messy = '{"points": ["a", "b"], "d": [["0", "2/4"], ["3/6", "0/7"]]}'
    space = parse_document(messy)
    assert space.matrix[0][1] == Fraction(1, 2)
    assert space.matrix[1][1] == 0
    out = emit_document(space)
    assert '"2/4"' not in out and '"1/2"' in out
    assert emit_document(parse_document(out)) == out


def test_key_order_and_whitespace_do_not_matter():
    shuffled = '{"d":[["0","1"],["1","0"]],"points":["a","b"]}'
    assert emit_document(parse_document(shuffled)) == emit_document(
        parse_document('{"points": ["a", "b"], "d": [["0", "1"], ["1", "0"]]}')
    )


def test_empty_space_document():
    text = emit_document(Space((), ()))
    assert parse_document(text).n == 0
    assert emit_document(parse_document(text)) == text


def test_axiom_violations_survive_parsing():
    # parsing is structural; validation is a separate step
    space = parse_document('{"points": ["a", "b"], "d": [["0", "3"], ["2", "0"]]}')
    assert not space.validate().ok


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{", "line 1"),
        ("[1, 2]", "$"),
        ('{"points": ["a"]}', "$"),
        ('{"points": ["a"], "d": [["0"]], "extra": 1}', "$"),
        ('{"points": "a", "d": [["0"]]}', "points"),
        ('{"points": ["a", "a"], "d": [["0", "0"], ["0", "0"]]}', "points[1]"),
        ('{"points": [""], "d": [["0"]]}', "points[0]"),
        ('{"points": ["a", "b"], "d": [["0", "1"]]}', "d"),
        ('{"points": ["a"], "d": [["0", "1"]]}', "d[0]"),
        ('{"points": ["a", "b"], "d": [["0", "-1"], ["1", "0"]]}', "d[0][1]"),
        ('{"points": ["a"], "d": [["0.5"]]}', "d[0][0]"),
        ('{"points": ["a"], "d": [["1/0"]]}', "d[0][0]"),
        ('{"points": ["a"], "d": [["01"]]}', "d[0][0]"),
        ('{"points": ["a"], "d": [["1/02"]]}', "d[0][0]"),
        ('{"points": ["a"], "d": [[5]]}', "d[0][0]"),
        ('{"points": ["a"], "d": [["1\\n"]]}', "d[0][0]"),
        ('{"points": ["a"], "d": [["3/4\\n"]]}', "d[0][0]"),
        ('{"points": ["a"], "d": 5}', 'd: "d" must be an array'),
        ('{"points": ["a"], "d": [5]}', "d[0]: matrix row must be an array"),
        ('{"points": ["a"], "d": [[["0"]]]}', "d[0][0]: expected a distance string, got list"),
        ('{"points": ["a"], "d": [[{}]]}', "d[0][0]: expected a distance string, got dict"),
        ('{"points": ["a", "b"], "d": [["0", "1"], ["1", 0]]}', "d[1][1]"),
        ('{"points": ["a", "b"], "d": [["0", "1"], ["1", "01"]]}', "d[1][1]"),
        ('{"points": ["a"], "d": [["0"]], "d": [["1"]]}', "$: repeated members: ['d']"),
        ('{"points": ["a"], "points": ["b"], "d": [["0"]]}', "$: repeated members: ['points']"),
    ],
)
def test_malformed_documents_report_positions(text, fragment):
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert fragment in str(err.value)


def test_repeated_literals_parse_as_each_entry_alone():
    rng = random.Random(12)
    pool = ["0", "1", "2/4", "1/2", "3", "10/3", "20/6", "7/21", "123456789/1000"]
    n = 40
    d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    space = parse_document(json.dumps({"points": [f"p{i}" for i in range(n)], "d": d}))
    assert space.matrix == tuple(tuple(parse_dist_literal(v) for v in row) for row in d)
    # Equal literals share one Fraction.
    first: dict[str, Fraction] = {}
    for row, literals in zip(space.matrix, d):
        for x, literal in zip(row, literals):
            assert first.setdefault(literal, x) is x


@pytest.mark.parametrize(
    "label", ["\ud800", "a\udfffb", "\udcff"], ids=["high", "low-inside", "escaped-byte"]
)
def test_label_without_utf8_form_is_a_document_error(label):
    # Legal JSON (a lone surrogate escape), but no output stream can print it.
    text = json.dumps({"points": ["b", label], "d": [["0", "1"], ["1", "0"]]})
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == f"points[1]: label {label!r} is not encodable as UTF-8"


def test_duplicate_label_found_among_many():
    labels = [f"l{i}" for i in range(20_000)]
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps({"points": labels + ["l7"], "d": []}))
    assert str(err.value) == "points[20000]: duplicate label 'l7'"
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps({"points": labels, "d": []}))
    assert str(err.value) == 'd: "d" has 0 rows, expected 20000'


@pytest.mark.parametrize(
    "literal", ["1" * 5001, "1/" + "7" * 5001], ids=["numerator", "denominator"]
)
def test_overlong_literal_is_a_document_error(literal):
    # Longer than the interpreter's limit on digits per integer conversion.
    text = '{"points": ["a", "b"], "d": [["0", "%s"], ["1", "0"]]}' % literal
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == f"d[0][1]: distance literal too long ({len(literal)} characters)"


@pytest.mark.parametrize(
    "text",
    ['{"points": [%s], "d": [["0"]]}' % ("1" * 5000), '{"points": ["a"], "d": [[%s]]}' % ("1" * 5000)],
    ids=["points", "d"],
)
def test_overlong_json_number_is_a_document_error(text):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for a
    # JSON integer past the interpreter's limit on digits per conversion.
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.where == "$"
    assert str(err.value) == "$: JSON number too long"


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 7),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(3, 4)]),
)
def test_generated_spaces_round_trip(seed, n, zmp):
    space = random_space(GenParams(seed=seed, n=n, zero_merge_prob=zmp))
    text = emit_document(space)
    back = parse_document(text)
    assert back == space
    assert emit_document(back) == text


label_st = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(st.lists(label_st, min_size=1, max_size=4, unique=True), st.data())
def test_arbitrary_labels_and_fractions_round_trip(labels, data):
    n = len(labels)
    dist = st.builds(
        Fraction, st.integers(0, 40), st.integers(1, 12)
    )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(dist)
    space = Space(tuple(labels), tuple(tuple(r) for r in rows))
    text = emit_document(space)
    assert parse_document(text) == space
    assert emit_document(parse_document(text)) == text
