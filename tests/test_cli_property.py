"""The CLI's exit-code contract on hostile input, as a property.

Hypothesis (MacIver et al., JOSS 2019) draws pairs of documents with
arbitrary labels (lone surrogates, Unicode category Cs, included), malformed
distance literals, broken axioms, deep nesting and undecodable bytes, plus
arbitrary argument strings. Every subcommand runs on each draw in both
formats, with stdout a strict UTF-8 stream as a real terminal or pipe is.
The property: ``main`` returns 0, 1, 2 or 3 and raises nothing; on 0 or 1
structured output is JSON; every document printed by a gluing command
parses back.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pseudometric import parse_document
from pseudometric.cli import main
from pseudometric.fuzz import SUITES

any_text = st.text(
    st.one_of(st.characters(), st.characters(categories=("Cs",))), max_size=4
)
plain_label = st.sampled_from(["a", "b", "c", "é", "中"])
hostile_label = st.one_of(st.sampled_from(["\ud800", "\udcff", ""]), any_text)
bad_literal = st.one_of(
    any_text,
    st.sampled_from(["-1", "1/0", "0.5", "01", "9" * 5000, "7"]),
    st.integers(),
    st.none(),
    st.lists(st.just("0"), max_size=2),
)


@st.composite
def documents(draw) -> tuple[bytes, list[str]]:
    """Document bytes and the labels they name."""
    n = 4 - draw(st.integers(0, 4))  # small draws are the likeliest: most documents are not empty
    labels = draw(st.lists(plain_label, min_size=n, max_size=n, unique=True))
    if n and draw(st.booleans()):
        labels[draw(st.integers(0, n - 1))] = draw(hostile_label)
    # A pseudometric by construction: points in one class sit at 0, and
    # classes sit at 1, 3/2 or 2 apart, so every triangle holds.
    cls = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    gap = draw(st.lists(st.sampled_from(["1", "3/2", "2"]), min_size=9, max_size=9))
    d = [["0" if cls[i] == cls[j] else gap[3 * min(cls[i], cls[j]) + max(cls[i], cls[j])]
          for j in range(n)] for i in range(n)]
    if n and draw(st.integers(0, 3)) == 1:
        d[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(bad_literal)
    doc = {"points": labels, "d": d}
    shape = "doc"
    if draw(st.integers(0, 3)) == 1:
        shape = draw(st.sampled_from(["extra", "no-d", "list", "deep", "cut", "bytes"]))
    if shape == "extra":
        doc["x"] = 1
    elif shape == "no-d":
        del doc["d"]
    elif shape == "list":
        doc = [labels, d]
    text = json.dumps(doc).encode()
    if shape == "deep":
        text = b"[" * 100_000
    elif shape == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif shape == "bytes":
        text = text[:1] + b"\xff" + text[1:]
    return text, labels


@st.composite
def invocations(draw) -> tuple[bytes, bytes, dict[str, list[str]]]:
    """Two documents and arguments for every subcommand; FILE1 and FILE2 name them."""
    doc1, labels = draw(documents())
    # The same document twice makes the pair commands find witnesses.
    doc2 = draw(st.one_of(st.just(doc1), documents().map(lambda d: d[0])))
    # Arguments name the document's labels, or not, or are hostile text.
    named = st.sampled_from(labels) if labels else plain_label
    arg = st.one_of(named, plain_label, hostile_label, st.sampled_from(["a,b", "a=a,b=b"]))
    pair_option = st.one_of(st.just([]), arg.map(lambda a: ["--embedding", a]))
    return doc1, doc2, {
        "validate": ["FILE1"],
        "reflect": ["FILE1"],
        "topology": ["FILE1", "--set", draw(arg)]
        + draw(st.sampled_from([[], ["--op", "closure"], ["--op", "is-open"]])),
        "isometric": ["FILE1", "FILE2"],
        "pseudoisometric": ["FILE1", "FILE2"] + draw(st.sampled_from([[], ["--oracle"]])),
        "cec": ["FILE1", "FILE2"] + draw(pair_option),
        "glue-zero": [
            "FILE1", "--center", draw(st.one_of(named, arg)),
            "--label", draw(st.one_of(st.just("new"), arg)),
        ],
        "complete-glue": ["FILE1", "FILE2"] + draw(pair_option),
        "fuzz": [
            "--seed", str(draw(st.integers(-2, 3))),
            "--count", str(draw(st.integers(-1, 2))),
            "--max-n", str(draw(st.integers(0, 3))),
            "--suite", draw(st.sampled_from(("all",) + SUITES)),
        ],
    }


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", write_through=True)
    err = io.TextIOWrapper(
        io.BytesIO(), encoding="utf-8", errors="backslashreplace", write_through=True
    )
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue().decode("utf-8")


# The reproduction: lone surrogate labels (legal JSON) in a valid and in a
# broken document, and an undecodable --label byte, which reaches Python as
# a lone surrogate.
SURROGATES = (
    b'{"points": ["\\ud800", "b"], "d": [["0", "1"], ["1", "0"]]}',
    b'{"points": ["\\ud800", "b", "c"], "d": [["0", "1", "1"], ["1", "0", "3"], ["1", "3", "0"]]}',
    {
        "reflect": ["FILE1"],
        "validate": ["FILE2"],
        "glue-zero": ["FILE1", "--center", "b", "--label", "\udcff"],
    },
)


@settings(
    max_examples=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(invocations())
@example(SURROGATES)
def test_exit_code_contract_on_hostile_input(tmp_path, case):
    doc1, doc2, commands = case
    files = {"FILE1": tmp_path / "one.json", "FILE2": tmp_path / "two.json"}
    files["FILE1"].write_bytes(doc1)
    files["FILE2"].write_bytes(doc2)
    for command, args in commands.items():
        argv = [command, *(str(files.get(a, a)) for a in args)]
        for fmt in ("plain", "structured"):
            code, out = _run(argv + ["--format", fmt])
            assert code in (0, 1, 2, 3), (command, fmt, code)
            if code in (0, 1) and fmt == "structured":
                json.loads(out)
            if code == 0 and command in ("glue-zero", "complete-glue"):
                parse_document(out)
