import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pseudometric import cli, parse_document
from pseudometric.cli import main

METRIC_PAIR = """{
  "points": ["a", "b"],
  "d": [
    ["0", "1"],
    ["1", "0"]
  ]
}
"""

FAR_PAIR = """{
  "points": ["x", "y"],
  "d": [
    ["0", "2"],
    ["2", "0"]
  ]
}
"""

TWO_CLASS = """{
  "points": ["a", "b", "c", "d"],
  "d": [
    ["0", "0", "1", "1"],
    ["0", "0", "1", "1"],
    ["1", "1", "0", "0"],
    ["1", "1", "0", "0"]
  ]
}
"""

BROKEN = """{
  "points": ["a", "b", "c"],
  "d": [
    ["0", "1", "1"],
    ["1", "0", "3"],
    ["1", "3", "0"]
  ]
}
"""

# Labels out of alphabetical order: structured output sorts label lists,
# plain output keeps index order.
UNSORTED = """{
  "points": ["z", "a", "m"],
  "d": [
    ["0", "0", "1"],
    ["0", "0", "1"],
    ["1", "1", "0"]
  ]
}
"""

PAIR_SUPERSPACE = """{
  "points": ["a", "b", "z"],
  "d": [
    ["0", "1", "2"],
    ["1", "0", "2"],
    ["2", "2", "0"]
  ]
}
"""

EMPTY = """{
  "points": [],
  "d": []
}
"""


@pytest.fixture
def docs(tmp_path):
    files = {}
    for name, text in {
        "pair": METRIC_PAIR,
        "far": FAR_PAIR,
        "classes": TWO_CLASS,
        "broken": BROKEN,
        "unsorted": UNSORTED,
        "sup": PAIR_SUPERSPACE,
        "empty": EMPTY,
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        files[name] = str(path)
    return files


class TestValidate:
    def test_valid_document(self, docs, capsys):
        assert main(["validate", docs["pair"]]) == 0
        assert "ok" in capsys.readouterr().out

    def test_singleton_document(self, tmp_path, capsys):
        doc = tmp_path / "one.json"
        doc.write_text('{"points": ["a"], "d": [["0"]]}', encoding="utf-8")
        assert main(["validate", str(doc)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_axiom_violation_exits_one(self, docs, capsys):
        assert main(["validate", docs["broken"]]) == 1
        out = capsys.readouterr().out
        assert "triangle" in out and "(b,a,c)" in out

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/nope.json"]) == 2

    def test_undecodable_file_is_named(self, docs, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"points": ["\xff"], "d": [["0"]]}')
        assert main(["isometric", docs["pair"], str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_parse_error_names_its_file(self, docs, tmp_path, capsys):
        bad = tmp_path / "oops.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["isometric", docs["pair"], str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1, column 2: ")

    def test_deep_nesting_exits_two_without_traceback(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        assert main(["validate", str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err

    def test_overlong_json_number_names_its_file(self, tmp_path, capsys):
        long = tmp_path / "long.json"
        long.write_text('{"points": ["a"], "d": [[%s]]}' % ("1" * 5000), encoding="utf-8")
        assert main(["validate", str(long)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {long}: $: JSON number too long\n"

    def test_structured_output(self, docs, capsys):
        assert main(["validate", docs["classes"], "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["metric"] is False


class TestReflect:
    def test_quotient_document_and_projection(self, docs, capsys):
        assert main(["reflect", docs["classes"]]) == 0
        out = capsys.readouterr().out
        doc, _, table = out.partition("\n\n")
        space = parse_document(doc + "\n")
        assert space.labels == ("a", "c")
        assert "b -> a" in table

    def test_invalid_space_exits_two(self, docs, capsys):
        assert main(["reflect", docs["broken"]]) == 2

    def test_structured(self, docs, capsys):
        assert main(["reflect", docs["classes"], "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quotient"]["points"] == ["a", "c"]
        assert payload["projection"]["d"] == "c"


class TestTopology:
    def test_all_ops_by_default(self, docs, capsys):
        assert main(["topology", docs["classes"], "--set", "a"]) == 0
        out = capsys.readouterr().out
        assert "closure: {a, b}" in out
        assert "boundary: {a, b}" in out
        assert "is-open: false" in out

    def test_predicate_exit_codes(self, docs):
        assert main(["topology", docs["classes"], "--set", "a,b", "--op", "is-open"]) == 0
        assert main(["topology", docs["classes"], "--set", "a", "--op", "is-open"]) == 1

    def test_empty_set(self, docs, capsys):
        assert main(["topology", docs["classes"], "--set", "", "--op", "closure"]) == 0
        assert "closure: {}" in capsys.readouterr().out

    def test_unknown_label_exits_two(self, docs):
        assert main(["topology", docs["classes"], "--set", "zz", "--op", "closure"]) == 2

    def test_ops_are_looked_up_by_name_per_call(self, docs, monkeypatch):
        # A rebound op in this module is the one that runs, so a tracer that
        # rebinds these names sees every call.
        names = ["closure", "interior", "boundary", "is_open", "is_closed"]
        calls = []
        for name in names:
            spy = lambda s, a, name=name, op=getattr(cli, name): calls.append(name) or op(s, a)
            monkeypatch.setattr(cli, name, spy)
        assert main(["topology", docs["classes"], "--set", "a"]) == 0
        assert sorted(calls) == sorted(names)
        calls.clear()
        assert main(["topology", docs["classes"], "--set", "a", "--op", "is-open"]) == 1
        assert calls == ["is_open"]


class TestMorphismCommands:
    def test_isometric_none(self, docs, capsys):
        assert main(["isometric", docs["pair"], docs["far"]]) == 1
        assert capsys.readouterr().out.strip() == "none"

    def test_isometric_found(self, docs, capsys):
        assert main(["isometric", docs["pair"], docs["pair"]]) == 0
        assert "a -> a" in capsys.readouterr().out

    def test_isometric_rejects_pseudometric(self, docs):
        assert main(["isometric", docs["classes"], docs["pair"]]) == 2

    def test_search_over_its_node_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        # Rook 4x4 against Shrikhande: exhausting the search takes 4,096 nodes.
        cells = [(a, b) for a in range(4) for b in range(4)]
        steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
        graphs = {
            "rook": lambda p, q: (p[0] == q[0]) != (p[1] == q[1]),
            "shrikhande": lambda p, q: ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in steps,
        }
        paths = []
        for name, adjacent in graphs.items():
            rows = [["0" if p == q else "1" if adjacent(p, q) else "2" for q in cells] for p in cells]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"points": [f"v{i}" for i in range(16)], "d": rows}))
            paths.append(str(path))
        monkeypatch.setattr("pseudometric.morphisms._NODE_CAP", 4095)
        assert main(["isometric", *paths]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: isometry search exceeds the cap of 4095 nodes\n"
        monkeypatch.setattr("pseudometric.morphisms._NODE_CAP", 4096)
        assert main(["isometric", *paths]) == 1

    def test_pseudoisometric_found(self, docs, capsys):
        assert main(["pseudoisometric", docs["classes"], docs["pair"]]) == 0
        out = capsys.readouterr().out
        assert "a -> a" in out and "c -> b" in out

    def test_pseudoisometric_oracle_agrees(self, docs, capsys):
        assert main(["pseudoisometric", docs["classes"], docs["pair"], "--oracle"]) == 0
        capsys.readouterr()
        assert main(["pseudoisometric", docs["pair"], docs["far"], "--oracle"]) == 1

    def test_structured_witness(self, docs, capsys):
        assert main(
            ["pseudoisometric", docs["classes"], docs["pair"], "--format", "structured"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert payload["map"]["b"] == "a"


class TestCecCommand:
    def test_in_cec_by_label_matching(self, docs, tmp_path, capsys):
        sup = tmp_path / "sup.json"
        sup.write_text(
            '{"points": ["a", "b", "z"], "d": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}',
            encoding="utf-8",
        )
        assert main(["cec", docs["pair"], str(sup)]) == 0
        assert "in CEC" in capsys.readouterr().out

    def test_not_in_cec(self, docs, tmp_path, capsys):
        sup = tmp_path / "sup.json"
        sup.write_text(
            '{"points": ["a", "b", "z"], "d": [["0", "1", "0"], ["1", "0", "1"], ["0", "1", "0"]]}',
            encoding="utf-8",
        )
        assert main(["cec", docs["pair"], str(sup)]) == 1
        assert "not in CEC" in capsys.readouterr().out

    def test_explicit_embedding(self, docs, tmp_path):
        sup = tmp_path / "sup.json"
        sup.write_text(
            '{"points": ["u", "v", "z"], "d": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}',
            encoding="utf-8",
        )
        assert main(["cec", docs["pair"], str(sup), "--embedding", "a=u,b=v"]) == 0

    def test_distorting_embedding_exits_two(self, docs, tmp_path):
        sup = tmp_path / "sup.json"
        sup.write_text(
            '{"points": ["u", "v"], "d": [["0", "5"], ["5", "0"]]}', encoding="utf-8"
        )
        assert main(["cec", docs["pair"], str(sup), "--embedding", "a=u,b=v"]) == 2

    def test_embedding_that_misses_a_point_exits_two(self, docs, tmp_path, capsys):
        sup = tmp_path / "sup.json"
        sup.write_text(
            '{"points": ["u", "v"], "d": [["0", "1"], ["1", "0"]]}', encoding="utf-8"
        )
        assert main(["cec", docs["pair"], str(sup), "--embedding", "a=u"]) == 2
        assert capsys.readouterr().err == "error: --embedding: embedding misses points: b\n"


class TestGlueCommands:
    def test_glue_zero_emits_valid_superspace(self, docs, capsys, tmp_path):
        assert main(["glue-zero", docs["pair"], "--center", "a", "--label", "y0"]) == 0
        doc = capsys.readouterr().out
        space = parse_document(doc)
        assert space.labels == ("a", "b", "y0")
        assert space.validate().ok
        glued = tmp_path / "glued.json"
        glued.write_text(doc, encoding="utf-8")
        assert main(["topology", str(glued), "--set", "a,b", "--op", "is-closed"]) == 1

    def test_glue_zero_bad_center(self, docs):
        assert main(["glue-zero", docs["pair"], "--center", "q", "--label", "y0"]) == 2

    def test_complete_glue(self, docs, tmp_path, capsys):
        y = tmp_path / "y.json"
        y.write_text(
            '{"points": ["a", "b"], "d": [["0", "0"], ["0", "0"]]}', encoding="utf-8"
        )
        ystar = tmp_path / "ystar.json"
        ystar.write_text(
            '{"points": ["a", "p"], "d": [["0", "1"], ["1", "0"]]}', encoding="utf-8"
        )
        assert main(["complete-glue", str(y), str(ystar)]) == 0
        space = parse_document(capsys.readouterr().out)
        assert space.labels == ("a", "b", "p")
        assert space.validate().ok

    def test_complete_glue_rejects_non_metric_target(self, tmp_path, capsys):
        # Each error names the ystar file: y itself is valid and nonempty.
        cases = [
            (
                [["0", "0"], ["0", "0"]],
                '{"points": ["a", "p"], "d": [["0", "0"], ["0", "0"]]}',
                [],
                "the glued superspace must be a metric space",
            ),
            (
                [["0", "1"], ["1", "0"]],
                '{"points": ["u", "v", "w"], "d": [["0", "1", "2"], ["1", "0", "1"], '
                '["2", "1", "0"]]}',
                ["--embedding", "a=u,b=w"],
                "embedding of the reflection does not preserve distances",
            ),
        ]
        y = tmp_path / "y.json"
        bad = tmp_path / "bad.json"
        for y_rows, bad_doc, extra, message in cases:
            y.write_text(json.dumps({"points": ["a", "b"], "d": y_rows}), encoding="utf-8")
            bad.write_text(bad_doc, encoding="utf-8")
            assert main(["complete-glue", str(y), str(bad), *extra]) == 2
            assert capsys.readouterr().err == f"error: {bad}: {message}\n"


class TestFuzzCommand:
    def test_summary_is_deterministic(self, capsys):
        assert main(["fuzz", "--seed", "11", "--count", "8", "--max-n", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "11", "--count", "8", "--max-n", "4"]) == 0
        assert capsys.readouterr().out == first
        assert "result: PASS" in first

    def test_single_suite(self, capsys):
        assert main(
            ["fuzz", "--seed", "2", "--count", "5", "--max-n", "4", "--suite", "topology"]
        ) == 0
        out = capsys.readouterr().out
        assert "topology:" in out and "morphisms:" not in out

    def test_structured(self, capsys):
        assert main(
            ["fuzz", "--seed", "2", "--count", "3", "--format", "structured"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert set(payload["suites"]) == {"topology", "morphisms", "constructions"}

    @pytest.mark.parametrize(
        "count, max_n, message",
        [
            ("-5", "6", "count must be at least 0, got -5"),
            ("1", "0", "max_n must be at least 1, got 0"),
        ],
    )
    def test_meaningless_size_exits_two(self, count, max_n, message, capsys):
        assert main(["fuzz", "--count", count, "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSurrogateLabels:
    """A lone surrogate is legal JSON, and an undecodable command-line byte
    reaches Python as one, but no UTF-8 stream can print it."""

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "command, rows",
        [
            ("reflect", [["0", "1"], ["1", "0"]]),
            ("validate", [["0", "3"], ["1", "0"]]),
        ],
    )
    def test_document_label_exits_two(self, tmp_path, capsys, command, rows, fmt):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"points": ["\ud800", "b"], "d": rows}), encoding="utf-8")
        assert main([command, str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: points[0]: label '\\ud800' is not encodable as UTF-8\n"
        )

    def test_glue_zero_label_argument_exits_two(self, docs, capsys):
        argv = ["glue-zero", docs["pair"], "--center", "a", "--label", "\udcff"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: label '\\udcff' is not encodable as UTF-8\n"


UVW = '{"points": ["u", "v", "w"], "d": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}'

# An unknown or repeated label in an argument names the option it came from,
# or, for a default embedding, the superspace file that lacks the label.
LABEL_ERRORS = {
    "topology pair.json --set zz": "error: --set: no point labeled 'zz'\n",
    "glue-zero pair.json --center zz --label y": "error: --center: no point labeled 'zz'\n",
    "cec pair.json uvw.json --embedding a=zz,b=v": "error: --embedding: no point labeled 'zz'\n",
    "complete-glue pair.json uvw.json --embedding a=zz,b=v": (
        "error: --embedding: no point labeled 'zz'\n"
    ),
    "cec pair.json uvw.json": "error: uvw.json: no point labeled 'a'\n",
    "cec pair.json uvw.json --embedding a=w,a=u,b=v": (
        "error: --embedding: point 'a' is mapped twice\n"
    ),
    # The first image is codomain index 0.
    "cec pair.json uvw.json --embedding a=u,a=v,b=w": (
        "error: --embedding: point 'a' is mapped twice\n"
    ),
}


@pytest.mark.parametrize("fmt", ["plain", "structured"])
@pytest.mark.parametrize("argv", list(LABEL_ERRORS))
def test_label_arguments_name_their_source(docs, monkeypatch, capsys, argv, fmt):
    monkeypatch.chdir(Path(docs["pair"]).parent)
    Path("uvw.json").write_text(UVW, encoding="utf-8")
    code = main(argv.split() + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", LABEL_ERRORS[argv])


def test_module_entry_point(tmp_path):
    doc = tmp_path / "s.json"
    doc.write_text(METRIC_PAIR, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pseudometric", "validate", str(doc)],
        cwd=Path(cli.__file__).parents[1],  # run the package under test, installed or not
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_unencodable_plain_output_exits_2_with_one_error_line(tmp_path):
    doc = tmp_path / "u.json"
    doc.write_text('{"points": ["\u2713", "b"], "d": [["0", "1"], ["1", "0"]]}', encoding="utf-8")
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pseudometric", *argv],
            cwd=Path(cli.__file__).parents[1],
            capture_output=True,
            env=env,
        )

    for argv in (["reflect", str(doc)], ["isometric", str(doc), str(doc)]):
        proc = run(*argv)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr
        # Structured output escapes non-ASCII, so it is unaffected.
        assert run(*argv, "--format", "structured").returncode == 0


def test_closed_stdout_ends_quietly_with_the_command_code(tmp_path):
    # 151 points of output are far more than a pipe buffer holds, so the
    # command is still writing when the reader closes the pipe.
    n = 150
    doc = tmp_path / "line.json"
    rows = [[str(abs(i - j)) for j in range(n)] for i in range(n)]
    doc.write_text(json.dumps({"points": [f"p{i}" for i in range(n)], "d": rows}), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pseudometric", "glue-zero", str(doc), "--center", "p0", "--label", "t"],
        cwd=Path(cli.__file__).parents[1],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_usage_error_exits_two():
    assert main(["no-such-command"]) == 2


def test_out_of_memory_exits_three(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_fuzz", exhausted)
    assert main(["fuzz"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")


def test_patched_command_runs_after_the_parser_is_built(monkeypatch, capsys):
    # The parser is built once per process; a handler rebound afterwards
    # must still be the one that runs.
    assert main(["no-such-command"]) == 2
    calls = []

    def patched(args):
        calls.append(args.seed)
        return 0, None, ["patched"]

    monkeypatch.setattr(cli, "_cmd_fuzz", patched)
    capsys.readouterr()
    assert main(["fuzz", "--seed", "5"]) == 0
    assert calls == [5]
    assert capsys.readouterr().out == "patched\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _both(code: int, out: str, err: str):
    return (code, out, err), (code, out, err)


# Exact exit code, stdout and stderr for each command line, with
# --format plain and then --format structured; files are the `docs` fixture
# names, relative to its directory.
PINNED = {
    "validate pair.json": (
        (0, "ok (metric)\n", ""),
        (0, _json({"metric": True, "ok": True, "violations": []}), ""),
    ),
    "validate classes.json": (
        (0, "ok (pseudometric, not metric)\n", ""),
        (0, _json({"metric": False, "ok": True, "violations": []}), ""),
    ),
    "validate broken.json": (
        (
            1,
            "not a pseudometric: 2 violation(s)\n"
            "triangle at (b,a,c): 3, 1, 1\n"
            "triangle at (c,a,b): 3, 1, 1\n",
            "",
        ),
        (
            1,
            _json(
                {
                    "ok": False,
                    "violations": [
                        {"points": ["b", "a", "c"], "rule": "triangle", "values": ["3", "1", "1"]},
                        {"points": ["c", "a", "b"], "rule": "triangle", "values": ["3", "1", "1"]},
                    ],
                }
            ),
            "",
        ),
    ),
    "reflect classes.json": (
        (
            0,
            '{\n  "points": ["a", "c"],\n  "d": [\n    ["0", "1"],\n    ["1", "0"]\n  ]\n}\n'
            "\nprojection:\n  a -> a\n  b -> a\n  c -> c\n  d -> c\n",
            "",
        ),
        (
            0,
            _json(
                {
                    "projection": {"a": "a", "b": "a", "c": "c", "d": "c"},
                    "quotient": {"d": [["0", "1"], ["1", "0"]], "points": ["a", "c"]},
                }
            ),
            "",
        ),
    ),
    # Plain lists labels in index order, structured sorts them.
    "topology unsorted.json --set z": (
        (
            0,
            "closure: {z, a}\ninterior: {}\nboundary: {z, a}\nis-open: false\nis-closed: false\n",
            "",
        ),
        (
            0,
            _json(
                {
                    "boundary": ["a", "z"],
                    "closure": ["a", "z"],
                    "interior": [],
                    "is-closed": False,
                    "is-open": False,
                }
            ),
            "",
        ),
    ),
    "topology classes.json --set a --op is-open": (
        (1, "is-open: false\n", ""),
        (1, _json({"is-open": False}), ""),
    ),
    "isometric pair.json pair.json": (
        (0, "a -> a\nb -> b\n", ""),
        (
            0,
            _json(
                {
                    "found": True,
                    "map": {"a": "a", "b": "b"},
                    "stats": {"distance_checks": 1, "nodes": 2, "signature_prunes": 0},
                }
            ),
            "",
        ),
    ),
    "isometric pair.json far.json": (
        (1, "none\n", ""),
        (
            1,
            _json(
                {
                    "found": False,
                    "map": None,
                    "stats": {"distance_checks": 0, "nodes": 0, "signature_prunes": 4},
                }
            ),
            "",
        ),
    ),
    "pseudoisometric classes.json pair.json": (
        (0, "a -> a\nb -> a\nc -> b\nd -> b\n", ""),
        (0, _json({"found": True, "map": {"a": "a", "b": "a", "c": "b", "d": "b"}}), ""),
    ),
    "pseudoisometric pair.json far.json --oracle": (
        (1, "none\n", ""),
        (1, _json({"found": False, "map": None}), ""),
    ),
    "cec pair.json sup.json": (
        (0, "in CEC\n", ""),
        (0, _json({"in_cec": True, "superspace": True}), ""),
    ),
    # The gluing commands print the canonical document in both formats.
    "glue-zero pair.json --center a --label y0": _both(
        0,
        '{\n  "points": ["a", "b", "y0"],\n  "d": [\n'
        '    ["0", "1", "0"],\n    ["1", "0", "1"],\n    ["0", "1", "0"]\n  ]\n}\n',
        "",
    ),
    "complete-glue classes.json pair.json --embedding a=a,c=b": _both(0, TWO_CLASS, ""),
    "fuzz --seed 2 --count 3 --max-n 4 --suite topology": (
        (
            0,
            "fuzz seed=2 count=3 max-n=4 suites=topology\n"
            "topology: 175 checks, ok\nresult: PASS (175 checks)\n",
            "",
        ),
        (
            0,
            _json({"count": 3, "max_n": 4, "ok": True, "seed": 2, "suites": {"topology": 175}}),
            "",
        ),
    ),
    # Both files are broken: each file's own checks run in turn after both
    # are parsed, so the first file's problem is the one reported.
    "isometric classes.json broken.json": _both(
        2, "", "error: classes.json: isometry search requires a metric space\n"
    ),
    "pseudoisometric empty.json broken.json": _both(
        2, "", "error: empty.json: pseudoisometry requires nonempty spaces\n"
    ),
    "reflect empty.json": _both(
        2, "", "error: empty.json: metric reflection requires a nonempty space\n"
    ),
    "cec broken.json broken.json": _both(
        2, "", "error: broken.json: not a pseudometric space (triangle at (b,a,c): 3, 1, 1)\n"
    ),
    "isometric broken.json missing.json": _both(
        2, "", "error: missing.json: [Errno 2] No such file or directory: 'missing.json'\n"
    ),
}


@pytest.mark.parametrize("fmt", ["plain", "structured"])
@pytest.mark.parametrize("argv", list(PINNED))
def test_output_is_pinned(docs, monkeypatch, capsys, argv, fmt):
    monkeypatch.chdir(Path(docs["pair"]).parent)
    code = main(argv.split() + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == PINNED[argv][fmt == "structured"]
