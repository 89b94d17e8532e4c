import gc
import hashlib
import json
import types
from fractions import Fraction

import pytest

import pseudometric.fuzz
from pseudometric import (
    GenParams,
    Space,
    emit_document,
    is_metric,
    parse_document,
    random_space,
    is_pseudoisometry,
    run_fuzz,
)
from pseudometric.cli import main
from pseudometric.fuzz import CheckFailure, FuzzReport, SUITES

from oracles import iter_pseudoisometries


def test_run_fuzz_is_deterministic_at_library_level():
    a = run_fuzz(seed=3, count=12, max_n=5)
    b = run_fuzz(seed=3, count=12, max_n=5)
    assert a.ok and b.ok
    assert a.summary() == b.summary()
    assert a.suites == b.suites


def test_seed_seven_summary_is_pinned():
    assert run_fuzz(seed=7, count=20, max_n=6).summary() == (
        "fuzz seed=7 count=20 max-n=6 suites=topology,morphisms,constructions\n"
        "topology: 1103 checks, ok\n"
        "morphisms: 254 checks, ok\n"
        "constructions: 360 checks, ok\n"
        "result: PASS (1717 checks)"
    )


@pytest.mark.parametrize(
    "seed, topology, morphisms, constructions",
    [
        (0, 7120, 1010, 1800),
        (1, 7705, 1073, 1800),
        (2, 7298, 1122, 1800),
        (3, 7015, 1183, 1800),
        (4, 7106, 1143, 1800),
        (5, 7818, 1149, 1800),
    ],
)
def test_seed_summaries_are_pinned(seed, topology, morphisms, constructions):
    assert run_fuzz(seed, 100, 6).summary() == (
        f"fuzz seed={seed} count=100 max-n=6 suites=topology,morphisms,constructions\n"
        f"topology: {topology} checks, ok\n"
        f"morphisms: {morphisms} checks, ok\n"
        f"constructions: {constructions} checks, ok\n"
        f"result: PASS ({topology + morphisms + constructions} checks)"
    )


def test_suite_selection():
    report = run_fuzz(seed=1, count=4, max_n=4, suites=("morphisms",))
    assert set(report.suites) == {"morphisms"}


# SHA-256 of the documents each suite draws in `run_fuzz(seed, 20, 6)`, concatenated.
SUITE_DRAW_DIGESTS = {
    0: {
        "topology": "397377530aef0e9781e249b848296be7088f8d7df38e912a7533a9b6b3442294",
        "morphisms": "162ab718877ef137a52e9019ad08fd3421bb67659cf622753cae07a6f9c2b1b4",
        "constructions": "8e8cce13cdab3320390542561aa27f18e0e8be5e9c33aa0c0f5237b15efc2bb1",
    },
    1: {
        "topology": "868bb7a6c4ecb3e5d89a70bc0041b19442abcc4920626d54fc17cca9f0dc5e2a",
        "morphisms": "6ab89b304055d696200c0a0c1c7c36730684d1bff0a7c94ca0c9fe7c91f4dca2",
        "constructions": "3ec62c0674b384559fc1faf1c1998eb46a0d2e5a1bc99c6f62da4fa27798c665",
    },
}


# SHA-256 of the documents of every space each suite builds in
# `run_fuzz(seed, 20, 6)`, in order: its draws, pullbacks, glued and
# generated superspaces.
SUITE_BUILD_DIGESTS = {
    0: {
        "topology": "397377530aef0e9781e249b848296be7088f8d7df38e912a7533a9b6b3442294",
        "morphisms": "77485fec9efea1d1f73b18b6bc0d848969c13bc94f2f16b75fc5a9c6bc6269ab",
        "constructions": "a7d0048f70ffe5b5aed030d5a9e31c890c0847bcc1d53ede7ff4d9a2656029f3",
    },
    1: {
        "topology": "868bb7a6c4ecb3e5d89a70bc0041b19442abcc4920626d54fc17cca9f0dc5e2a",
        "morphisms": "78899f060df26529645bf69cb44fc80a995f17a68a71c12e5bfa864f30729d34",
        "constructions": "054f5c7f8a0feba54c6df25dd31b4bfbf26d1f4d7645cd84a39253872dc3c182",
    },
}


@pytest.mark.parametrize("seed", [0, 1])
def test_each_suite_alone_draws_as_in_the_full_run(seed, monkeypatch):
    # A suite's generator is seeded from its place in SUITES, not in the
    # selection, so `fuzz --suite X` checks the spaces of the full run. The
    # drawn spaces, and every space a suite builds from them, are compared
    # and pinned too: the constructions suite makes the same number of checks
    # on every instance, so its summary line cannot show that it drew from
    # another seed or built other superspaces.
    draw = pseudometric.fuzz._space
    draws = []  # (generator, document) per draw; holding each generator keeps its id unique
    built = []  # (generator, document) per space built, draws included

    def recording(rng, max_n):
        space = draw(rng, max_n)
        draws.append((rng, emit_document(space)))
        built.append(draws[-1])
        return space

    def building(make):
        def recording(*args, **kwargs):
            result = make(*args, **kwargs)
            space = result if isinstance(result, Space) else result.codomain
            # Every suite draws before it builds, so the last draw names the suite.
            built.append((draws[-1][0], emit_document(space)))
            return result

        return recording

    monkeypatch.setattr(pseudometric.fuzz, "_space", recording)
    for name in ("_pullback", "random_superspace", "glue_zero_point", "completion_glue"):
        monkeypatch.setattr(pseudometric.fuzz, name, building(getattr(pseudometric.fuzz, name)))
    full = run_fuzz(seed, 20, 6)
    lines = full.summary().splitlines()

    def by_generator(records):
        groups = {}
        for rng, doc in records:
            groups.setdefault(id(rng), []).append(doc)
        return list(groups.values())

    drawn, made = by_generator(draws), by_generator(built)
    assert len(drawn) == len(made) == len(SUITES)
    for name, docs, spaces in zip(SUITES, drawn, made):
        digest = hashlib.sha256("".join(docs).encode()).hexdigest()
        assert digest == SUITE_DRAW_DIGESTS[seed][name]
        digest = hashlib.sha256("".join(spaces).encode()).hexdigest()
        assert digest == SUITE_BUILD_DIGESTS[seed][name]
        draws.clear()
        built.clear()
        alone = run_fuzz(seed, 20, 6, suites=(name,))
        assert alone.suites == {name: full.suites[name]}
        line = alone.summary().splitlines()[1]
        assert line.startswith(f"{name}: ") and line in lines
        assert [doc for _, doc in draws] == docs
        assert [doc for _, doc in built] == spaces


def test_failure_summary_renders_document_bundle():
    space = random_space(GenParams(seed=1, n=2))
    report = FuzzReport(seed=9, count=5, max_n=4, suites={"topology": 17})
    report.failure = CheckFailure(
        suite="topology",
        check="closure_equals_saturate",
        detail="A=[0]",
        documents={"space": emit_document(space)},
    )
    text = report.summary()
    assert "result: FAIL" in text
    assert "FAILED at closure_equals_saturate" in text
    assert "--- space ---" in text
    assert '"points"' in text


def test_failing_check_stops_the_run_with_a_counterexample(monkeypatch, capsys):
    # A closure that forgets every point is refuted by the first nonempty set.
    monkeypatch.setattr(pseudometric.fuzz, "closure", lambda space, A: frozenset())
    report = run_fuzz(seed=3, count=5, max_n=4)
    assert not report.ok
    assert list(report.suites) == ["topology"]
    failure = report.failure
    assert (failure.suite, failure.check, failure.detail) == (
        "topology", "closure_equals_saturate", "A=[0]"
    )
    assert failure.documents
    for doc in failure.documents.values():
        assert emit_document(parse_document(doc)) == doc

    argv = ["fuzz", "--seed", "3", "--count", "5", "--max-n", "4", "--format", "structured"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert list(payload["suites"]) == ["topology"]
    assert sorted(payload["counterexample"]) == ["check", "detail", "documents", "suite"]
    assert payload["counterexample"]["documents"] == failure.documents


PINNED_COUNTEREXAMPLE = r"""{
  "count": 5,
  "counterexample": {
    "check": "closure_equals_saturate",
    "detail": "A=[0]",
    "documents": {
      "space": "{\n  \"points\": [\"p0\"],\n  \"d\": [\n    [\"0\"]\n  ]\n}\n"
    },
    "suite": "topology"
  },
  "max_n": 4,
  "ok": false,
  "seed": 3,
  "suites": {
    "topology": 6
  }
}
"""


def test_structured_counterexample_is_pinned(monkeypatch, capsys):
    # The same refuted closure as above: the whole structured output, byte for byte.
    monkeypatch.setattr(pseudometric.fuzz, "closure", lambda space, A: frozenset())
    argv = ["fuzz", "--seed", "3", "--count", "5", "--max-n", "4", "--format", "structured"]
    assert main(argv) == 1
    assert capsys.readouterr() == (PINNED_COUNTEREXAMPLE, "")


@pytest.mark.parametrize(
    "name, replacement, counterexample, digest",
    [
        (
            "is_open",
            lambda space, A: len(A) < 2,
            "counterexample (topology/open_iff_closed_iff_saturated): "
            "A=[0] open=False closed=False saturated=False",
            "f4867e4755b1c6ac7aa2c9457d027383968660400a0b4995ffdb828087b15a80",
        ),
        (
            "limit_points",
            lambda seq: frozenset(),
            "counterexample (topology/cauchy_limits_are_a_zero_class): prefix=(0,) cycle=(3, 3)",
            "58ed12cb494fb2329ecbb5a29f3cbe495ae53157b6516456332c8dbbc26cb127",
        ),
        (
            "check_well_defined",
            lambda space: types.SimpleNamespace(ok=False),
            "counterexample (topology/quotient_distances_well_defined): ",
            "f5fe7f6e0744f1a8abfddaca1e732d0d0e338ed632ff20ca686215f99a45cd3f",
        ),
        (
            "brute_force_pseudoisometry",
            lambda x, y: None,
            "counterexample (morphisms/search_agrees_with_enumeration): "
            "search=found enumeration=none",
            "8a9a3b84793e3835d2b6d0f2f79c8f0ac4f8d5c13511146f2cef976e9a24ec75",
        ),
        (
            "in_cec",
            lambda m: m.codomain.n == m.domain.n,
            "counterexample (constructions/completion_glue_in_cec): ",
            "76fbf5a021d19e0385026319ad02fd90663baca4b184d79b3c2039933a5ecd55",
        ),
    ],
    ids=[
        "open_iff_closed_iff_saturated",
        "cauchy_limits_are_a_zero_class",
        "quotient_distances_well_defined",
        "search_agrees_with_enumeration",
        "completion_glue_in_cec",
    ],
)
def test_failure_records_are_pinned(monkeypatch, name, replacement, counterexample, digest):
    # One library name broken per case: the whole failing summary, its
    # detail fields and document bundle included, is pinned.
    monkeypatch.setattr(pseudometric.fuzz, name, replacement)
    text = run_fuzz(seed=0, count=20, max_n=6).summary()
    assert counterexample in text.splitlines()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_morphism_generator_covers_metric_combinations():
    metric_domains = non_metric_domains = metric_codomains = non_metric_codomains = 0
    count = 0
    for m in iter_pseudoisometries(seed=5, count=120):
        assert is_pseudoisometry(m).ok
        if is_metric(m.domain):
            metric_domains += 1
        else:
            non_metric_domains += 1
        if is_metric(m.codomain):
            metric_codomains += 1
        else:
            non_metric_codomains += 1
        count += 1
    assert count == 120
    assert min(metric_domains, non_metric_domains) > 0
    assert min(metric_codomains, non_metric_codomains) > 0


def test_all_suites_pass_a_medium_run():
    report = run_fuzz(seed=42, count=60, max_n=6)
    assert report.ok, report.summary()
    assert set(report.suites) == set(SUITES)
    assert all(v > 0 for v in report.suites.values())


def test_run_leaves_no_cyclic_garbage():
    # Spaces keep their reflections; a kept map back to the space would
    # make every space of the run a cycle that only the collector frees.
    gc.collect()
    gc.disable()
    try:
        assert run_fuzz(3, 40, 6).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_cap_maps_to_exit_code_three(tmp_path):
    big = random_space(GenParams(seed=77, n=9, zero_merge_prob=Fraction(0)))
    doc = tmp_path / "big.json"
    doc.write_text(emit_document(big), encoding="utf-8")
    assert main(["pseudoisometric", str(doc), str(doc), "--oracle"]) == 3


@pytest.mark.parametrize(
    "count, max_n, message",
    [
        (-5, 6, "count must be at least 0, got -5"),
        (1, 0, "max_n must be at least 1, got 0"),
        (1.5, 6, "count must be an int, got 1.5"),
        (True, 6, "count must be an int, got True"),
        (1, 2.5, "max_n must be an int, got 2.5"),
        (1, "3", "max_n must be an int, got '3'"),
        (1, False, "max_n must be an int, got False"),
    ],
)
def test_meaningless_size_rejected(count, max_n, message):
    with pytest.raises(ValueError, match=message):
        run_fuzz(seed=0, count=count, max_n=max_n)


def test_least_sizes_run():
    # The bounds of the size checks are accepted: no instance, or one-point spaces.
    assert run_fuzz(0, 0, 6).suites == dict.fromkeys(SUITES, 0)
    assert run_fuzz(0, 3, 1).ok


@pytest.mark.parametrize(
    "seed, message",
    [
        ("7", "seed must be an int, got '7'"),
        (2.5, "seed must be an int, got 2.5"),
        (True, "seed must be an int, got True"),
    ],
)
def test_meaningless_seed_rejected(seed, message):
    with pytest.raises(ValueError, match=message):
        run_fuzz(seed, 1, 2)


@pytest.mark.parametrize(
    "suites, message",
    [
        (("topolgy",), "unknown suite 'topolgy'"),
        (("morphisms", "nope", "zzz"), "unknown suite 'nope'"),
        ((), "nonempty tuple of suite names"),
        ("topology", "nonempty tuple of suite names"),
    ],
)
def test_unknown_or_empty_suite_selection_rejected(suites, message):
    with pytest.raises(ValueError, match=message):
        run_fuzz(seed=1, count=5, max_n=4, suites=suites)
