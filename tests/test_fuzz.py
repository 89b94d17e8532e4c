from fractions import Fraction

import pytest

from pseudometric import (
    GenParams,
    emit_document,
    is_metric,
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


def test_suite_selection():
    report = run_fuzz(seed=1, count=4, max_n=4, suites=("morphisms",))
    assert set(report.suites) == {"morphisms"}


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


def test_oracle_cap_maps_to_exit_code_three(tmp_path):
    big = random_space(GenParams(seed=77, n=9, zero_merge_prob=Fraction(0)))
    doc = tmp_path / "big.json"
    doc.write_text(emit_document(big), encoding="utf-8")
    assert main(["pseudoisometric", str(doc), str(doc), "--oracle"]) == 3


@pytest.mark.parametrize(
    "count, max_n, message",
    [(-5, 6, "count must be at least 0, got -5"), (1, 0, "max_n must be at least 1, got 0")],
)
def test_meaningless_size_rejected(count, max_n, message):
    with pytest.raises(ValueError, match=message):
        run_fuzz(seed=0, count=count, max_n=max_n)


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
