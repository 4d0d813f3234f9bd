"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hirzebruch as hz  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_is_highest_with_ten_beyond():
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(39) == 50.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(199) == 90.0
    assert harness.tail_percentile(200) == 95.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(10000) == 99.9
    for pct in harness.TAIL_LADDER:
        n = harness.min_jobs(pct)
        assert harness.beyond(n, pct) >= 10 > harness.beyond(n - 1, pct)


def test_latency_summary_uses_nearest_rank_and_refuses_thin_tails():
    latencies = [k / 1000 for k in range(1, 101)]  # 1..100 ms
    p50, tail = harness.latency_summary(latencies, 90.0)
    assert p50 == pytest.approx(50.5)
    assert tail == pytest.approx(90.0)
    with pytest.raises(ValueError):
        harness.latency_summary(latencies[:99], 90.0)


def test_scaled_times_use_the_references_around_each_job():
    nominal = harness.REF_NOMINAL_S
    # a job between references of 2 and 4 nominal ran at a third of the speed
    got = harness.scaled([0.030, 0.010], [2 * nominal, 4 * nominal, nominal])
    assert got == pytest.approx([0.010, 0.004])
    assert harness.reference_time() > 0


def test_self_time_subtracts_direct_children():
    trace = [
        ("job", 0.0, 10.0, -1, 0),
        ("catalog.h_n", 1.0, 9.0, 0, 0),
        ("series.mul", 2.0, 4.0, 1, 0),
        ("series.mul", 5.0, 8.0, 1, 0),
        ("job", 10.0, 12.0, -1, 1),
        ("series.mul", 10.5, 11.0, 4, 1),
    ]
    table = spans.span_table(trace)
    assert table["job"] == (2, pytest.approx(2.0 + 1.5), pytest.approx(12.0))
    assert table["catalog.h_n"] == (1, pytest.approx(3.0), pytest.approx(8.0))
    assert table["series.mul"] == (3, pytest.approx(5.5), pytest.approx(5.5))
    shares = spans.layer_shares(table)
    assert shares["series"] == pytest.approx(5.5 / 12)
    assert shares["catalog"] == pytest.approx(3.0 / 12)
    assert shares["bench"] == pytest.approx(3.5 / 12)
    assert sum(shares.values()) == pytest.approx(1.0)


def _todd_job(bump: bool) -> harness.Job:
    expected = workloads.make_spec("todd", {}).coeffs(8)

    def run():
        coeffs = list(hz.construct(hz.parse_spec("todd"), 8).series.coeffs)
        if bump:
            coeffs[5] = coeffs[5] + Fraction(1, 10**9)
        return hz.PowerSeries(coeffs)

    return harness.Job("todd", run, lambda s: workloads.coeffs_match(s.coeffs, expected))


def test_injected_wrong_answers_count_as_failures():
    wrong_exit = workloads.cli_job("cli.catalog", ["catalog"], 1,
                                   lambda out: out == workloads.CATALOG_TEXT)
    right_exit = workloads.cli_job("cli.catalog", ["catalog"], 0,
                                   lambda out: out == workloads.CATALOG_TEXT)
    tally = harness.Tally()
    harness.run_session([_todd_job(False), right_exit], tally, {})
    assert (tally.attempted, tally.passed, tally.unexpected) == (2, 2, [])

    tally = harness.Tally()
    harness.run_session([_todd_job(False), _todd_job(True), wrong_exit], tally, {})
    assert tally.attempted == 3 and tally.passed == 1
    assert tally.unexpected == ["todd: wrong answer", "cli.catalog: wrong answer"]

    known = {"cli.catalog": "ROADMAP item 0: test"}
    tally = harness.Tally()
    harness.run_session([_todd_job(True), wrong_exit], tally, known)
    assert tally.passed == 0
    assert tally.unexpected == ["todd: wrong answer"]
    assert tally.known_failed == {"cli.catalog": 1}


def test_raising_job_is_a_failure():
    tally = harness.Tally()
    harness.run_session([harness.Job("boom", lambda: 1 / 0, lambda r: True)], tally, {})
    assert tally.passed == 0 and tally.unexpected[0].startswith("boom: raised")


def test_real_label_reads_coefficients_not_family():
    real_a = (Fraction(2, 3), Fraction(0))
    imag_a = (Fraction(0), Fraction(2, 3))
    b = (Fraction(1, 5), Fraction(0))
    cases = {
        ("gab", (("a", real_a), ("b", b))): True,
        ("gab", (("a", imag_a), ("b", b))): True,
        ("dab", (("a", imag_a), ("b", b))): True,
        ("dab", (("a", (Fraction(1, 2), Fraction(3))), ("b", b))): False,
        ("txy", (("x", (Fraction(1), Fraction(1))), ("y", b))): False,
        ("todd", ()): True,
    }
    for (family, params), real in cases.items():
        spec = workloads.make_spec(family, dict(params))
        assert spec.real is real, spec.text
        H = hz.construct(hz.parse_spec(spec.text), 12)
        assert all(c.is_real for c in H.series.coeffs) is real, spec.text


def test_oracle_against_known_values():
    assert oracle.bernoulli(10) == [Fraction(v) for v in (
        1, "-1/2", "1/6", 0, "-1/30", 0, "1/42", 0, "-1/30", 0, "5/66")]
    todd = workloads.make_spec("todd", {})
    assert todd.coeffs(4) == [(Fraction(v), Fraction(0)) for v in (1, "1/2", "1/12", 0, "-1/720")]
    assert todd.cpn(7) == oracle.ONE
    assert oracle.product_chern_numbers([2])[(2,)] == 3
    assert oracle.product_chern_numbers([1, 1]) == {(2,): 4, (1, 1): 8}
    for text in ("0", "-3/4", "i", "-i", "2/3i", "1/2+3i", "-5-7/2i", "(1/2-i)"):
        assert oracle.format_q(oracle.parse_q(text)) == text.strip("()")


def test_tracer_patches_every_binding_and_restores():
    import hirzebruch.cli
    import hirzebruch.rigidity

    original = hz.catalog.h_n
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = hz.h_n
        assert wrapped is not original
        for module in (hz, hz.catalog, hz.rigidity, hz.cli):
            assert module.h_n is wrapped
        assert tracer.missing("cpn_tower")  # nothing ran yet
        tracer.begin_job()
        hz.h_n(hz.construct(hz.parse_spec("dab:a=1/2+3i,b=1/3"), 6), 4)
        tracer.end_job()
        counts = tracer.counts()
        assert counts["catalog.h_n"] == 1 and counts["catalog.construct"] == 1
        assert counts["series.mul"] > 0 and counts["gaussian.mul"] > 0
        assert tracer.max_bits[0] > 0
    finally:
        tracer.uninstall()
    for module in (hz, hz.catalog, hz.rigidity, hz.cli):
        assert module.h_n is original


def test_every_span_is_required_somewhere():
    required = {name for names in spans.REQUIRED.values() for name in names}
    assert set(spans.TIMED) <= required
    assert set(spans.COUNTED) <= required
    assert set(spans.REQUIRED) == set(workloads.WORKLOADS)


def test_benchmark_json_matches_the_report():
    data = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] == spans.per_layer_metrics()
    assert set(workloads.TAIL_PCT) == set(workloads.WORKLOADS)
