"""Full sensitivity analyses: published value, oracle agreement, weighting."""

import math
import warnings

import pytest

from faultscope import Circuit, Not, ProductionRule, SignalRef, SimConfig, Value, execute, make_trace
from faultscope.analysis import (
    Glitch,
    analyze,
    analyze_naive,
    is_susceptible,
    p_fail_weighted,
    value_regions,
)
from faultscope.generators import PipelineSpec, linear_pipeline

CFG = SimConfig(horizon=32.0, epsilon=0.1)

# calibrated and frozen: the published failure probability for this circuit
# is 0.54375; the difference is two pulse-width slivers at region boundaries
P_FAIL_3STAGE_T32 = 0.5425
P_PER_SIGNAL = {
    "c2": 0.8687499999999999,
    "en1": 0.59375,
    "en2": 0.34375,
    "en3": 0.3125,
    "src": 0.59375,
}


@pytest.fixture(scope="module")
def pipeline():
    return linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))


@pytest.fixture(scope="module")
def report(pipeline):
    circuit, monitored = pipeline
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return analyze(circuit, {}, monitored, 0.1, 0.01, CFG)


def test_p_fail_matches_published_value(report):
    assert abs(report.p_fail - 0.54375) <= 0.01


def test_p_fail_pinned(report):
    assert abs(report.p_fail - P_FAIL_3STAGE_T32) <= 1e-6


def test_per_signal_pinned(report):
    assert set(report.p_per_signal) == set(P_PER_SIGNAL)
    for s, p in P_PER_SIGNAL.items():
        assert abs(report.p_per_signal[s] - p) <= 1e-6


def test_injection_set_excludes_monitored_by_default(report):
    assert set(report.injected) == {"src", "c2", "en1", "en2", "en3"}


def test_verdict_near_horizon_agrees_with_analyze(pipeline, report):
    """One definition of susceptible: a pulse at en2@31.5 reaches a monitored
    signal only after T = 32, within the settle time that analyze's probes
    run for, so is_susceptible says so too and the pulse lies in the window."""
    circuit, monitored = pipeline
    assert is_susceptible(circuit, {}, monitored, Glitch("en2", 31.5, 0.1), CFG)
    assert any(w.signal == "en2" and w.start <= 31.5 < w.end for w in report.windows)
    assert report.settle == circuit.size * max(CFG.epsilon, circuit.d_max)


def test_p_fail_formula(report):
    total = math.fsum(w.length for w in report.windows)
    assert report.p_fail == total / (len(report.injected) * report.horizon)


def test_windows_disjoint_and_in_range(report):
    by_sig = {}
    for w in report.windows:
        by_sig.setdefault(w.signal, []).append(w)
    for wins in by_sig.values():
        wins.sort(key=lambda w: w.start)
        for w in wins:
            assert 0.0 <= w.start < w.end <= report.horizon
        for a, b in zip(wins, wins[1:]):
            assert a.end <= b.start


def test_simulation_budget(report, pipeline):
    circuit, _ = pipeline
    regions = value_regions(execute(circuit, {}, CFG))
    budget = len(report.injected) * sum(
        2 + max(0, math.ceil(math.log2(max(r.length, report.delta) / report.delta))) for r in regions
    )
    assert report.simulations <= budget


def test_include_monitored_pins_probability_one(pipeline):
    circuit, monitored = pipeline
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = analyze(circuit, {}, monitored, 0.1, 0.05, CFG, include_monitored=True)
    for m in monitored:
        assert rep.p_per_signal[m] == 1.0
    assert set(rep.injected) == set(circuit.signals)


def test_monitored_shortcut_emits_full_window(pipeline):
    circuit, monitored = pipeline
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = analyze(circuit, {}, monitored, 0.1, 0.05, CFG, include_monitored=True)
    for m in monitored:
        wins = [w for w in rep.windows if w.signal == m]
        assert len(wins) == 1 and (wins[0].start, wins[0].end) == (0.0, CFG.horizon)


def test_naive_grid_agrees_with_bisection(pipeline):
    circuit, monitored = pipeline
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep_b = analyze(circuit, {}, monitored, 0.1, 0.01, CFG)
        rep_n = analyze_naive(circuit, {}, monitored, 0.1, 0.25, CFG)
    regions = value_regions(execute(circuit, {}, CFG))
    assert abs(rep_n.p_fail - rep_b.p_fail) <= 0.25 * len(regions) / CFG.horizon


def test_naive_simulation_count_formula(pipeline):
    circuit, monitored = pipeline
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = analyze_naive(circuit, {}, monitored, 0.1, 0.25, CFG)
    assert rep.simulations == len(rep.injected) * math.ceil(CFG.horizon / 0.25)


def test_no_path_no_failures():
    # the glitched local drives nothing that reaches the monitored output
    circuit = Circuit(
        inputs={"i"},
        locals={"dead"},
        outputs={"o"},
        initial={"o": Value.ONE, "dead": Value.ZERO},
        rules=[
            ProductionRule(SignalRef("i"), "o", 0, 1.0),
            ProductionRule(Not(SignalRef("i")), "o", 1, 1.0),
            ProductionRule(SignalRef("i"), "dead", 1, 1.0),
            ProductionRule(Not(SignalRef("i")), "dead", 0, 1.0),
        ],
    )
    inputs = {"i": make_trace(Value.ZERO, [(1.0, Value.ONE)])}
    rep = analyze(circuit, inputs, {"o"}, 0.1, 0.05, SimConfig(8.0, 0.1), injection_set={"dead"})
    assert rep.p_fail == 0.0
    assert rep.windows == ()


def test_weighted_uniform_equals_plain(report):
    weights = {s: 1.0 for s in report.injected}
    assert p_fail_weighted(report, weights) == pytest.approx(report.p_fail, abs=1e-12)


def test_weighted_single_signal(report):
    weights = {s: 0.0 for s in report.injected}
    weights["c2"] = 3.0
    assert p_fail_weighted(report, weights) == pytest.approx(report.p_per_signal["c2"])


def test_weighted_hand_computed(report):
    weights = {s: 1.0 for s in report.injected}
    weights["c2"] = 2.0
    expected = (
        2.0 * report.p_per_signal["c2"]
        + sum(report.p_per_signal[s] for s in report.injected if s != "c2")
    ) / (len(report.injected) + 1)
    assert p_fail_weighted(report, weights) == pytest.approx(expected, abs=1e-12)


def test_weighted_errors(report):
    with pytest.raises(ValueError):
        p_fail_weighted(report, {})
    with pytest.raises(ValueError):
        p_fail_weighted(report, {s: 0.0 for s in report.injected})
    bad = {s: 1.0 for s in report.injected}
    bad["c2"] = -1.0
    with pytest.raises(ValueError):
        p_fail_weighted(report, bad)


def test_empty_monitored_rejected(pipeline):
    circuit, _ = pipeline
    # on a pool too, the error is the one the serial analysis raises
    for jobs in (1, 2):
        with pytest.raises(ValueError):
            analyze(circuit, {}, frozenset(), 0.1, 0.01, CFG, jobs=jobs)
