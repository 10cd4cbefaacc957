"""Transient construction and susceptibility verdicts."""

import math
import warnings

import pytest

from faultscope import And, Circuit, ExternalEvent, Not, ProductionRule, SignalRef, SimConfig, Value, execute, make_trace
from faultscope.analysis import (
    FLIP_PULSE,
    X_PULSE,
    Glitch,
    analyze,
    analyze_naive,
    faulty_execution,
    is_susceptible,
    make_transient,
)
from faultscope.generators import PipelineSpec, linear_pipeline

CFG = SimConfig(horizon=32.0, epsilon=0.1)


@pytest.fixture(scope="module")
def pipeline():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    return circuit, monitored


@pytest.fixture(scope="module")
def base(pipeline):
    circuit, _ = pipeline
    return execute(circuit, {}, CFG)


def test_xpulse_restores_base_value(base):
    # c2 is low before 14 and the pulse ends before that switch
    ev1, ev2 = make_transient("c2", 10.0, 0.1, X_PULSE, base)
    assert ev1 == ExternalEvent(10.0, "c2", Value.X)
    assert ev2 == ExternalEvent(10.1, "c2", Value.ZERO)


def test_xpulse_across_a_switching_time(base):
    # base c2 rises at exactly 14; a pulse covering that instant restores
    # the new value so the overlay keeps tracking the fault-free trace
    ev1, ev2 = make_transient("c2", 13.95, 0.1, X_PULSE, base)
    assert ev1.value is Value.X
    assert ev2 == ExternalEvent(13.95 + 0.1, "c2", Value.ONE)


def test_xpulse_on_x_is_noop_overlay(pipeline):
    circuit, _ = pipeline
    # craft a run where c2 is already X when the pulse hits: pulse twice
    base = execute(circuit, {}, CFG)
    first = make_transient("c2", 10.0, 4.0, X_PULSE, base)
    ex = execute(circuit, {}, CFG, first)
    tr = ex.traces["c2"]
    assert (10.0, Value.X) in tr.transitions


def test_flip_pulse_complements(base):
    ev1, ev2 = make_transient("c2", 10.0, 0.1, FLIP_PULSE, base)
    assert ev1 == ExternalEvent(10.0, "c2", Value.ONE)
    assert ev2 == ExternalEvent(10.1, "c2", Value.ZERO)


def test_flip_pulse_on_x_rejected(pipeline):
    circuit, _ = pipeline
    base = execute(circuit, {}, CFG, make_transient("c2", 10.0, 0.5, X_PULSE, execute(circuit, {}, CFG)))
    assert any(v is Value.X for _, v in base.traces["c2"].transitions)
    with pytest.raises(ValueError):
        make_transient("c2", 10.05, 0.1, FLIP_PULSE, base)


def test_bad_pulse_parameters(base):
    for at in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_transient("c2", at, 0.1, X_PULSE, base)
    for width in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_transient("c2", 1.0, width, X_PULSE, base)
    with pytest.raises(ValueError):
        make_transient("c2", 1.0, 0.1, "zap", base)


def test_transient_on_unknown_signal_rejected(base):
    # used to raise a bare KeyError: 'nosuch'
    with pytest.raises(ValueError, match="^pulse signal 'nosuch' not in execution$"):
        make_transient("nosuch", 1.0, 0.1, X_PULSE, base)


def test_susceptible_at_10(pipeline):
    circuit, monitored = pipeline
    assert is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, 0.1), CFG)


def test_masked_at_22(pipeline):
    circuit, monitored = pipeline
    assert not is_susceptible(circuit, {}, monitored, Glitch("c2", 22.0, 0.1), CFG)


def test_glitch_on_monitored_signal_is_susceptible(pipeline):
    circuit, monitored = pipeline
    assert is_susceptible(circuit, {}, monitored, Glitch("c1", 7.0, 0.1), CFG)


def test_glitch_outside_horizon_rejected(pipeline):
    circuit, monitored = pipeline
    with pytest.raises(ValueError):
        is_susceptible(circuit, {}, monitored, Glitch("c2", 32.0, 0.1), CFG)


# the model's pulse rule, with T = 32 for all three callers: make_transient
# takes its execution's horizon as T
@pytest.mark.parametrize("caller", ["is_susceptible", "faulty_execution", "make_transient"])
@pytest.mark.parametrize(
    "signal, at, width, message",
    [
        ("c2", -0.5, 0.1, "start"),
        ("c2", -0.0001, 0.1, "start"),
        ("c2", 32.0, 0.1, "start"),
        ("c2", 40.0, 0.1, "start"),
        ("c2", math.nan, 0.1, "start"),
        ("c2", math.inf, 0.1, "start"),
        ("c2", -math.inf, 0.1, "start"),
        ("c2", 10.0, 0.0, "width"),
        ("c2", 10.0, -0.1, "width"),
        ("c2", 10.0, math.nan, "width"),
        ("c2", 10.0, math.inf, "width"),
        # positive, but at + width == at in floats: drive and restore coincide
        ("c2", 10.0, 1e-20, "width"),
        ("c2", 31.0, 1e-15, "width"),
        ("nosuch", 10.0, 0.1, "signal"),
    ],
)
def test_pulse_rule_rejects(pipeline, base, caller, signal, at, width, message):
    circuit, monitored = pipeline
    glitch = Glitch(signal, at, width)
    calls = {
        "is_susceptible": lambda: is_susceptible(circuit, {}, monitored, glitch, CFG),
        "faulty_execution": lambda: faulty_execution(circuit, {}, glitch, CFG),
        "make_transient": lambda: make_transient(signal, at, width, X_PULSE, base),
    }
    with pytest.raises(ValueError, match=f"^pulse {message} "):
        calls[caller]()


@pytest.mark.parametrize("at", [0.0, 31.95, math.nextafter(32.0, 0.0)])
def test_pulse_rule_accepts_starts_in_0_T(pipeline, base, at):
    # a pulse that starts just below T ends past it: all three take it, and
    # the verdict is the full run's
    circuit, monitored = pipeline
    glitch = Glitch("en2", at, 0.1)
    sus = is_susceptible(circuit, {}, monitored, glitch, CFG)
    assert sus == _attains_x(faulty_execution(circuit, {}, glitch, CFG), monitored)
    drive, restore = make_transient("en2", at, 0.1, X_PULSE, base)
    assert (drive.at, drive.value, restore.at) == (at, Value.X, at + 0.1)


@pytest.mark.parametrize("gamma", [1e-20, 2.0**-49])
@pytest.mark.parametrize("caller", [analyze, analyze_naive])
def test_analyze_rejects_a_gamma_that_vanishes_at_a_start(pipeline, caller, gamma):
    # 2^-49 is half the float spacing just below T = 32: it survives the
    # last start below T by rounding to even, and vanishes at the one before
    circuit, monitored = pipeline
    with pytest.raises(ValueError, match=r"^pulse width \S+ vanishes at start 31\.99"):
        caller(circuit, {}, monitored, gamma=gamma, config=CFG)


def test_pulse_past_the_settle_window_is_never_restored(pipeline):
    # settle is 35 here, so T + settle = 67; the pulse [1, 81) is X to the end
    circuit, monitored = pipeline
    glitch = Glitch("c2", 1.0, 80.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        faulty = faulty_execution(circuit, {}, glitch, CFG)
    assert faulty.horizon == 67.0
    assert faulty.traces["c2"].transitions[-1] == (1.0, Value.X)
    assert is_susceptible(circuit, {}, monitored, glitch, CFG) and _attains_x(faulty, monitored)


def test_empty_monitored_rejected(pipeline):
    circuit, _ = pipeline
    with pytest.raises(ValueError):
        is_susceptible(circuit, {}, frozenset(), Glitch("c2", 10.0, 0.1), CFG)


def _attains_x(execution, signals) -> bool:
    return any(
        execution.traces[s].initial is Value.X or any(v is Value.X for _, v in execution.traces[s].transitions)
        for s in signals
    )


# three susceptible and three masked flips; en2@31.5 reaches c3 only after T
@pytest.mark.parametrize(
    "signal,at", [("c2", 10.0), ("src", 17.3), ("en2", 31.5), ("c2", 22.0), ("en2", 5.0), ("en3", 30.0)]
)
def test_flip_verdict_matches_full_run(pipeline, signal, at):
    circuit, monitored = pipeline
    glitch = Glitch(signal, at, 0.1, FLIP_PULSE)
    faulty = faulty_execution(circuit, {}, glitch, CFG)
    assert is_susceptible(circuit, {}, monitored, glitch, CFG) == _attains_x(faulty, monitored)


# a is X until its first switch at 1; o ignores a while i stays low
X_START = Circuit(
    inputs={"i"},
    locals={"a"},
    outputs={"o"},
    initial={"a": Value.X, "o": Value.ZERO},
    rules=[
        ProductionRule(Not(SignalRef("i")), "a", 1, 1.0),
        ProductionRule(SignalRef("i"), "a", 0, 1.0),
        ProductionRule(And(SignalRef("a"), SignalRef("i")), "o", 1, 1.0),
        ProductionRule(Not(SignalRef("i")), "o", 0, 1.0),
    ],
)


def test_flip_on_x_rejected_by_probe():
    inputs = {"i": make_trace(Value.ZERO)}
    cfg = SimConfig(horizon=4.0, epsilon=0.1)
    assert not is_susceptible(X_START, inputs, {"o"}, Glitch("a", 2.0, 0.1, FLIP_PULSE), cfg)
    with pytest.raises(ValueError, match="nothing to flip"):
        is_susceptible(X_START, inputs, {"o"}, Glitch("a", 0.2, 0.1, FLIP_PULSE), cfg)
    # also where the fault-free run already has X on a monitored signal
    with pytest.raises(ValueError, match="nothing to flip"):
        is_susceptible(X_START, inputs, {"a"}, Glitch("a", 0.2, 0.1, FLIP_PULSE), cfg)


@pytest.mark.parametrize("jobs", [1, 2])
def test_flip_analysis_on_x_raises(jobs):
    """A flip-pulse analysis stops at the first probed pulse on a signal that
    is X in the fault-free run, and gives no report, for every ``jobs``."""
    inputs = {"i": make_trace(Value.ZERO)}
    with pytest.raises(ValueError, match=r"^flip-pulse at a@0\.0: pre-fault value is X, nothing to flip$"):
        analyze(X_START, inputs, {"o"}, config=SimConfig(horizon=4.0, epsilon=0.1), fault_kind=FLIP_PULSE, jobs=jobs)
