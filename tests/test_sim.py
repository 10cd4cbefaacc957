"""Execution engine: golden traces, the step rules, determinism."""

import pytest

from faultscope import (
    Circuit,
    ExternalEvent,
    Not,
    ProductionRule,
    SignalRef,
    SimConfig,
    Value,
    count_events,
    execute,
    make_trace,
    validate_circuit,
)

CFG = SimConfig(horizon=4.0, epsilon=0.1)


def inverter():
    return Circuit(
        inputs={"i"},
        locals=set(),
        outputs={"o"},
        initial={"o": Value.ONE},
        rules=[
            ProductionRule(SignalRef("i"), "o", 0, 1.0),
            ProductionRule(Not(SignalRef("i")), "o", 1, 1.0),
        ],
        name="inv",
    )


def trace_a():
    return {"i": make_trace(Value.ZERO, [(1.0, Value.ONE)])}


def trace_b():
    return {"i": make_trace(Value.ZERO, [(1.0, Value.ONE), (1.5, Value.ZERO)])}


def trace_c():
    return {"i": make_trace(Value.ZERO, [(1.0, Value.X), (1.5, Value.ZERO)])}


def test_inverter_trace_a():
    ex = execute(inverter(), trace_a(), CFG)
    assert ex.traces["o"].transitions == ((2.0, Value.ZERO),)


def test_inverter_trace_b():
    # the pending pull-down is canceled when the input falls; the output is
    # driven to X at once and recovers via the pull-up
    ex = execute(inverter(), trace_b(), CFG)
    assert ex.traces["o"].transitions == ((1.5, Value.X), (2.5, Value.ONE))


def test_inverter_trace_c():
    # an X input propagates to the output after the small delay epsilon
    ex = execute(inverter(), trace_c(), CFG)
    assert ex.traces["o"].transitions == ((1.1, Value.X), (2.5, Value.ONE))


def test_count_events_inverter_a():
    assert count_events(execute(inverter(), trace_a(), CFG)) == 2


def test_quiescent_circuit_no_events():
    ex = execute(inverter(), {"i": make_trace(Value.ZERO)}, CFG)
    assert count_events(ex) == 0
    assert ex.traces["o"].initial is Value.ONE


def test_external_pulse_direct_overlay():
    ex = execute(
        inverter(),
        {"i": make_trace(Value.ZERO)},
        CFG,
        externals=[ExternalEvent(2.0, "i", Value.X), ExternalEvent(2.1, "i", Value.ZERO)],
    )
    tr = ex.traces["i"]
    assert (2.0, Value.X) in tr.transitions and (2.1, Value.ZERO) in tr.transitions


def test_external_on_driven_signal():
    ex = execute(
        inverter(),
        {"i": make_trace(Value.ZERO)},
        CFG,
        externals=[ExternalEvent(1.0, "o", Value.X), ExternalEvent(1.1, "o", Value.ONE)],
    )
    assert (1.0, Value.X) in ex.traces["o"].transitions


def test_externals_same_signal_same_time_rejected():
    with pytest.raises(ValueError):
        execute(
            inverter(),
            {"i": make_trace(Value.ZERO)},
            CFG,
            externals=[ExternalEvent(1.0, "o", Value.X), ExternalEvent(1.0, "o", Value.ONE)],
        )


def test_externals_beyond_horizon_warn_and_ignore():
    with pytest.warns(UserWarning):
        ex = execute(
            inverter(),
            {"i": make_trace(Value.ZERO)},
            CFG,
            externals=[ExternalEvent(9.0, "o", Value.X)],
        )
    assert count_events(ex) == 0


@pytest.mark.parametrize("at", [float("nan"), float("inf"), -1.0])
def test_external_time_must_be_finite_and_nonnegative(at):
    # before, an event at nan was dropped without a word
    with pytest.raises(ValueError, match="finite and nonnegative"):
        execute(inverter(), {"i": make_trace(Value.ZERO)}, CFG, externals=[ExternalEvent(at, "o", Value.X)])


def test_epsilon_must_be_below_d_min():
    with pytest.raises(ValueError):
        execute(inverter(), trace_a(), SimConfig(horizon=4.0, epsilon=1.0))
    with pytest.raises(ValueError):
        execute(inverter(), trace_a(), SimConfig(horizon=4.0, epsilon=0.0))


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_horizon_must_be_finite(horizon):
    # before, both ran forever
    with pytest.raises(ValueError, match="finite"):
        execute(inverter(), {"i": make_trace(Value.ZERO)}, SimConfig(horizon=horizon, epsilon=0.1))


def test_zero_horizon_gives_empty_traces():
    ex = execute(inverter(), {"i": make_trace(Value.ZERO)}, SimConfig(horizon=0.0, epsilon=0.1))
    assert count_events(ex) == 0
    assert ex.horizon == 0.0


def test_missing_input_trace_rejected():
    with pytest.raises(ValueError):
        execute(inverter(), {}, CFG)


def test_invalid_circuit_rejected():
    bad = Circuit(
        inputs={"a"},
        locals=set(),
        outputs={"s"},
        initial={"s": Value.ZERO},
        rules=[ProductionRule(SignalRef("a"), "s", 1, 1.0), ProductionRule(SignalRef("a"), "s", 0, 1.0)],
    )
    assert validate_circuit(bad)
    from faultscope import CircuitInvalid

    with pytest.raises(CircuitInvalid):
        execute(bad, {"a": make_trace(Value.ZERO)}, CFG)


def test_determinism_bit_identical_logs():
    e1 = execute(inverter(), trace_c(), CFG)
    e2 = execute(inverter(), trace_c(), CFG)
    assert e1.events == e2.events
    assert e1.traces == e2.traces


def test_prefix_consistency():
    short = execute(inverter(), trace_b(), SimConfig(horizon=2.2, epsilon=0.1))
    long = execute(inverter(), trace_b(), SimConfig(horizon=4.4, epsilon=0.1))
    cut = [e for e in long.events if e.time < 2.2]
    assert list(short.events) == cut


def test_event_at_exact_horizon_excluded():
    # the pull-down lands exactly at the horizon and is not applied
    ex = execute(inverter(), trace_a(), SimConfig(horizon=2.0, epsilon=0.1))
    assert ex.traces["o"].transitions == ()
