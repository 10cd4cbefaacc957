"""Gate primitives and benchmark circuit constructors."""

import random

import pytest

from faultscope import (
    And,
    Circuit,
    Not,
    Or,
    ProductionRule,
    SignalRef,
    SimConfig,
    Value,
    count_events,
    execute,
    make_trace,
    validate_circuit,
)
from faultscope.generators import (
    GenerationError,
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    gate_and,
    gate_inverter,
    gate_mce,
    gate_or,
    linear_pipeline,
    measure_throughput,
    multibit_linear_pipeline,
    ring_pipeline,
    token_positions,
)


def test_inverter_rules_exact():
    rules = gate_inverter("i", "o", 1.0)
    assert rules == [
        ProductionRule(SignalRef("i"), "o", 0, 1.0),
        ProductionRule(Not(SignalRef("i")), "o", 1, 1.0),
    ]


def test_inverter_self_loop_rejected():
    with pytest.raises(GenerationError):
        gate_inverter("a", "a", 1.0)


def test_inverter_custom_delay():
    rules = gate_inverter("x", "y", 0.5)
    assert all(r.delay == 0.5 for r in rules)


def test_gate_delay_positive():
    for fn in (lambda: gate_inverter("a", "b", 0.0), lambda: gate_mce("a", "b", "c", -1.0)):
        with pytest.raises(GenerationError):
            fn()


def test_mce_pin_collision_rejected():
    with pytest.raises(GenerationError):
        gate_mce("a", "b", "a", 1.0)
    with pytest.raises(GenerationError):
        gate_mce("a", "a", "c", 1.0)


def test_gate_rule_lists_exact():
    a, b = SignalRef("a"), SignalRef("b")
    nor = And(Not(a), Not(b))
    assert gate_mce("a", "b", "c", 2.0) == [ProductionRule(And(a, b), "c", 1, 2.0), ProductionRule(nor, "c", 0, 2.0)]
    assert gate_or("a", "b", "c", 2.0) == [ProductionRule(Or(a, b), "c", 1, 2.0), ProductionRule(nor, "c", 0, 2.0)]
    assert gate_and("a", "b", "c", 2.0) == [
        ProductionRule(And(a, b), "c", 1, 2.0),
        ProductionRule(Or(Not(a), Not(b)), "c", 0, 2.0),
    ]


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: gate_inverter("a", "a", 1.0), "combinational self-loop rejected: inverter a -> a"),
        (lambda: gate_or("a", "b", "b", 1.0), "gate pins must be distinct signals, got ('a', 'b', 'b')"),
        (lambda: gate_and("a", "a", "c", 1.0), "gate pins must be distinct signals, got ('a', 'a', 'c')"),
        (lambda: gate_inverter("a", "b", -1.0), "delay must be positive, got -1.0"),
        (lambda: gate_and("a", "b", "c", 0), "delay must be positive, got 0"),
    ],
)
def test_gate_error_messages(build, message):
    with pytest.raises(GenerationError) as err:
        build()
    assert str(err.value) == message


def _one_gate_circuit(rules, out, initial):
    ins = {"a", "b"}
    return Circuit(inputs=ins, locals=set(), outputs={out}, initial={out: initial}, rules=rules)


def _run_gate(rules, out, initial, a_trace, b_trace, horizon=10.0):
    c = _one_gate_circuit(rules, out, initial)
    return execute(c, {"a": a_trace, "b": b_trace}, SimConfig(horizon, 0.01))


def test_mce_sets_output_on_matching_inputs():
    ex = _run_gate(
        gate_mce("a", "b", "c", 1.0),
        "c",
        Value.ZERO,
        make_trace(Value.ONE),
        make_trace(Value.ZERO, [(2.0, Value.ONE)]),
    )
    assert ex.traces["c"].transitions == ((3.0, Value.ONE),)


def test_mce_holds_on_mismatch():
    ex = _run_gate(
        gate_mce("a", "b", "c", 1.0),
        "c",
        Value.ZERO,
        make_trace(Value.ONE),
        make_trace(Value.ZERO),
    )
    assert ex.traces["c"].transitions == ()


def test_mce_matching_zeros_pull_down():
    ex = _run_gate(
        gate_mce("a", "b", "c", 1.0),
        "c",
        Value.ONE,
        make_trace(Value.ZERO),
        make_trace(Value.ONE, [(2.0, Value.ZERO)]),
    )
    assert ex.traces["c"].transitions == ((3.0, Value.ZERO),)


def test_mce_output_changes_only_after_match():
    rng = random.Random(7)
    rules = gate_mce("a", "b", "c", 1.0)
    for _ in range(20):
        a = make_trace(Value.ZERO, [(t, v) for t, v in _toggles(rng, 10.0)])
        b = make_trace(Value.ZERO, [(t, v) for t, v in _toggles(rng, 10.0)])
        ex = _run_gate(rules, "c", Value.ZERO, a, b, horizon=10.0)
        for e in ex.events:
            # X arrivals come from disturbed switching, not from a firing
            if e.signal != "c" or not e.value.is_boolean:
                continue
            # the inputs matched the new output value one delay earlier
            t0 = e.time - 1.0
            assert ex.traces["a"].value_at(t0) == e.value
            assert ex.traces["b"].value_at(t0) == e.value


def _toggles(rng, horizon):
    out = []
    value = Value.ZERO
    t = 0.0
    while True:
        t += rng.randrange(16, 64) / 16.0
        if t >= horizon:
            return out
        value = Value.ONE if value is Value.ZERO else Value.ZERO
        out.append((t, value))


def test_or_gate_levels():
    ex = _run_gate(
        gate_or("a", "b", "c", 1.0),
        "c",
        Value.ONE,
        make_trace(Value.ZERO),
        make_trace(Value.ZERO),
    )
    assert ex.traces["c"].transitions == ((1.0, Value.ZERO),)


def test_or_gate_one_masks_x():
    ex = _run_gate(
        gate_or("a", "b", "c", 1.0),
        "c",
        Value.ZERO,
        make_trace(Value.X),
        make_trace(Value.ONE),
    )
    assert ex.traces["c"].transitions == ((1.0, Value.ONE),)


def test_or_gate_x_with_zero_propagates_x():
    ex = _run_gate(
        gate_or("a", "b", "c", 1.0),
        "c",
        Value.ZERO,
        make_trace(Value.ZERO, [(1.0, Value.X)]),
        make_trace(Value.ZERO),
    )
    assert ex.traces["c"].transitions[0] == (1.01, Value.X)


def test_and_gate():
    ex = _run_gate(
        gate_and("a", "b", "c", 1.0),
        "c",
        Value.ZERO,
        make_trace(Value.ONE),
        make_trace(Value.ZERO, [(1.0, Value.ONE)]),
    )
    assert ex.traces["c"].transitions == ((2.0, Value.ONE),)


# --- linear pipelines -------------------------------------------------------


def test_pipeline_spec_validation():
    with pytest.raises(GenerationError):
        linear_pipeline(PipelineSpec(stages=0))
    with pytest.raises(GenerationError):
        linear_pipeline(PipelineSpec(stages=3, inv_delay=0.0))


def test_generated_pipelines_validate():
    for stages in (1, 2, 3, 5):
        circuit, monitored = linear_pipeline(PipelineSpec(stages, 1, 5, 4, 4))
        assert validate_circuit(circuit) == []
        assert monitored == frozenset({"c1", f"c{stages}"})


def test_pipeline_liveness():
    for spec in (PipelineSpec(3, 1, 5, 4, 4), PipelineSpec(4, 2, 3, 1, 7), PipelineSpec(2, 1, 5, 25, 1)):
        horizon = 20 * (spec.mce_delay + max(spec.source_delay, spec.sink_delay, spec.inv_delay))
        circuit, _ = linear_pipeline(spec)
        ex = execute(circuit, {}, SimConfig(horizon, 0.1))
        for i in range(1, spec.stages + 1):
            assert len(ex.traces[f"c{i}"].transitions) >= 2, f"c{i} stalled"


# --- rings -------------------------------------------------------------------


def test_ring_no_bubble_rejected():
    with pytest.raises(GenerationError, match="bubble"):
        ring_pipeline(RingSpec(4, 2))


def test_ring_min_tokens():
    with pytest.raises(GenerationError):
        ring_pipeline(RingSpec(6, 0))


def test_token_positions_spacing():
    for stages in range(3, 24):
        for tokens in range(1, (stages - 1) // 2 + 1):
            pos = token_positions(stages, tokens)
            assert len(pos) == tokens
            # each token occupies two adjacent stages; no overlap, including
            # around the wrap
            occupied = []
            for p in pos:
                occupied += [p % stages, (p + 1) % stages]
            assert len(set(occupied)) == 2 * tokens


def test_ring_rotates_and_stays_boolean():
    circuit, monitored = ring_pipeline(RingSpec(3, 1, 1, 5))
    assert validate_circuit(circuit) == []
    assert monitored == frozenset({"c1"})
    ex = execute(circuit, {}, SimConfig(150.0, 0.1))
    tr = ex.traces["c1"]
    assert len(tr.transitions) >= 4
    assert all(v is not Value.X for _, v in tr.transitions)


def test_ring_liveness_across_occupancy():
    for stages, tokens in ((5, 1), (5, 2), (12, 3), (20, 9)):
        circuit, _ = ring_pipeline(RingSpec(stages, tokens, 1, 5))
        assert validate_circuit(circuit) == []
        ex = execute(circuit, {}, SimConfig(20 * 6.0, 0.1))
        assert len(ex.traces["c1"].transitions) >= 2, f"ring {stages}/{tokens} stalled"


# --- multibit ------------------------------------------------------------------


def test_multibit_single_bit_cd_is_an_or():
    circuit, monitored = multibit_linear_pipeline(MultiBitSpec(bits=1, stages=3))
    cd_rules = [r for r in circuit.rules if r.target == "cd1"]
    kinds = {r.value: r.guard for r in cd_rules}
    from faultscope import Or

    assert isinstance(kinds[1], Or)
    assert monitored == frozenset({"cd1", "cd3"})
    assert validate_circuit(circuit) == []


def test_multibit_structure_and_liveness():
    spec = MultiBitSpec(bits=4, stages=3, inv_delay=1, mce_delay=5, source_delay=4, sink_delay=4)
    circuit, monitored = multibit_linear_pipeline(spec)
    assert validate_circuit(circuit) == []
    ex = execute(circuit, {}, SimConfig(250.0, 0.1))
    assert len(ex.traces["cd3"].transitions) >= 4
    # the rotating pattern exercises every rail
    quiet = [s for s in sorted(circuit.driven) if not ex.traces[s].transitions]
    assert quiet == []
    assert all(v is not Value.X for tr in ex.traces.values() for _, v in tr.transitions)


def test_multibit_spec_validation():
    with pytest.raises(GenerationError):
        multibit_linear_pipeline(MultiBitSpec(bits=0))


# --- throughput -----------------------------------------------------------------


def test_throughput_constant_signal_is_zero():
    circuit, _ = ring_pipeline(RingSpec(3, 1, 1, 5))
    ex = execute(circuit, {}, SimConfig(0.5, 0.1))
    assert measure_throughput(ex, "c1", 1.0) == 0.0


def test_throughput_at_zero_horizon_is_zero():
    """A T=0 execution passes no token: no rate over no time."""
    circuit, _ = ring_pipeline(RingSpec(3, 1, 1, 5))
    assert measure_throughput(execute(circuit, {}, SimConfig(0.0, 0.1)), "c1", 1.0) == 0.0


def test_throughput_arithmetic():
    circuit, _ = ring_pipeline(RingSpec(3, 1, 1, 5))
    ex = execute(circuit, {}, SimConfig(100.0, 0.1))
    n = len(ex.traces["c1"].transitions)
    assert measure_throughput(ex, "c1", 1.0) == (n / 2.0) / 100.0
    # ten transitions over T=100 at unit inverter delay is 0.05
    assert abs(measure_throughput(ex, "c1", 1.0) - 0.05) < 0.05  # sanity of magnitude
