"""The kernel against the reference interpreter (``reference.py``): the
same events, the same state after every visit, and the same watch verdict
and stop time, from t=0 and resumed from a snapshot."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from faultscope import ExternalEvent, SimConfig, Value, execute, make_trace
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    multibit_linear_pipeline,
    ring_pipeline,
)
from faultscope.sim import _compiled, _kernel, _prepare_externals, _prepare_inputs, _Seed
import reference
from util import logged_kernel, random_circuit, random_delay

VALUES = (Value.ZERO, Value.X, Value.ONE)


def _random_inputs(rng, circuit, T, tick):
    """A trace per input, with transitions at multiples of ``tick``, X among
    the values."""
    traces = {}
    for name in sorted(circuit.inputs):
        initial = value = rng.choice(VALUES)
        transitions = []
        for k in sorted(rng.sample(range(1, int(T / tick)), rng.randint(0, 6))):
            value = rng.choice([v for v in VALUES if v != value])
            transitions.append((k * tick, value))
        traces[name] = make_trace(initial, transitions)
    return traces


def _random_externals(rng, circuit, T, tick, count):
    """``count`` external events at multiples of ``tick`` on any signal, at
    most one per signal and time."""
    names = sorted(circuit.signals)
    picked = {(rng.randrange(int(T / tick)) * tick, rng.choice(names)) for _ in range(count)}
    return [ExternalEvent(at, name, rng.choice(VALUES)) for at, name in sorted(picked)]


def _seed_of(comp, circuit, state):
    """A reference state as a kernel seed."""
    rid = {id(rule): i for i, rule in enumerate(circuit.rules)}
    return _Seed(
        state.time,
        [state.values[name].value for name in comp.names],
        {rid[id(p.rule)]: p.due for p in state.pending if p.kind == reference.BOOL},
        {comp.idx[p.signal]: p.due for p in state.pending if p.kind == reference.XACT},
    )


def _watch(rng, values):
    """One or two signals that are not X in ``values``."""
    names = sorted(name for name, value in values.items() if value is not Value.X)
    return frozenset(rng.sample(names, min(len(names), rng.randint(1, 2))))


def _check(circuit, inputs, T, epsilon, externals, rng, resumes=3):
    comp = _compiled(circuit)
    ref = reference.run(circuit, inputs, T, epsilon, externals)
    got = execute(circuit, inputs, SimConfig(T, epsilon), externals)
    assert [(e.time, e.signal, e.value, e.cause) for e in got.events] == ref.events

    in_initial, in_transitions = _prepare_inputs(comp, inputs, T)
    exts = _prepare_externals(comp, externals, T)
    args = (comp, in_transitions, in_initial, T, epsilon, exts)
    _, visits = logged_kernel(*args)
    states = [_seed_of(comp, circuit, s) for s in ref.visits]
    assert visits.visit_times == [s.time for s in states]
    assert [(s.values, s.pend, s.pend_x) for s in visits.snapshots] == [(s.values, s.pend, s.pend_x) for s in states]

    start = {name: Value.X for name in circuit.signals}
    start.update(circuit.initial)
    start.update({name: trace.initial for name, trace in inputs.items()})
    watch = _watch(rng, start)
    run = _kernel(*args, record=False, watch=frozenset(comp.idx[s] for s in watch))
    expect = reference.run(circuit, inputs, T, epsilon, externals, watch=watch)
    assert (run.watch_hit, run.time) == (expect.watch_hit, expect.time)

    for _ in range(resumes if ref.visits else 0):
        state = rng.choice(ref.visits)
        watch = _watch(rng, state.values)
        seed = _seed_of(comp, circuit, state)
        run = _kernel(*args, record=False, watch=frozenset(comp.idx[s] for s in watch), seed=seed)
        expect = reference.run(circuit, inputs, T, epsilon, externals, watch=watch, start=state)
        assert (run.watch_hit, run.time) == (expect.watch_hit, expect.time)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), integer_delays=st.booleans())
def test_kernel_matches_reference(seed, integer_delays):
    """Random gate soups with random inputs and externals, X included.  All
    times are on a grid of ``tick`` (half-integers, or sixteenths with 1/16
    delays), epsilon included, so that many events, Boolean and X actions
    among them, fall due at one time."""
    rng = random.Random(seed)
    tick = 0.5 if integer_delays else 1 / 16
    circuit = random_circuit(rng, delay=(lambda r: float(r.randint(1, 5))) if integer_delays else random_delay)
    T = 30.0
    inputs = _random_inputs(rng, circuit, T, tick)
    _check(circuit, inputs, T, tick, _random_externals(rng, circuit, T, tick, rng.randint(0, 6)), rng)


@pytest.mark.parametrize(
    "make, T",
    [
        pytest.param(lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 100.0, id="linear-3/100"),
        pytest.param(lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0, id="mb4/500"),
        pytest.param(lambda: ring_pipeline(RingSpec(20, 9, 1, 5)), 200.0, id="ring20/9"),
    ],
)
def test_kernel_matches_reference_on_presets(make, T):
    """The fault-free run, and one with a few seeded external events at
    half-integer times and epsilon 0.5."""
    circuit, _ = make()
    rng = random.Random(41)
    _check(circuit, {}, T, 0.1, [], rng)
    _check(circuit, {}, T, 0.5, _random_externals(rng, circuit, T, 0.5, 4), rng)
