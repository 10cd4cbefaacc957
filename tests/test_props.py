"""Randomized engine properties: determinism, prefixes, boundedness,
monotonicity of X, and probe-engine equivalence."""

import dataclasses
import random
import warnings

from faultscope import ExternalEvent, SimConfig, Value, count_events, execute, trace_value_at
from faultscope.analysis import _ProbeContext, make_transient
from util import monitored_for, random_circuit, random_input_traces

N_QUICK = 30


def _case(rng, horizon=None, allow_x=False):
    circuit = random_circuit(rng)
    T = float(horizon or rng.randrange(10, 40))
    inputs = random_input_traces(rng, circuit, T, allow_x=allow_x)
    return circuit, inputs, SimConfig(T, 0.1)


def test_determinism():
    rng = random.Random(10)
    for _ in range(N_QUICK):
        circuit, inputs, cfg = _case(rng)
        e1 = execute(circuit, inputs, cfg)
        e2 = execute(circuit, inputs, cfg)
        assert e1.events == e2.events
        assert e1.traces == e2.traces


def test_prefix_consistency():
    rng = random.Random(11)
    for _ in range(N_QUICK):
        circuit, inputs, cfg = _case(rng, allow_x=True)
        half = SimConfig(cfg.horizon / 2, cfg.epsilon)
        short = execute(circuit, inputs, half)
        long = execute(circuit, inputs, cfg)
        assert list(short.events) == [e for e in long.events if e.time < half.horizon]


def test_boundedness_and_firing_separation():
    rng = random.Random(12)
    for _ in range(N_QUICK):
        circuit, inputs, cfg = _case(rng, allow_x=True)
        ex = execute(circuit, inputs, cfg)
        assert count_events(ex) < 10_000
        d_min = circuit.d_min
        # no signal fires two Boolean rule actions within one minimum delay
        fires = {}
        for e in ex.events:
            if e.value.is_boolean and not e.cause.startswith(("in", "ext", "xprop", "unstable")):
                fires.setdefault(e.signal, []).append(e.time)
        for times in fires.values():
            for a, b in zip(times, times[1:]):
                assert b - a >= d_min


def test_monotonicity_of_x():
    rng = random.Random(13)
    for _ in range(60):
        circuit, inputs, cfg = _case(rng)
        base = execute(circuit, inputs, cfg)
        signal = rng.choice(sorted(circuit.signals))
        at = rng.uniform(0.0, cfg.horizon - 0.2)
        faulty = execute(circuit, inputs, cfg, make_transient(signal, at, 0.1, "xpulse", base))
        times = sorted({e.time for e in base.events} | {e.time for e in faulty.events})
        for t in times:
            for s in circuit.signals:
                fv = trace_value_at(faulty.traces[s], t)
                if fv.is_boolean:
                    assert fv == trace_value_at(base.traces[s], t), (s, t)


def test_noop_externals_reproduce_pure_execution():
    """External events that set signals to their current values leave the
    execution untouched, including the extra visits they create."""
    rng = random.Random(14)
    for _ in range(N_QUICK):
        circuit, inputs, cfg = _case(rng)
        plain = execute(circuit, inputs, cfg)
        noops = []
        for k in range(1, 4):
            t = cfg.horizon * k / 4 + 0.001
            s = rng.choice(sorted(circuit.signals))
            noops.append(ExternalEvent(t, s, trace_value_at(plain.traces[s], t)))
        overlaid = execute(circuit, inputs, cfg, noops)
        assert overlaid.events == plain.events
        assert overlaid.traces == plain.traces


def _full_run_verdict(ctx, inputs, signal, at, width):
    """Reference verdict: the full execution to ctx.t_end, inputs held past
    the horizon, with the pulse overlaid; susceptible iff a monitored signal
    attains X."""
    cfg = SimConfig(ctx.t_end, ctx.config.epsilon)
    inputs = {name: dataclasses.replace(trace, horizon=ctx.t_end) for name, trace in inputs.items()}
    base = execute(ctx.circuit, inputs, cfg)
    faulty = execute(ctx.circuit, inputs, cfg, make_transient(signal, at, width, "xpulse", base))
    traces = [faulty.traces[m] for m in ctx.monitored]
    return any(tr.initial is Value.X or any(v is Value.X for _, v in tr.transitions) for tr in traces)


def test_probe_engine_matches_plain_susceptibility():
    """The seeded, early-exiting probe path gives the same verdicts as a
    full execution to T + settle with the pulse overlaid."""
    rng = random.Random(15)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while checked < 120:
            circuit, inputs, cfg = _case(rng, horizon=20)
            monitored = monitored_for(rng, circuit)
            ctx = _ProbeContext(circuit, inputs, cfg, monitored)
            for _ in range(6):
                signal = rng.choice(sorted(circuit.signals))
                at = rng.uniform(0.0, cfg.horizon - 0.11)
                fast = ctx.probe(signal, at, 0.1)
                slow = _full_run_verdict(ctx, inputs, signal, at, 0.1)
                assert fast == slow, (signal, at)
                checked += 1


def test_probe_engine_seeding_matches_full_runs():
    """Resuming from a snapshot reproduces the full run exactly: verdicts at
    late fault times equal fresh-run verdicts."""
    rng = random.Random(16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            circuit, inputs, cfg = _case(rng, horizon=30)
            monitored = monitored_for(rng, circuit)
            ctx = _ProbeContext(circuit, inputs, cfg, monitored)
            for at in (cfg.horizon * 0.55, cfg.horizon * 0.9):
                signal = rng.choice(sorted(circuit.signals))
                assert ctx.probe(signal, at, 0.1) == _full_run_verdict(ctx, inputs, signal, at, 0.1)
