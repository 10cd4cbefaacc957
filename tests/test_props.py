"""Randomized engine properties: determinism, prefixes, boundedness,
monotonicity of X, and probe-engine equivalence."""

import bisect
import dataclasses
import math
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from faultscope import (
    Circuit,
    ExternalEvent,
    SimConfig,
    Value,
    analysis,
    cli,
    count_events,
    execute,
    make_trace,
    trace_value_at,
)
from faultscope.analysis import Glitch, _may_repeat, _ProbeContext, faulty_execution, is_susceptible, make_transient
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    gate_and,
    gate_inverter,
    linear_pipeline,
    multibit_linear_pipeline,
    ring_pipeline,
)
from faultscope.netlist import serialize_circuit
from faultscope.sim import X, _kernel
from util import logged_kernel, monitored_for, random_circuit, random_input_traces

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


def _full_run_verdict(circuit, ctx, inputs, signal, at, width, kind="xpulse"):
    """Reference verdict: the full execution to ctx.run.t_end, inputs held past
    the horizon, with the pulse overlaid; susceptible iff a monitored signal
    attains X."""
    cfg = SimConfig(ctx.run.t_end, ctx.run.config.epsilon)
    inputs = {name: dataclasses.replace(trace, horizon=ctx.run.t_end) for name, trace in inputs.items()}
    base = execute(circuit, inputs, cfg)
    faulty = execute(circuit, inputs, cfg, make_transient(signal, at, width, kind, base))
    traces = [faulty.traces[m] for m in ctx.monitored]
    return any(tr.initial is Value.X or any(v is Value.X for _, v in tr.transitions) for tr in traces)


def _full_snapshot_run(ctx):
    """The context's fault-free run to T + settle in one kernel call, with a
    snapshot per visit and no cycle finder: its events, visit times and
    snapshots."""
    run = ctx.run
    full, visits = logged_kernel(run.comp, run.in_transitions, run.in_initial, run.t_end, run.config.epsilon, ())
    return types.SimpleNamespace(events=full.events, visit_times=visits.visit_times, snapshots=visits.snapshots)


def test_probe_engine_matches_plain_susceptibility():
    """The seeded, early-exiting probe path gives the same verdicts as a
    full execution to T + settle with the pulse overlaid."""
    rng = random.Random(15)
    checked = 0
    while checked < 120:
        circuit, inputs, cfg = _case(rng, horizon=20)
        monitored = monitored_for(rng, circuit)
        ctx = _ProbeContext(circuit, inputs, cfg, monitored)
        for _ in range(6):
            signal = rng.choice(sorted(circuit.signals))
            at = rng.uniform(0.0, cfg.horizon - 0.11)
            fast = ctx.probe(signal, at, 0.1)
            slow = _full_run_verdict(circuit, ctx, inputs, signal, at, 0.1)
            assert fast == slow, (signal, at)
            checked += 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hit_time_is_the_first_monitored_x_of_the_full_run(seed):
    """A probe stops right after the step that drives a monitored signal to
    X, with the rest of that visit not run; its hit time is still the time
    of the first monitored X of ``faulty_execution`` for the same glitch,
    the full run to T + settle with the pulse overlaid, or -inf when that X
    is the fault-free run's, before the pulse, and none when masked.
    Random gate soups with integer delays, whose runs may repeat, and
    pulses of both kinds, half of them on a grid of 0.05 so that many start
    or end at a visit time."""
    rng = random.Random(seed)
    circuit = random_circuit(rng, delay=lambda r: float(r.randint(1, 5)))
    T = float(rng.randrange(10, 40))
    inputs = random_input_traces(rng, circuit, T)
    cfg = SimConfig(T, 0.1)
    monitored = monitored_for(rng, circuit)
    contexts = {kind: _ProbeContext(circuit, inputs, cfg, monitored, kind) for kind in ("xpulse", "flip")}
    for _ in range(8):
        kind = rng.choice(sorted(contexts))
        signal = rng.choice(sorted(circuit.signals))
        width = rng.choice((0.1, 0.5, 2.0))
        at = rng.choice((rng.randrange(int((T - width) * 20)) / 20, rng.uniform(0.0, T - width)))
        glitch = Glitch(signal, at, width, kind)
        ctx = contexts[kind]
        try:
            sus = ctx.probe(signal, at, width)
        except ValueError:  # a flip-pulse on X
            with pytest.raises(ValueError, match="nothing to flip"):
                faulty_execution(circuit, inputs, glitch, cfg)
            continue
        faulty = faulty_execution(circuit, inputs, glitch, cfg)
        xs = [-math.inf for m in monitored if faulty.traces[m].initial is Value.X]
        xs += [ev.time for ev in faulty.events if ev.signal in monitored and ev.value is Value.X]
        first = min(xs, default=None)
        assert sus == (first is not None), (glitch, first)
        expected = -math.inf if first is None or first < at else first
        assert ctx.hit_time == expected, (glitch, ctx.hit_time, first)


def test_probe_engine_seeding_matches_full_runs():
    """Resuming from a snapshot reproduces the full run exactly: verdicts at
    late fault times equal fresh-run verdicts."""
    rng = random.Random(16)
    for _ in range(20):
        circuit, inputs, cfg = _case(rng, horizon=30)
        monitored = monitored_for(rng, circuit)
        ctx = _ProbeContext(circuit, inputs, cfg, monitored)
        for at in (cfg.horizon * 0.55, cfg.horizon * 0.9):
            signal = rng.choice(sorted(circuit.signals))
            assert ctx.probe(signal, at, 0.1) == _full_run_verdict(circuit, ctx, inputs, signal, at, 0.1)


def test_probe_engine_seeding_long_input_trace():
    """A resumed run starts at the first input transition after its
    snapshot: with hundreds of input transitions, a run resumed from a late
    snapshot records the base run's suffix, and verdicts at late fault times
    equal full-run verdicts."""
    rng = random.Random(17)
    for _ in range(6):
        circuit = random_circuit(rng, n_inputs=2)
        T = 150.0
        inputs = {}
        for name in sorted(circuit.inputs):
            initial = value = rng.choice((Value.ZERO, Value.ONE))
            t, steps = 0.0, []
            while (t := t + rng.randrange(4, 12) / 16.0) < T:
                value = Value.ONE if value is Value.ZERO else Value.ZERO
                steps.append((t, value))
            assert len(steps) >= 200
            inputs[name] = make_trace(initial, steps, horizon=float("inf"))
        cfg = SimConfig(T, 0.1)
        monitored = monitored_for(rng, circuit)
        ctx = _ProbeContext(circuit, inputs, cfg, monitored)
        base, run = _full_snapshot_run(ctx), ctx.run
        for seed in (base.snapshots[len(base.snapshots) // 2], base.snapshots[-2]):
            resumed = _kernel(
                run.comp, run.in_transitions, run.in_initial, run.t_end, 0.1, (), record=True, seed=seed
            )
            assert resumed.events == [ev for ev in base.events if ev[0] > seed.time]
        for at in (T * 0.55, T * 0.9, rng.uniform(0.0, T - 0.2), rng.uniform(0.0, T - 0.2)):
            signal = rng.choice(sorted(circuit.signals))
            assert ctx.probe(signal, at, 0.1) == _full_run_verdict(circuit, ctx, inputs, signal, at, 0.1)


# --- the fault-free run --------------------------------------------------------------


def _verdict_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # a flip-pulse on an X
        return str(exc)


def test_verdicts_near_horizon_and_both_pulse_kinds():
    """Pulses that end within d_max of T, X- and flip-pulses, on inputs that
    may carry X: a fresh context per query and one shared context probed in
    random order give full-run verdicts."""
    rng = random.Random(18)
    checked = 0
    while checked < 160:
        circuit, inputs, cfg = _case(rng, horizon=20, allow_x=rng.random() < 0.5)
        monitored = monitored_for(rng, circuit)
        kind = rng.choice(("xpulse", "flip"))
        shared = _ProbeContext(circuit, inputs, cfg, monitored, fault_kind=kind)
        for _ in range(4):
            signal = rng.choice(sorted(circuit.signals))
            at = cfg.horizon - 0.1 - rng.uniform(0.0, circuit.d_max)
            if rng.random() < 0.3:
                at = rng.uniform(0.0, at)
            fresh = _ProbeContext(circuit, inputs, cfg, monitored, fault_kind=kind)
            slow = _verdict_or_error(_full_run_verdict, circuit, fresh, inputs, signal, at, 0.1, kind)
            assert _verdict_or_error(fresh.probe, signal, at, 0.1) == slow, (signal, at, kind)
            assert _verdict_or_error(shared.probe, signal, at, 0.1) == slow, (signal, at, kind)
            checked += 1


def test_monitored_x_only_after_horizon_makes_every_pulse_susceptible():
    """Random circuits whose fault-free run first drives the monitored
    signal to X after T: every pulse is susceptible, also when the probe
    itself re-converges before T."""
    rng = random.Random(19)
    found = 0
    while found < 12:
        circuit, inputs, cfg = _case(rng, horizon=20, allow_x=True)
        t_end = cfg.horizon + analysis._settle(circuit, cfg)
        long_inputs = {name: dataclasses.replace(trace, horizon=t_end) for name, trace in inputs.items()}
        base = execute(circuit, long_inputs, SimConfig(t_end, 0.1))
        late = [
            s
            for s in sorted(circuit.driven)
            if base.traces[s].initial is not Value.X
            and any(v is Value.X for _, v in base.traces[s].transitions)
            and min(t for t, v in base.traces[s].transitions if v is Value.X) >= cfg.horizon
        ]
        if not late:
            continue
        found += 1
        for _ in range(4):
            signal = rng.choice(sorted(circuit.signals))
            at = rng.uniform(0.0, cfg.horizon - 0.11)
            ctx = _ProbeContext(circuit, inputs, cfg, late[:1])
            assert _full_run_verdict(circuit, ctx, inputs, signal, at, 0.1)
            assert ctx.probe(signal, at, 0.1), (signal, at)


def test_lookups_and_regions_match_full_snapshot_run():
    """With or without a probe first, a lookup at t gives the state after
    the last visit of the full fault-free run at or before t, also at visit
    times, and the regions equal those of the full run.  Only the states
    are compared: a resumed run does not revisit the due times of actions
    canceled before its seed, visits that change nothing."""
    rng = random.Random(20)
    for _ in range(30):
        circuit, inputs, cfg = _case(rng, horizon=20, allow_x=True)
        ctx = _ProbeContext(circuit, inputs, cfg, monitored_for(rng, circuit))
        full = _full_snapshot_run(ctx)
        if rng.random() < 0.5:
            ctx.probe(rng.choice(sorted(circuit.signals)), rng.uniform(1.0, cfg.horizon - 0.1), 0.1)
        times = rng.sample(full.visit_times, min(10, len(full.visit_times)))
        times += [rng.uniform(0.0, ctx.run.t_end) for _ in range(10)]
        rng.shuffle(times)
        for t in times:
            i = bisect.bisect_right(full.visit_times, t) - 1
            snap, want = ctx.run.snapshot(t), full.snapshots[i]
            assert snap.time <= t and (snap.values, snap.pend, snap.pend_x) == (want.values, want.pend, want.pend_x)
        assert ctx.run.regions == analysis._regions_from_times((ev[0] for ev in full.events), cfg.horizon)


def test_base_mon_x_counts_initial_x():
    """A monitored signal that starts at X makes every pulse susceptible,
    though no recorded event shows that X."""
    circuit = Circuit(
        inputs=["i0"],
        locals=["b"],
        outputs=["a"],
        initial={"a": Value.X, "b": Value.ONE},
        rules=gate_inverter("i0", "a", 1.0) + gate_inverter("i0", "b", 1.0),
    )
    inputs = {"i0": make_trace(Value.ZERO)}
    cfg = SimConfig(20.0, 0.1)
    ctx = _ProbeContext(circuit, inputs, cfg, {"a"})
    for at in (10.0, 5.0):
        assert _full_run_verdict(circuit, ctx, inputs, "b", at, 0.1)
        assert ctx.probe("b", at, 0.1)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The keyword arguments of every _kernel call the analysis makes, with
    its last visit."""
    calls = []

    def spy(*args, **kwargs):
        run, visits = logged_kernel(*args, **kwargs)
        last = visits.visit_times[-1] if visits.visit_times else None
        calls.append({**kwargs, "last": last})
        return run

    monkeypatch.setattr(analysis, "_kernel", spy)
    return calls


def _base_runs(calls):
    return [c for c in calls if c.get("record", True) is not False]


def _assert_base_runs_once_up_to(calls, t):
    """Exactly one fault-free run, whose last visit is t."""
    assert [c["last"] for c in _base_runs(calls)] == [t]


# Each test builds its own circuits: a circuit keeps its last fault-free run,
# so a circuit shared between tests would carry one test's run into the
# next test's kernel-call counts.
def _lin3():
    return linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))


LIN3_CFG = SimConfig(horizon=32.0, epsilon=0.1)
LIN3_T2 = 35.0  # LIN3's fault-free run repeats the stretch (13, 35]


def _lin3_dec():
    """LIN3 scaled by 1/10: its decimal delays take no cycle."""
    return linear_pipeline(PipelineSpec(3, 0.1, 0.5, 0.4, 0.4))


LIN3_DEC_CFG = SimConfig(horizon=3.2, epsilon=0.01)
LIN3_DEC_LAST = 6.3999999999999995  # the last visit of its run before T + settle, 6.4


@pytest.mark.parametrize("case,last", [((_lin3, LIN3_CFG), LIN3_T2), ((_lin3_dec, LIN3_DEC_CFG), LIN3_DEC_LAST)])
def test_probe_context_runs_the_base_once_when_built(kernel_calls, case, last):
    """Construction makes the one fault-free run, on LIN3 up to t2 and
    without a cycle up to the last visit before T + settle; later lookups,
    regions, base_mon_x and probes run no fault-free kernel."""
    make, cfg = case
    circuit, monitored = make()
    ctx = _ProbeContext(circuit, {}, cfg, monitored)
    _assert_base_runs_once_up_to(kernel_calls, last)
    kernel_calls.clear()
    for t in (0.0, cfg.horizon / 2, ctx.run.t_end):
        ctx.run.snapshot(t)
    assert ctx.run.regions and not ctx.base_mon_x
    for at in (0.0, cfg.horizon / 3, cfg.horizon - 0.2):
        ctx.probe("en3", at, cfg.epsilon)
    assert kernel_calls and _base_runs(kernel_calls) == []


def test_queries_run_the_base_once_up_to_its_repeat(kernel_calls):
    """The first query on a circuit, inputs and config, whether its probe
    hits or not, runs the fault-free run once until it repeats: on LIN3 to
    t2 and no further; on a circuit without a cycle, on to T + settle.
    Later queries and analyses on the same circuit, inputs and config share
    that run; another T makes a new one."""
    circuit, monitored = _lin3()
    # [9, 13) is susceptible throughout for c2, [0, 4) masked for en3
    assert is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, 0.1), LIN3_CFG)
    _assert_base_runs_once_up_to(kernel_calls, LIN3_T2)
    kernel_calls.clear()
    assert not is_susceptible(circuit, {}, monitored, Glitch("en3", 1.0, 0.1), LIN3_CFG)
    rng = random.Random(24)
    targets = sorted(circuit.signals - monitored)
    for _ in range(198):  # 200 queries in all
        is_susceptible(circuit, {}, monitored, Glitch(rng.choice(targets), rng.uniform(0.0, 31.9), 0.1), LIN3_CFG)
    assert kernel_calls and _base_runs(kernel_calls) == []
    # an analysis after the queries reads their run and reports what it
    # reports on a circuit that answered none
    report = analysis.analyze(circuit, {}, monitored, 0.1, 0.01, LIN3_CFG)
    assert _base_runs(kernel_calls) == []
    fresh, _ = _lin3()
    assert report == analysis.analyze(fresh, {}, monitored, 0.1, 0.01, LIN3_CFG)
    kernel_calls.clear()
    assert not is_susceptible(circuit, {}, monitored, Glitch("en3", 1.0, 0.1), SimConfig(40.0, 0.1))
    _assert_base_runs_once_up_to(kernel_calls, LIN3_T2)
    kernel_calls.clear()
    circuit, monitored = _lin3_dec()
    assert not is_susceptible(circuit, {}, monitored, Glitch("en3", 0.1, 0.01), LIN3_DEC_CFG)
    _assert_base_runs_once_up_to(kernel_calls, LIN3_DEC_LAST)


def test_queries_share_the_base_run_of_equal_inputs(kernel_calls):
    """Inputs are compared by value: equal traces in a new dict reuse the
    run, a trace that switches at another time makes a new one.  A horizon
    of 20 where the run was made at 20.0 makes a new one too, as its
    regions end at 20, not 20.0."""
    circuit = Circuit(
        inputs=["i"], locals=[], outputs=["o"], initial={"o": Value.ONE}, rules=gate_inverter("i", "o", 1.0)
    )
    cfg = SimConfig(20.0, 0.1)

    def query(switch, config=cfg):
        inputs = {"i": make_trace(Value.ZERO, [(switch, Value.ONE)])}
        return is_susceptible(circuit, inputs, {"o"}, Glitch("i", 5.0, 0.1), config)

    assert query(2.0)
    assert len(_base_runs(kernel_calls)) == 1
    assert query(2.0)
    assert len(_base_runs(kernel_calls)) == 1
    assert query(3.0)
    assert len(_base_runs(kernel_calls)) == 2
    assert query(3.0, SimConfig(20, 0.1))
    assert len(_base_runs(kernel_calls)) == 3


def test_inject_svg_runs_the_base_once(kernel_calls, tmp_path):
    """faultscope inject --out-svg takes its verdict and its picture's pulse
    from one fault-free run."""
    path = tmp_path / "lin3.prs"
    path.write_text(serialize_circuit(*_lin3()))
    svg = tmp_path / "f.svg"
    argv = ["inject", "--circuit", str(path), "--at", "c2@10:0.1", "--until", "32", "--out-svg", str(svg)]
    assert cli.main(argv) == 0
    _assert_base_runs_once_up_to(kernel_calls, LIN3_T2)


def test_faulty_execution_reads_the_query_run(kernel_calls):
    """faulty_execution after a query on the same circuit, inputs and config
    makes no fault-free run of its own."""
    circuit, monitored = _lin3()
    glitch = Glitch("c2", 10.0, 0.1)
    assert is_susceptible(circuit, {}, monitored, glitch, LIN3_CFG)
    kernel_calls.clear()
    faulty = analysis.faulty_execution(circuit, {}, glitch, LIN3_CFG)
    assert kernel_calls == []
    assert any(e.signal in monitored and e.value is Value.X for e in faulty.events)


def test_base_mon_x_found_once(kernel_calls):
    """An analysis runs the fault-free run once: on LIN3 up to t2, without
    a cycle up to the last visit before T + settle."""
    circuit, monitored = _lin3()
    report = analysis.analyze(circuit, {}, monitored, 0.1, 0.01, LIN3_CFG)
    assert report.simulations > 100
    _assert_base_runs_once_up_to(kernel_calls, LIN3_T2)
    kernel_calls.clear()
    circuit, monitored = _lin3_dec()
    report = analysis.analyze(circuit, {}, monitored, 0.01, 0.001, LIN3_DEC_CFG)
    assert report.simulations > 100
    _assert_base_runs_once_up_to(kernel_calls, LIN3_DEC_LAST)


# --- the fault-free run's cycle -------------------------------------------------------


def _integer_case(seed: int):
    """A circuit with integer delays, its inputs, monitored set and config:
    a ring with random tokens, or a random gate soup whose input traces
    stop switching before T."""
    rng = random.Random(seed)
    T = float(rng.randrange(10, 40))
    if rng.random() < 0.4:
        stages = rng.randrange(3, 12)
        spec = RingSpec(stages, rng.randint(1, (stages - 1) // 2), float(rng.randint(1, 3)), float(rng.randint(4, 7)))
        circuit, monitored = ring_pipeline(spec)
        return circuit, {}, monitored, SimConfig(T, 0.1)
    circuit = random_circuit(rng, delay=lambda r: float(r.randint(1, 5)))
    stop = rng.randrange(2, int(T))
    if rng.random() < 0.5:
        inputs = random_input_traces(rng, circuit, float(stop), allow_x=rng.random() < 0.3)
    else:
        # switching at integer times, so visits before the last one can
        # repeat a state too
        inputs = {}
        for name in sorted(circuit.inputs):
            value = rng.choice((Value.ZERO, Value.ONE))
            steps = []
            for t in sorted(rng.sample(range(1, stop), min(stop - 1, rng.randint(0, 4)))):
                value = Value.ONE if value is Value.ZERO else Value.ZERO
                steps.append((float(t), value))
            initial = (Value.ONE if value is Value.ZERO else Value.ZERO) if len(steps) % 2 else value
            inputs[name] = make_trace(initial, steps, horizon=float("inf"))
    return circuit, inputs, monitored_for(rng, circuit), SimConfig(T, 0.1)


def _check_against_full_run(circuit, ctx, inputs, full, rng, steps):
    """Run the context's lookups, regions, base_mon_x and probes in the
    order of ``steps`` and compare each with one full snapshot run."""
    T = ctx.run.config.horizon
    for step in steps:
        if step == "lookups":
            times = rng.sample(full.visit_times, min(8, len(full.visit_times)))
            times += [rng.uniform(0.0, ctx.run.t_end) for _ in range(8)] + [ctx.run.t_end]
            for t in times:
                i = bisect.bisect_right(full.visit_times, t) - 1
                snap, want = ctx.run.snapshot(t), full.snapshots[i]
                assert snap.time <= t
                assert (snap.values, snap.pend, snap.pend_x) == (want.values, want.pend, want.pend_x), t
        elif step == "regions":
            assert ctx.run.regions == analysis._regions_from_times((ev[0] for ev in full.events), T)
        elif step == "base_mon_x":
            mon = ctx.mon_ids
            want = any(ctx.run.initial_values[sid] == X for sid in mon) or any(
                fv == X and sid in mon for _, sid, fv, _ in full.events
            )
            assert ctx.base_mon_x == want
        else:
            signal = rng.choice(sorted(circuit.signals))
            at = rng.uniform(0.0, T - 0.1)
            slow = _verdict_or_error(_full_run_verdict, circuit, ctx, inputs, signal, at, 0.1, ctx.fault_kind)
            assert _verdict_or_error(ctx.probe, signal, at, 0.1) == slow, (signal, at)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.permutations(("lookups", "regions", "base_mon_x", "probe", "probe")),
    kind=st.sampled_from(("xpulse", "flip")),
)
def test_cycle_shift_matches_full_run(seed, steps, kind):
    """Whatever is read first, the cursor's snapshots at any t up to
    T + settle, its regions, base_mon_x and probe verdicts equal those of
    one full run, on circuits whose run repeats and on circuits whose run
    does not."""
    circuit, inputs, monitored, cfg = _integer_case(seed)
    ctx = _ProbeContext(circuit, inputs, cfg, monitored, fault_kind=kind)
    full = _full_snapshot_run(ctx)
    _check_against_full_run(circuit, ctx, inputs, full, random.Random(seed), steps)


def test_integer_cases_repeat():
    """The property above sees both kinds of run: a good share of its
    circuits repeat, with t1 < t2 <= T + settle."""
    periods = []
    for seed in range(60):
        circuit, inputs, monitored, cfg = _integer_case(seed)
        ctx = _ProbeContext(circuit, inputs, cfg, monitored)
        if ctx.run._period is not None:
            assert 0 <= ctx.run._t1 < ctx.run._t2 <= ctx.run.t_end
            periods.append(ctx.run._period)
    assert 15 <= len(periods) <= 50


@pytest.mark.parametrize(
    "make,T,t1,t2",
    [
        (lambda: _lin3(), 32.0, 13.0, 35.0),
        (lambda: multibit_linear_pipeline(MultiBitSpec(4)), 500.0, 13.0, 125.0),
        (lambda: ring_pipeline(RingSpec(20, 5)), 200.0, 5.0, 29.0),
    ],
)
def test_presets_repeat(kernel_calls, make, T, t1, t2):
    """The generator presets run autonomously on integer delays, so their
    runs repeat early: the context's run stops at t2, and later lookups and
    base_mon_x run nothing."""
    circuit, monitored = make()
    ctx = _ProbeContext(circuit, {}, SimConfig(T, 0.1), monitored)
    assert not ctx.base_mon_x
    assert (ctx.run._t1, ctx.run._t2, ctx.run._period) == (t1, t2, t2 - t1)
    assert [c["last"] for c in kernel_calls] == [t2]
    ctx = _ProbeContext(circuit, {}, SimConfig(T, 0.1), monitored)
    ctx.run.snapshot(t2 + 1.0)
    assert ctx.run._period == t2 - t1
    kernel_calls.clear()
    assert not ctx.base_mon_x and kernel_calls == []


def test_cycle_waits_for_the_last_input():
    """A ring of three inverters repeats long before the input rises at 20
    and lets the ring through to o: only visits after the last input
    transition may key a cycle."""
    ring = gate_inverter("b3", "b1", 1.0) + gate_inverter("b1", "b2", 2.0) + gate_inverter("b2", "b3", 1.0)
    circuit = Circuit(
        inputs=["i0"],
        locals=["b1", "b2", "b3"],
        outputs=["o"],
        initial={"b1": Value.ZERO, "b2": Value.ONE, "b3": Value.ZERO, "o": Value.ZERO},
        rules=ring + gate_and("i0", "b1", "o", 1.0),
    )
    inputs = {"i0": make_trace(Value.ZERO, [(20.0, Value.ONE)])}
    ctx = _ProbeContext(circuit, inputs, SimConfig(30.0, 0.1), {"o"})
    full = _full_snapshot_run(ctx)
    steps = ["lookups", "regions", "base_mon_x", "probe"]
    _check_against_full_run(circuit, ctx, inputs, full, random.Random(23), steps)
    assert ctx.run._t1 > 20.0


def test_lookups_after_a_probe_past_t1_match_full_run():
    """A fresh probe at 20 runs LIN3 a little past its pulse, past t1 = 13,
    and later lookups find t2 = 35.  Every lookup, also those shifted into
    the stretch (13, 35], equals the full run."""
    circuit, monitored = _lin3()
    ctx = _ProbeContext(circuit, {}, LIN3_CFG, monitored)
    full = _full_snapshot_run(ctx)
    ctx.probe("en3", 20.0, 0.1)
    for t in [40.0, 36.5, 61.0] + [float(t) for t in range(67)]:
        i = bisect.bisect_right(full.visit_times, t) - 1
        snap, want = ctx.run.snapshot(t), full.snapshots[i]
        assert (snap.time, snap.values, snap.pend, snap.pend_x) == (want.time, want.values, want.pend, want.pend_x), t
    assert (ctx.run._t1, ctx.run._t2) == (13.0, LIN3_T2)


def test_fold_edges_match_full_run():
    """At T=44 LIN3's run ends at T + settle = 79 = t2 + 2p, with p = 22,
    and has no visit there.  Lookups at t2 + p, at t2 + 2p and at the float
    just below each fold into the stretch (13, 35] and equal the full run:
    the one at 79 finds the visit at 78."""
    circuit, monitored = _lin3()
    ctx = _ProbeContext(circuit, {}, SimConfig(44.0, 0.1), monitored)
    run, full = ctx.run, _full_snapshot_run(ctx)
    assert (run._t1, run._t2, run.t_end) == (13.0, LIN3_T2, 79.0)
    edges = [LIN3_T2 + 22.0, LIN3_T2 + 44.0]
    for t in edges + [math.nextafter(t, -math.inf) for t in edges]:
        i = bisect.bisect_right(full.visit_times, t) - 1
        snap, want = run.snapshot(t), full.snapshots[i]
        assert (snap.time, snap.values, snap.pend, snap.pend_x) == (want.time, want.values, want.pend, want.pend_x), t
    assert run.snapshot(run.t_end).time == 78.0


def test_decimal_delays_take_no_cycle():
    """With delays 0.1/0.5/0.4 the cursor looks for no cycle and runs on to
    T + settle; lookups, regions, base_mon_x and verdicts are unchanged."""
    circuit, monitored = _lin3_dec()
    ctx = _ProbeContext(circuit, {}, LIN3_DEC_CFG, monitored)
    assert not _may_repeat(ctx.run.comp.delays, ctx.run.t_end)
    full = _full_snapshot_run(ctx)
    rng = random.Random(21)
    steps = ["probe"] * 4 + ["base_mon_x", "regions", "lookups"] + ["probe"] * 8
    for step in steps:
        # probes of width 0.1 over a d_max of 0.5
        _check_against_full_run(circuit, ctx, {}, full, rng, [step])
    assert ctx.run._period is None


def test_x_in_steady_state_takes_no_cycle():
    """Integer delays and a ring of three inverters that oscillates, but the
    input turns X for good: no cycle, and the cursor reads as one full
    run."""
    ring = gate_inverter("b3", "b1", 1.0) + gate_inverter("b1", "b2", 2.0) + gate_inverter("b2", "b3", 1.0)
    circuit = Circuit(
        inputs=["i0"],
        locals=["a", "b2", "b3"],
        outputs=["b1"],
        initial={"a": Value.ZERO, "b1": Value.ZERO, "b2": Value.ONE, "b3": Value.ZERO},
        rules=gate_inverter("i0", "a", 1.0) + ring,
    )
    inputs = {"i0": make_trace(Value.ONE, [(3.0, Value.X)])}
    cfg = SimConfig(20.0, 0.1)
    ctx = _ProbeContext(circuit, inputs, cfg, {"b1"})
    full = _full_snapshot_run(ctx)
    steps = ["probe", "base_mon_x", "lookups", "regions", "probe"]
    _check_against_full_run(circuit, ctx, inputs, full, random.Random(22), steps)
    assert _may_repeat(ctx.run.comp.delays, ctx.run.t_end) and ctx.run._period is None


def test_pulse_can_mask_a_fault_free_x():
    """A fault-free run that drives a monitored signal to X does not make
    every pulse susceptible: here a flip-pulse on d3 just before i0 falls
    keeps d3 from rising, so d1 never goes X, and the probe agrees with the
    full run.  A pulse after the fault-free X is susceptible."""
    circuit, inputs, monitored, cfg = _integer_case(3049)
    ctx = _ProbeContext(circuit, inputs, cfg, monitored, fault_kind="flip")
    assert ctx.base_mon_x
    for at, want in ((12.65204645274385, False), (14.0, True)):
        assert _full_run_verdict(circuit, ctx, inputs, "d3", at, 0.1, "flip") is want
        assert ctx.probe("d3", at, 0.1) is want
        assert ctx.probe("d3", at, 0.1, memo={}) is want
