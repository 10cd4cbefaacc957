"""Periodic runs: the regions past t2 replay the verdicts of their period
source, and come out as if bisected with real probes."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from faultscope import SimConfig, Value, analyze
from faultscope.analysis import (
    Glitch,
    SensitivityWindow,
    ValueRegion,
    _locate_window,
    _ProbeContext,
    _Verdicts,
    _windows_for_signal,
    faulty_execution,
)
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    multibit_linear_pipeline,
    ring_pipeline,
)

GAMMA, DELTA = 0.1, 0.05

CASES = [
    pytest.param(lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 100.0, (13.0, 35.0), id="linear-3"),
    pytest.param(lambda: ring_pipeline(RingSpec(12, 1, 1, 5)), 100.0, (10.0, 70.0), id="ring12/1"),
    pytest.param(lambda: ring_pipeline(RingSpec(8, 2, 1, 5)), 40.0, (5.0, 29.0), id="ring8/2"),
]


def _bisected(ctx, signal):
    """The windows of a signal from one real bisection per region."""
    out = []
    for region in ctx.run.regions:
        start, end = _locate_window(lambda at: ctx.probe(signal, at, GAMMA), region, GAMMA, DELTA)
        if start < end:
            out.append(SensitivityWindow(signal, start, end))
    return out


def _check_replay_equals_bisection(circuit, monitored, T):
    """Per injected signal, the windows equal a real bisection of every
    region; returns the probe counts of both."""
    cfg = SimConfig(T, 0.1)
    replayed = _ProbeContext(circuit, {}, cfg, monitored)
    real = _ProbeContext(circuit, {}, cfg, monitored)
    for signal in sorted(circuit.signals - monitored):
        assert _windows_for_signal(replayed, signal, GAMMA, DELTA)[0] == _bisected(real, signal), signal
    return replayed.simulations, real.simulations


@pytest.mark.parametrize("make,T,cycle", CASES)
def test_replay_equals_bisection(make, T, cycle):
    circuit, monitored = make()
    run = _ProbeContext(circuit, {}, SimConfig(T, 0.1), monitored).run
    assert (run._t1, run._t2) == cycle and cycle[1] < T
    replayed, real = _check_replay_equals_bisection(circuit, monitored, T)
    assert replayed < real


@pytest.mark.parametrize("make,T,cycle", CASES)
def test_replay_same_report_on_two_jobs(make, T, cycle):
    circuit, monitored = make()
    cfg = SimConfig(T, 0.1)
    assert analyze(circuit, {}, monitored, GAMMA, DELTA, cfg, jobs=2) == analyze(
        circuit, {}, monitored, GAMMA, DELTA, cfg
    )


_delay = st.integers(1, 3).map(float)
_specs = st.one_of(
    st.builds(
        lambda stages, tokens, inv, mce: ring_pipeline(RingSpec(stages, min(tokens, (stages - 1) // 2), inv, mce)),
        st.integers(3, 8),
        st.integers(1, 3),
        _delay,
        st.integers(4, 6).map(float),
    ),
    st.builds(
        lambda stages, inv, mce, source, sink: linear_pipeline(PipelineSpec(stages, inv, mce, source, sink)),
        st.integers(2, 4),
        _delay,
        st.integers(4, 6).map(float),
        st.integers(1, 8).map(float),
        st.integers(1, 8).map(float),
    ),
)


@settings(max_examples=30, deadline=None)
@given(made=_specs, T=st.integers(40, 120).map(float))
def test_replay_equals_bisection_on_small_specs(made, T):
    circuit, monitored = made
    replayed, real = _check_replay_equals_bisection(circuit, monitored, T)
    assert replayed <= real


def test_probe_keeps_its_hit_time():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    cfg = SimConfig(32.0, 0.1)
    ctx = _ProbeContext(circuit, {}, cfg, monitored)
    assert ctx.probe("c2", 10.0, GAMMA)
    faulty = faulty_execution(circuit, {}, Glitch("c2", 10.0, GAMMA), cfg)
    assert ctx.hit_time == min(ev.time for ev in faulty.events if ev.signal in monitored and ev.value is Value.X)
    assert not ctx.probe("c2", 22.0, GAMMA)
    assert ctx.hit_time == -math.inf


@pytest.mark.parametrize(
    "make,T",
    [
        pytest.param(lambda: ring_pipeline(RingSpec(8, 2, 1, 5)), 40.0, id="ring8/2"),
        pytest.param(lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 500.0, id="linear-3"),
    ],
)
def test_last_region_is_bisected_for_real(make, T):
    """The last region starts past t2 and folds onto an earlier one, but T
    may cut it, so it replays nothing: every verdict with ``at`` in it is a
    real probe, and its windows are those of a real bisection."""
    circuit, monitored = make()
    cfg = SimConfig(T, 0.1)
    ctx, real = _ProbeContext(circuit, {}, cfg, monitored), _ProbeContext(circuit, {}, cfg, monitored)
    last = ctx.run.regions[-1]
    assert last.start > ctx.run._t2 and ctx.run.fold(last.start) > 0
    probed, real_probed = _recording(ctx), _recording(real)
    for signal in sorted(circuit.signals - monitored):
        probed.clear(), real_probed.clear()
        windows, _, _ = _windows_for_signal(ctx, signal, GAMMA, DELTA)
        start, end = _locate_window(lambda at: real.probe(signal, at, GAMMA), last, GAMMA, DELTA)
        assert [at for at in probed if at >= last.start] == real_probed, signal
        expected = [SensitivityWindow(signal, start, end)] if start < end else []
        assert [w for w in windows if w.start >= last.start] == expected, signal


def _recording(ctx):
    """Make the context log the ``at`` of every real probe it runs."""
    probe, log = ctx.probe, []

    def recorded(signal, at, width):
        log.append(at)
        return probe(signal, at, width)

    ctx.probe = recorded
    return log


# --- the hit-time rule, on scripted verdicts ---------------------------------------------


class _ScriptedRun:
    """Three regions, each the one before shifted by 10, the last cut at
    T = 25; ``fold`` moves a time back by whole periods of 10 into [0, 10)."""

    regions = [ValueRegion(0.0, 10.0, 0), ValueRegion(10.0, 20.0, 1), ValueRegion(20.0, 25.0, 2)]
    t_end = 25.0

    def fold(self, t):
        return t // 10.0 * 10.0


class _ScriptedContext:
    """Susceptible from 5 on in every period; a susceptible probe at ``at``
    hits at ``hit(at)``, a masked one leaves ``hit_time`` at ``masked_hit``,
    which the rule must ignore."""

    def __init__(self, hit, masked_hit: float = math.inf, susceptible: bool = True):
        self.run = _ScriptedRun()
        self.hit, self.masked_hit, self.susceptible = hit, masked_hit, susceptible
        self.simulations = 0
        self.probed: list[float] = []
        self.hit_time = -math.inf

    def probe(self, signal, at, width):
        self.simulations += 1
        self.probed.append(at)
        sus = self.susceptible and at % 10.0 >= 5.0
        self.hit_time = self.hit(at) if sus else self.masked_hit
        return sus


@pytest.mark.parametrize(
    "hit,replays",
    [
        (lambda at: 14.5, True),
        (lambda at: 15.0, False),
        # the probe at the end, 9.9, hits last in time but not last in order
        (lambda at: at + 5.2, False),
    ],
)
def test_late_hit_in_source_bisects_for_real(hit, replays):
    # T + settle - k·p = 25 - 10 = 15: a source hit at or after it may not
    # come before T + settle once shifted
    ctx = _ScriptedContext(hit)
    first, second = _windows_for_signal(ctx, "s", GAMMA, DELTA)[0]
    assert abs(first.start - 5.0) <= DELTA and first.end == 10.0
    assert abs(second.start - 15.0) <= DELTA and second.end == 20.0
    in_source = sum(1 for at in ctx.probed if at < 10.0)
    in_later = sum(1 for at in ctx.probed if 10.0 <= at < 20.0)
    assert in_later == (0 if replays else in_source)
    # the last region, masked at both ends, is probed for real
    assert [at for at in ctx.probed if at >= 20.0] == [20.0, 24.9]


def test_masked_source_always_replays():
    # the second region replays the masked first one; the last region,
    # which T cuts, is probed for real although fold gives it a source
    ctx = _ScriptedContext(lambda at: math.inf, susceptible=False)
    assert _windows_for_signal(ctx, "s", GAMMA, DELTA)[0] == []
    assert ctx.probed == [0.0, 9.9, 20.0, 24.9]


def test_replay_falls_back_to_real_probes():
    # a record that stops short: the bisection gets the recorded verdicts,
    # then probes for real, and finds what a real bisection finds
    region = ValueRegion(10.0, 20.0, 1)
    real = _ScriptedContext(lambda at: 0.0)
    full = _Verdicts(real, "s", GAMMA)
    expected = _locate_window(full, region, GAMMA, DELTA)
    assert len(full.verdicts) > 3

    ctx = _ScriptedContext(lambda at: 0.0)
    replay = _Verdicts(ctx, "s", GAMMA, full.verdicts[:3])
    assert _locate_window(replay, region, GAMMA, DELTA) == expected
    assert ctx.probed == real.probed[3:]
    assert replay.verdicts == full.verdicts[3:]


# --- period sources ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make,T",
    [
        (lambda: ring_pipeline(RingSpec(20, 5, 1, 5)), 200.0),
        (lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0),
    ],
)
def test_period_sources(make, T):
    """``fold`` gives each region that starts past t2, except the last, a
    source in (t1, t2] of the same length, whole periods earlier."""
    circuit, monitored = make()
    run = _ProbeContext(circuit, {}, SimConfig(T, 0.1), monitored).run
    t1, t2, p = run._t1, run._t2, run._period
    regions = run.regions
    by_start = {r.start: r for r in regions}
    later = [r for r in regions[:-1] if r.start > t2]
    assert later
    for r in regions:
        shift = run.fold(r.start)
        if r.start <= t2:
            assert shift == 0.0
        if r not in later:
            continue
        s = by_start[r.start - shift]
        assert t1 < s.start <= t2
        assert s.length == r.length
        assert shift > 0 and (shift / p).is_integer()
