"""The probe memo of one signal's bisection: every verdict and hit time is
the one a probe without it gives, and it saves kernel visits."""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from faultscope import SimConfig, analysis, analyze
from faultscope.analysis import _ProbeContext, _windows_for_signal
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    multibit_linear_pipeline,
    ring_pipeline,
)
from util import monitored_for, random_circuit, random_delay, random_input_traces

GAMMA, DELTA = 0.1, 0.05


def _check_memo_is_exact(circuit, inputs, monitored, horizon, kind="xpulse", gamma=GAMMA, epsilon=0.1):
    """Bisect every injected signal with the memo, checking each of its
    probes against a probe without one on a second context, and check that
    the windows, real-probe counts and prefix-shaped regions are those of a
    bisection without the memo, or that both raise the same error (a
    flip-pulse where the signal is X).  Returns the number of probes
    checked and the number of them that made no ``_kernel`` call where the
    probe without the memo made one: those decided by a local-gap
    certificate."""
    cfg = SimConfig(horizon, epsilon)
    memoized = _ProbeContext(circuit, inputs, cfg, monitored, kind)
    plain = _ProbeContext(circuit, inputs, cfg, monitored, kind)
    with_memo, without = memoized.probe, plain.probe
    checked, certified = [], []
    calls = 0
    kernel = analysis._kernel

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    def probe(signal, at, width, memo=None):
        assert memo is not None
        before = calls
        sus = with_memo(signal, at, width, memo=memo)
        ran = calls > before
        assert (sus, memoized.hit_time) == (without(signal, at, width), plain.hit_time), (signal, at)
        checked.append(at)
        if not ran and calls > before:
            certified.append(at)
        return sus

    def windows(ctx, signal):
        try:
            return _windows_for_signal(ctx, signal, gamma, DELTA)
        except ValueError as e:
            return str(e)

    memoized.probe = probe
    plain.probe = lambda signal, at, width, memo=None: without(signal, at, width)
    with mock.patch.object(analysis, "_kernel", counting):
        for signal in sorted(circuit.signals - set(monitored)):
            assert windows(memoized, signal) == windows(plain, signal), signal
    return len(checked), len(certified)


def test_memo_is_exact_on_random_circuits():
    """Random gate soups under random input traces, X-pulses and
    flip-pulses, with ε = 0.1 or, under delays down to 1/16, half the
    shortest delay, and γ below, at or above ε; inputs may carry X.  With
    integer delays the run may repeat once the inputs stop at T, so probes
    key states and local gaps at folded visit times too.  In the pinned
    example, the pulse of d0 at the visit 7.6875 meets there the state that
    the probe at 4.0625 left, d0 at X included, but its own restore is
    still to come: a key taken before the pulse end takes the earlier,
    susceptible verdict for this masked one.  In the second, no rule reads
    the input i0, so every pulse on it certifies its gap; the pulse at
    8.2125 ends at 8.3125, where the fault-free run drives d2 to X, so a
    certified probe's hit time is the first monitored X after its seed,
    not the first one after its pulse end.  Local-gap certificates must
    decide some probes over the draws, or a certificate that never fires
    would pass."""
    certified = []

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        delays=st.sampled_from(["integer", "sixteenths", "short"]),
        kind=st.sampled_from(["xpulse", "flip"]),
        width=st.sampled_from(["below", "at", "above"]),
        x_inputs=st.booleans(),
    )
    @example(seed=722, delays="sixteenths", kind="xpulse", width="at", x_inputs=False)
    @example(seed=3, delays="sixteenths", kind="xpulse", width="at", x_inputs=False)
    def check(seed, delays, kind, width, x_inputs):
        rng = random.Random(seed)
        delay = {
            "integer": lambda r: float(r.randint(1, 5)),
            "sixteenths": random_delay,
            "short": lambda r: r.randrange(1, 81) / 16.0,
        }[delays]
        circuit = random_circuit(rng, delay=delay)
        T = float(rng.randrange(10, 40))
        inputs = random_input_traces(rng, circuit, T, allow_x=x_inputs)
        epsilon = min(0.1, min(r.delay for r in circuit.rules) / 2)
        gamma = {"below": epsilon / 2, "at": epsilon, "above": epsilon + 0.1}[width]
        _, fired = _check_memo_is_exact(circuit, inputs, monitored_for(rng, circuit), T, kind, gamma, epsilon)
        certified.append(fired)

    check()
    assert sum(certified) > 0, certified


@pytest.mark.parametrize(
    "make,T",
    [
        pytest.param(lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 32.0, id="linear-3/32"),
        pytest.param(lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 500.0, id="linear-3/500"),
        pytest.param(lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0, id="mb4/500"),
        pytest.param(lambda: ring_pipeline(RingSpec(20, 9, 1, 5)), 200.0, id="ring20/9"),
    ],
)
def test_memo_is_exact_on_presets(make, T):
    circuit, monitored = make()
    assert _check_memo_is_exact(circuit, {}, monitored, T)[0] > 0


@pytest.mark.parametrize(
    "make,T,probes,visits,without",
    [
        pytest.param(lambda: ring_pipeline(RingSpec(20, 9, 1, 5)), 200.0, 3829, 44951, 104903, id="ring20/9"),
        pytest.param(
            lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0, 14698, 50648, 104766, id="mb4/500"
        ),
    ],
)
def test_memo_saves_probe_visits(monkeypatch, make, T, probes, visits, without):
    """The probes and probe-kernel visits of one analysis, pinned, against
    the visits the same probes make without the memo; a memo that misses
    a state an earlier probe reached, or a local gap an earlier probe
    certified, makes more visits."""
    counted_visits = 0
    kernel = analysis._kernel

    def counting(*args, **kwargs):
        if kwargs.get("record", True) is False:
            hook = kwargs["after_visit"]

            def counted(*state):
                nonlocal counted_visits
                counted_visits += 1
                return hook(*state)

            kwargs["after_visit"] = counted
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "_kernel", counting)
    circuit, monitored = make()
    report = analyze(circuit, {}, monitored, GAMMA, DELTA, SimConfig(T, 0.1))
    assert report.simulations == probes
    assert counted_visits == visits < without


@pytest.mark.parametrize(
    "make,T,probes,certified",
    [
        pytest.param(lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 32.0, 150, 16, id="linear-3/32"),
        pytest.param(
            lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0, 14698, 4609, id="mb4/500"
        ),
    ],
)
def test_certificates_decide_probes_without_a_kernel_run(monkeypatch, make, T, probes, certified):
    """The probes of one analysis that a local-gap certificate decides, with
    no ``_kernel`` call, pinned: verdicts would not show a certificate that
    stopped firing.  Neither fault-free run drives a monitored X, so every
    other probe runs the kernel."""
    runs = 0
    kernel = analysis._kernel

    def counting(*args, **kwargs):
        nonlocal runs
        runs += kwargs.get("record", True) is False
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "_kernel", counting)
    circuit, monitored = make()
    report = analyze(circuit, {}, monitored, GAMMA, DELTA, SimConfig(T, 0.1))
    assert (report.simulations, report.simulations - runs) == (probes, certified)


@pytest.mark.parametrize(
    "make,T",
    [
        pytest.param(lambda: ring_pipeline(RingSpec(20, 9, 1, 5)), 200.0, id="ring20/9"),
        pytest.param(lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0, id="mb4/500"),
    ],
)
def test_visit_time_lookup_matches_snapshots(make, T):
    """A probe's after-visit hook asks whether t is a fault-free visit time
    by one lookup in ``visit_times``, of t folded past t2; the answer is
    ``run.snapshot(t).time == t`` at every fault-free visit time, 0.1 after
    each, and at both shifted by whole periods past t2, up to T + settle."""
    circuit, monitored = make()
    run = _ProbeContext(circuit, {}, SimConfig(T, 0.1), monitored).run

    def lookup(t):  # as _ProbeContext.probe's after-visit hook asks
        return (t - run.fold(t) if t > run._t2 else t) in run.visit_times

    base = sorted(run.visit_times)
    points = base + [t + 0.1 for t in base]
    if run._period is not None:
        shifts = range(1, int((run.t_end - run._t1) // run._period) + 1)
        points += [t + k * run._period for k in shifts for t in points if run._t1 < t <= run._t2]
    points = [t for t in points if t < run.t_end]
    assert run._period is not None and max(points) > run._t2 + run._period
    answers = [lookup(t) for t in points]
    assert answers == [run.snapshot(t).time == t for t in points]
    assert answers.count(True) > len(base) and answers.count(False) > len(base)


@pytest.mark.parametrize(
    "make,T",
    [
        pytest.param(lambda: ring_pipeline(RingSpec(20, 9, 1, 5)), 200.0, id="ring20/9"),
        pytest.param(lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)), 500.0, id="mb4/500"),
    ],
)
def test_snapshots_carry_their_visit_index(make, T):
    """Every kept snapshot's ``index`` is its position in the run.  Past t2,
    the snapshot ``snapshot(t)`` gives keeps the index of the visit it folds
    onto, so ``time - _times[index]`` is ``fold(t)``, from which a probe
    reads its local gap end; its state is that kept visit's, shifted."""
    circuit, monitored = make()
    run = _ProbeContext(circuit, {}, SimConfig(T, 0.1), monitored).run
    assert [snap.index for snap in run._snaps] == list(range(len(run._times)))
    assert run._period is not None and run._t2 < T
    stretch = [t for t in run._times if run._t1 < t <= run._t2]
    shifts = range(1, int((T - run._t1) // run._period) + 1)
    starts = [t + k * run._period for k in shifts for t in stretch]
    starts += [math.nextafter(t, -math.inf) for t in starts] + [t + 0.05 for t in starts]
    starts = [t for t in starts if run._t2 < t < T]
    assert len(starts) > len(stretch)
    for t in starts:
        snap = run.snapshot(t)
        shift = run.fold(t)
        assert snap.time - run._times[snap.index] == shift > 0, t
        kept = run._snaps[snap.index]
        assert snap.values == kept.values, t
        assert snap.pend == {rid: due + shift for rid, due in kept.pend.items()}, t
        assert snap.pend_x == {sid: due + shift for sid, due in kept.pend_x.items()}, t
