"""The probe memo of one signal's bisection: every verdict and hit time is
the one a probe without it gives, and it saves kernel visits."""

import random

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


def _check_memo_is_exact(circuit, inputs, monitored, cfg):
    """Bisect every injected signal with the memo, checking each of its
    probes against a probe without one on a second context, and check that
    the windows, real-probe counts and prefix-shaped regions are those of a
    bisection without the memo.  Returns the number of probes checked."""
    memoized = _ProbeContext(circuit, inputs, cfg, monitored)
    plain = _ProbeContext(circuit, inputs, cfg, monitored)
    with_memo, without = memoized.probe, plain.probe
    checked = []

    def probe(signal, at, width, memo=None):
        assert memo is not None
        sus = with_memo(signal, at, width, memo=memo)
        assert (sus, memoized.hit_time) == (without(signal, at, width), plain.hit_time), (signal, at)
        checked.append(at)
        return sus

    memoized.probe = probe
    plain.probe = lambda signal, at, width, memo=None: without(signal, at, width)
    for signal in sorted(circuit.signals - set(monitored)):
        assert _windows_for_signal(memoized, signal, GAMMA, DELTA) == _windows_for_signal(
            plain, signal, GAMMA, DELTA
        ), signal
    return len(checked)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), integer_delays=st.booleans())
@example(seed=722, integer_delays=False)
def test_memo_is_exact_on_random_circuits(seed, integer_delays):
    """Random gate soups under random input traces; with integer delays the
    run may repeat once the inputs stop at T, so probes key states at folded
    visit times too.  In the pinned example, the pulse of d0 at the visit
    7.6875 meets there the state that the probe at 4.0625 left, d0 at X
    included, but its own restore is still to come: a key taken before the
    pulse end takes the earlier, susceptible verdict for this masked one."""
    rng = random.Random(seed)
    circuit = random_circuit(rng, delay=(lambda r: float(r.randint(1, 5))) if integer_delays else random_delay)
    T = float(rng.randrange(10, 40))
    inputs = random_input_traces(rng, circuit, T)
    _check_memo_is_exact(circuit, inputs, monitored_for(rng, circuit), SimConfig(T, 0.1))


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
    assert _check_memo_is_exact(circuit, {}, monitored, SimConfig(T, 0.1)) > 0


def test_memo_saves_probe_visits(monkeypatch):
    """The probe-kernel visits of one analysis of ring20/9 at T=200, pinned:
    104,903 without the memo."""
    visits = 0
    kernel = analysis._kernel

    def counting(*args, **kwargs):
        if kwargs.get("record", True) is False:
            hook = kwargs["after_visit"]

            def counted(*state):
                nonlocal visits
                visits += 1
                return hook(*state)

            kwargs["after_visit"] = counted
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "_kernel", counting)
    circuit, monitored = ring_pipeline(RingSpec(20, 9, 1, 5))
    report = analyze(circuit, {}, monitored, GAMMA, DELTA, SimConfig(200.0, 0.1))
    assert report.simulations == 3829
    assert visits == 45035 < 104903
