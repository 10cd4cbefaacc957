"""Per-region bisection against the grid-scan oracle."""

import math
import random

import pytest

from faultscope import SimConfig
from faultscope.analysis import (
    Glitch,
    _ProbeContext,
    ValueRegion,
    _locate_window,
    analyze,
    analyze_naive,
    is_susceptible,
)
from faultscope.generators import MultiBitSpec, PipelineSpec, linear_pipeline, multibit_linear_pipeline
from util import monitored_for, random_circuit, random_input_traces

CFG = SimConfig(horizon=32.0, epsilon=0.1)
GAMMA, DELTA = 0.1, 0.01


@pytest.fixture(scope="module")
def ctx():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    return _ProbeContext(circuit, {}, CFG, monitored)


def _region(ctx, start):
    return next(r for r in ctx.run.regions if r.start == start)


def _verdicts(ctx, signal):
    return lambda at: ctx.probe(signal, at, GAMMA)


def test_fully_susceptible_region_two_probes(ctx):
    # [9, 13) for c2: both endpoint probes susceptible
    region = _region(ctx, 9.0)
    before = ctx.simulations
    assert _locate_window(_verdicts(ctx, "c2"), region, GAMMA, DELTA) == (region.start, region.end)
    assert ctx.simulations - before == 2


def test_fully_masked_region_two_probes(ctx):
    # [0, 4) for en3 is masked end to end: the last stage holds spacers and
    # its pull-down is blocked with the output already low
    region = _region(ctx, 0.0)
    before = ctx.simulations
    assert _locate_window(_verdicts(ctx, "en3"), region, GAMMA, DELTA) == (region.end, region.end)
    assert ctx.simulations - before == 2


def test_region_shorter_than_pulse_single_probe(ctx):
    region = ValueRegion(9.0, 9.05, 99)
    before = ctx.simulations
    window = _locate_window(_verdicts(ctx, "c2"), region, GAMMA, DELTA)
    assert window in ((region.start, region.end), (region.end, region.end))
    assert ctx.simulations - before == 1


def test_probe_budget_per_region(ctx):
    for signal in ("c2", "en1", "src"):
        for region in ctx.run.regions:
            before = ctx.simulations
            _locate_window(_verdicts(ctx, signal), region, GAMMA, DELTA)
            used = ctx.simulations - before
            bound = 2 + max(0, math.ceil(math.log2(max(region.length, DELTA) / DELTA)))
            assert used <= bound


def test_mixed_region_matches_grid_scan():
    # frozen random instance with a genuinely mixed region: masked on the
    # left, susceptible on the right (verified against a 0.005 grid scan)
    rng = random.Random(0)
    circuit = random_circuit(rng)
    horizon = 30.0
    cfg = SimConfig(horizon, 0.1)
    inputs = random_input_traces(rng, circuit, horizon)
    monitored = monitored_for(rng, circuit)
    ctx = _ProbeContext(circuit, inputs, cfg, monitored)
    region = next(r for r in ctx.run.regions if r.start == 2.875)
    assert region.end == 4.9375
    tau, end = _locate_window(_verdicts(ctx, "d0"), region, GAMMA, DELTA)
    assert end == region.end
    grid_first_susceptible = 3.59  # frozen from the 0.005-step scan
    assert abs(tau - grid_first_susceptible) <= DELTA
    # probes left of the boundary are masked at twice the resolution
    t = region.start
    while t < tau - DELTA:
        assert not ctx.probe("d0", t, GAMMA)
        t += DELTA / 2 * 10


def test_bisection_alone_beats_the_grid(ctx):
    """Criterion 7's bound on the bisection by itself: at T=32, before
    linear-3's run repeats at t2 = 35, no region start folds back by a
    period, so no verdict is replayed, and the grid still takes 10x the probes."""
    assert all(ctx.run.fold(r.start) == 0.0 for r in ctx.run.regions)
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    rep = analyze(circuit, {}, monitored, GAMMA, DELTA, CFG)
    naive = analyze_naive(circuit, {}, monitored, GAMMA, DELTA, CFG)
    assert naive.simulations == len(naive.injected) * math.ceil(CFG.horizon / DELTA)
    assert naive.simulations >= 10 * rep.simulations


def test_delta_must_be_positive():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    with pytest.raises(ValueError):
        analyze(circuit, {}, monitored, GAMMA, 0.0, CFG)


# --- a window the bisection misses (ROADMAP item 4) ----------------------------------


def _mb4_at_100():
    circuit, monitored = multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4))
    return circuit, monitored, SimConfig(100.0, 0.1)


def test_susceptible_pulse_between_masked_region_ends():
    """On the 4-bit pipeline at T=100, src.m1 is susceptible at 16.75 and
    masked at 16.0 and 16.9, the two ends the bisection probes in the
    value region [16, 17)."""
    circuit, monitored, cfg = _mb4_at_100()
    ctx = _ProbeContext(circuit, {}, cfg, monitored)
    region = next(r for r in ctx.run.regions if r.start <= 16.75 < r.end)
    assert (region.start, region.end - GAMMA) == (16.0, 16.9)
    verdicts = {
        at: is_susceptible(circuit, {}, monitored, Glitch("src.m1", at, GAMMA), cfg) for at in (16.0, 16.75, 16.9)
    }
    assert verdicts == {16.0: False, 16.75: True, 16.9: False}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the endpoint bisection misses a susceptible stretch inside a region "
    "with both ends masked",
)
def test_analyze_finds_the_window_inside_a_region():
    circuit, monitored, cfg = _mb4_at_100()
    report = analyze(circuit, {}, monitored, GAMMA, 0.01, cfg, injection_set=["src.m1"])
    assert any(w.start <= 16.75 < w.end for w in report.windows)


# --- a pulse that straddles a switching time (ROADMAP item 12) ----------------------


def test_straddling_pulse_is_susceptible():
    """On linear-3 at T=32 a pulse on en1 at 3.95 overlaps the switching
    time 4, the end of its value region, and is susceptible."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    ctx = _ProbeContext(circuit, {}, CFG, monitored)
    assert any(r.start < 3.95 < r.end == 4.0 for r in ctx.run.regions)
    assert is_susceptible(circuit, {}, monitored, Glitch("en1", 3.95, GAMMA), CFG)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: a pulse that starts within gamma of its region's end is never probed",
)
def test_analyze_finds_the_straddling_window():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    report = analyze(circuit, {}, monitored, GAMMA, DELTA, CFG, injection_set=["en1"])
    assert any(w.start <= 3.95 < w.end for w in report.windows)
