"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v``; a summary section lists each
criterion's verdict.  The slow criteria stay far under their time budgets.
"""

import json
import math
import random
import time

import pytest

import conftest
from faultscope import SimConfig, Value, count_events, execute, make_trace, trace_value_at
from faultscope.analysis import (
    Glitch,
    analyze,
    analyze_naive,
    is_susceptible,
    make_transient,
    value_regions,
)
from faultscope.cli import main
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    measure_throughput,
    multibit_linear_pipeline,
    ring_pipeline,
)
from faultscope.netlist import parse_circuit, recompute_p_fail, serialize_circuit, write_report
from util import monitored_for, random_circuit, random_input_traces

GAMMA = 0.1
P_FAIL_PINNED = 0.5425  # frozen after calibration against the published 0.54375


def record(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {number:>2}: {verdict}  {detail}")


def inverter_circuit():
    text = (
        "circuit inv\ninputs i\noutputs o\ninit o = 1\n"
        "rule i -> o = 0 [1.0]\nrule !i -> o = 1 [1.0]\n"
    )
    return parse_circuit(text)[0]


def pipeline():
    return linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))


def test_criterion_1_inverter_golden_traces():
    t0 = time.time()
    circuit = inverter_circuit()
    cfg = SimConfig(4.0, 0.1)
    cases = {
        "a": ({"i": make_trace(Value.ZERO, [(1.0, Value.ONE)])}, ((2.0, Value.ZERO),)),
        "b": (
            {"i": make_trace(Value.ZERO, [(1.0, Value.ONE), (1.5, Value.ZERO)])},
            ((1.5, Value.X), (2.5, Value.ONE)),
        ),
        "c": (
            {"i": make_trace(Value.ZERO, [(1.0, Value.X), (1.5, Value.ZERO)])},
            ((1.1, Value.X), (2.5, Value.ONE)),
        ),
    }
    ok = True
    for name, (traces, expected) in cases.items():
        got = execute(circuit, traces, cfg).traces["o"].transitions
        ok = ok and got == expected
    elapsed = time.time() - t0
    record(1, ok and elapsed < 1.0, f"exact inverter events, {elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_susceptibility_landmarks():
    t0 = time.time()
    circuit, monitored = pipeline()
    cfg = SimConfig(32.0, 0.1)
    sus10 = is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, GAMMA), cfg)
    sus22 = is_susceptible(circuit, {}, monitored, Glitch("c2", 22.0, GAMMA), cfg)
    elapsed = time.time() - t0
    ok = sus10 and not sus22 and elapsed < 1.0
    record(2, ok, f"c2@10 susceptible, c2@22 masked, {elapsed:.2f}s")
    assert sus10 and not sus22
    assert elapsed < 1.0


def test_criterion_3_p_fail_regression():
    t0 = time.time()
    circuit, monitored = pipeline()
    rep = analyze(circuit, {}, monitored, GAMMA, 0.01, SimConfig(32.0, 0.1))
    elapsed = time.time() - t0
    near = abs(rep.p_fail - 0.54375) <= 0.01
    pinned = abs(rep.p_fail - P_FAIL_PINNED) <= 1e-6
    ok = near and pinned and elapsed < 10.0
    record(3, ok, f"P(fail)={rep.p_fail!r} (published 0.54375, pinned {P_FAIL_PINNED}), {elapsed:.2f}s")
    assert near and pinned
    assert elapsed < 10.0


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    h = delta = 0.05
    horizon = 30.0
    rng = random.Random(1)
    circuits = 0
    disagreements = 0
    boundary_gaps = []
    while circuits < 50:
        circuit = random_circuit(rng)
        cfg = SimConfig(horizon, 0.1)
        inputs = random_input_traces(rng, circuit, horizon)
        monitored = monitored_for(rng, circuit)
        rep_b = analyze(circuit, inputs, monitored, GAMMA, delta, cfg)
        rep_n = analyze_naive(circuit, inputs, monitored, GAMMA, h, cfg)
        circuits += 1
        wins_by_sig = {}
        for w in rep_b.windows:
            wins_by_sig.setdefault(w.signal, []).append(w)
        naive_by_sig = {}
        for w in rep_n.windows:
            naive_by_sig.setdefault(w.signal, []).append(w)
        for s in rep_n.injected:
            wins = wins_by_sig.get(s, [])
            edges = [e for w in wins for e in (w.start, w.end)]
            nwins = naive_by_sig.get(s, [])
            for k in range(math.ceil(horizon / h)):
                t = k * h
                nv = any(w.start <= t < w.end for w in nwins)
                bv = any(w.start <= t < w.end for w in wins)
                if nv != bv:
                    gap = min((abs(t - e) for e in edges), default=float("inf"))
                    boundary_gaps.append(gap)
                    if gap > delta + GAMMA:
                        disagreements += 1
    elapsed = time.time() - t0
    worst = max(boundary_gaps, default=0.0)
    ok = disagreements == 0 and worst <= delta + GAMMA and elapsed < 300.0
    record(
        4,
        ok,
        f"{circuits} circuits, {disagreements} grid disagreements beyond delta+gamma, "
        f"worst boundary gap {worst:.3f} <= {delta + GAMMA}, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert worst <= delta + GAMMA
    assert elapsed < 300.0


def test_criterion_5_monotonicity_of_x():
    t0 = time.time()
    rng = random.Random(0)
    violations = 0
    for _ in range(200):
        circuit = random_circuit(rng)
        horizon = float(rng.randrange(10, 50))
        cfg = SimConfig(horizon, 0.1)
        inputs = random_input_traces(rng, circuit, horizon)
        base = execute(circuit, inputs, cfg)
        signal = rng.choice(sorted(circuit.signals))
        at = rng.randrange(0, 16 * int(horizon - 1)) / 16.0 + rng.random() * 0.01
        faulty = execute(circuit, inputs, cfg, make_transient(signal, at, GAMMA, "xpulse", base))
        times = sorted({e.time for e in base.events} | {e.time for e in faulty.events})
        for t in times:
            for s in circuit.signals:
                fv = trace_value_at(faulty.traces[s], t)
                if fv.is_boolean and fv != trace_value_at(base.traces[s], t):
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    record(5, ok, f"200 fault overlays, {violations} Boolean divergences, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 120.0


def _firing_separation_ok(execution, d_min: float) -> bool:
    fires = {}
    for e in execution.events:
        if e.value.is_boolean and not e.cause.startswith(("in", "ext", "xprop", "unstable")):
            fires.setdefault(e.signal, []).append(e.time)
    return all(b - a >= d_min for ts in fires.values() for a, b in zip(ts, ts[1:]))


def test_criterion_6_well_defined_executions():
    checked = 0
    bounded = True
    separated = True

    def check(execution, d_min):
        nonlocal checked, bounded, separated
        checked += 1
        bounded = bounded and count_events(execution) < 100_000
        separated = separated and _firing_separation_ok(execution, d_min)

    circuit = inverter_circuit()
    cfg = SimConfig(4.0, 0.1)
    for tr in (
        [(1.0, Value.ONE)],
        [(1.0, Value.ONE), (1.5, Value.ZERO)],
        [(1.0, Value.X), (1.5, Value.ZERO)],
    ):
        check(execute(circuit, {"i": make_trace(Value.ZERO, tr)}, cfg), circuit.d_min)

    lin, monitored = pipeline()
    cfg32 = SimConfig(32.0, 0.1)
    base = execute(lin, {}, cfg32)
    check(base, lin.d_min)
    for t in (10.0, 22.0):
        check(execute(lin, {}, cfg32, make_transient("c2", t, GAMMA, "xpulse", base)), lin.d_min)

    rng = random.Random(0)
    for _ in range(50):
        rc = random_circuit(rng)
        horizon = float(rng.randrange(10, 50))
        rcfg = SimConfig(horizon, 0.1)
        inputs = random_input_traces(rng, rc, horizon)
        rbase = execute(rc, inputs, rcfg)
        signal = rng.choice(sorted(rc.signals))
        at = rng.randrange(0, 16 * int(horizon - 1)) / 16.0 + rng.random() * 0.01
        check(rbase, rc.d_min)
        check(execute(rc, inputs, rcfg, make_transient(signal, at, GAMMA, "xpulse", rbase)), rc.d_min)

    ok = bounded and separated
    record(6, ok, f"{checked} executions finite, firing separation >= d_min everywhere")
    assert bounded and separated


def test_criterion_7_bisection_efficiency():
    t0 = time.time()
    circuit, monitored = pipeline()
    cfg = SimConfig(500.0, 0.1)
    rep = analyze(circuit, {}, monitored, GAMMA, 0.01, cfg)
    rep_naive = analyze_naive(circuit, {}, monitored, GAMMA, 0.01, cfg)
    formula = len(rep_naive.injected) * math.ceil(cfg.horizon / 0.01)
    ratio = rep_naive.simulations / rep.simulations
    elapsed = time.time() - t0
    ok = rep_naive.simulations == formula and ratio >= 10.0 and elapsed < 300.0
    record(
        7,
        ok,
        f"bisection {rep.simulations} vs grid {rep_naive.simulations} simulations "
        f"({ratio:.0f}x fewer), {elapsed:.1f}s",
    )
    assert rep_naive.simulations == formula
    assert ratio >= 10.0
    assert elapsed < 300.0


def test_criterion_8_source_sink_sweep_shape():
    t0 = time.time()
    values = (1, 5, 13, 22, 25)
    cfg = SimConfig(500.0, 0.1)
    grid = {}
    for source in values:
        for sink in values:
            circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, source, sink))
            grid[(source, sink)] = analyze(circuit, {}, monitored, GAMMA, 0.05, cfg).p_fail
    peak = max(grid, key=grid.get)
    peak_ok = peak[0] == 1 and 0.55 <= grid[peak] <= 0.85
    # token-limited regime: the sink responds faster than the source supplies
    token_limited = [grid[(source, 1)] for source in values if source > 1]
    token_ok = all(0.35 <= p <= 0.65 for p in token_limited)
    balance_ok = grid[(25, 25)] < grid[(1, 1)]
    elapsed = time.time() - t0
    ok = peak_ok and token_ok and balance_ok and elapsed < 1800.0
    record(
        8,
        ok,
        f"max P={grid[peak]:.3f} at source=1, token-limited {min(token_limited):.3f}..{max(token_limited):.3f}, "
        f"P(25,25)={grid[(25,25)]:.3f} < P(1,1)={grid[(1,1)]:.3f}, {elapsed:.0f}s",
    )
    assert peak_ok, (peak, grid[peak])
    assert token_ok, token_limited
    assert balance_ok
    assert elapsed < 1800.0


def test_criterion_9_multibit_trend():
    t0 = time.time()
    cfg = SimConfig(500.0, 0.1)
    p = {}
    for bits in (1, 4, 8):
        circuit, monitored = multibit_linear_pipeline(MultiBitSpec(bits, 3, 1, 5, 4, 4))
        p[bits] = analyze(circuit, {}, monitored, GAMMA, 0.05, cfg).p_fail
    band4 = abs(p[4] - 0.22) <= 0.05
    band8 = abs(p[8] - 0.10) <= 0.05
    order = p[8] < p[4] < p[1]
    elapsed = time.time() - t0
    ok = band4 and band8 and order and elapsed < 1800.0
    record(
        9,
        ok,
        f"P(fail) 1-bit {p[1]:.3f} > 4-bit {p[4]:.3f} (0.22±0.05) > 8-bit {p[8]:.3f} (0.10±0.05), {elapsed:.0f}s",
    )
    assert band4 and band8, p
    assert order, p
    assert elapsed < 1800.0


def test_criterion_10_ring_behavior():
    t0 = time.time()
    cfg200 = SimConfig(200.0, 0.1)
    throughput = []
    p_fail = []
    for tokens in range(1, 10):
        circuit, monitored = ring_pipeline(RingSpec(20, tokens, 1, 5))
        execution = execute(circuit, {}, cfg200)
        throughput.append(measure_throughput(execution, "c1", 1.0))
        p_fail.append(analyze(circuit, {}, monitored, GAMMA, 0.05, cfg200).p_fail)
    peak = throughput.index(max(throughput))
    unimodal = all(throughput[i] <= throughput[i + 1] for i in range(peak)) and all(
        throughput[i] >= throughput[i + 1] for i in range(peak, len(throughput) - 1)
    )
    bubble_worse_than_mid = p_fail[8] > p_fail[4]
    ring12, monitored12 = ring_pipeline(RingSpec(12, 1, 1, 5))
    p_edge = analyze(ring12, {}, monitored12, GAMMA, 0.05, SimConfig(500.0, 0.1)).p_fail
    edge_band = abs(p_edge - 0.45) <= 0.05
    elapsed = time.time() - t0
    ok = unimodal and bubble_worse_than_mid and edge_band and elapsed < 1800.0
    record(
        10,
        ok,
        f"canopy peak at {peak + 1} tokens, P@9tok {p_fail[8]:.3f} > P@5tok {p_fail[4]:.3f}, "
        f"1-token 12-stage P={p_edge:.3f} (0.45±0.05), {elapsed:.0f}s",
    )
    assert unimodal, throughput
    assert bubble_worse_than_mid, p_fail
    assert edge_band, p_edge
    assert elapsed < 1800.0


def test_criterion_11_format_stability(tmp_path):
    generated = [
        linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)),
        linear_pipeline(PipelineSpec(2, 2, 3, 1, 7)),
        ring_pipeline(RingSpec(6, 2, 1, 5)),
        multibit_linear_pipeline(MultiBitSpec(2, 2, 1, 5, 4, 4)),
        multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)),
    ]
    roundtrips = all(
        parse_circuit(serialize_circuit(circuit, monitored)) == (circuit, monitored)
        for circuit, monitored in generated
    )

    circuit, monitored = pipeline()
    rep = analyze(circuit, {}, monitored, GAMMA, 0.01, SimConfig(32.0, 0.1))
    obj = json.loads(write_report(rep))
    consistent = abs(recompute_p_fail(obj) - obj["p_fail"]) <= 1e-12

    lin3 = tmp_path / "lin3.prs"
    assert main(["generate", "linear", "3", "1", "5", "4", "4", "--out", str(lin3)]) == 0
    artifacts = {}
    for jobs in ("1", "2"):
        rep_path = tmp_path / f"rep{jobs}.json"
        svg_path = tmp_path / f"wave{jobs}.svg"
        csv_path = tmp_path / f"sweep{jobs}.csv"
        assert main([
            "analyze", "--circuit", str(lin3), "--until", "32",
            "--jobs", jobs, "--out-json", str(rep_path), "--out-svg", str(svg_path),
        ]) == 0
        assert main([
            "sweep", "--generator", "linear", "--set", "stages=3",
            "--sweep", "source_delay=1,4", "--until", "40", "--delta", "0.05",
            "--jobs", jobs, "--out", str(csv_path),
        ]) == 0
        artifacts[jobs] = (rep_path.read_bytes(), svg_path.read_bytes(), csv_path.read_bytes())
    byte_identical = artifacts["1"] == artifacts["2"]

    ok = roundtrips and consistent and byte_identical
    record(
        11,
        ok,
        f"round-trips {roundtrips}, report self-consistent {consistent}, "
        f"byte-identical across --jobs {byte_identical}",
    )
    assert roundtrips
    assert consistent
    assert byte_identical
