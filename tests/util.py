"""Shared test helpers: random well-formed circuits, traces, fault probes,
the region-equivalence check and a kernel run that logs its visits."""

from __future__ import annotations

import random
from typing import Sequence

from faultscope import Circuit, SignalTrace, Value, ValueRegion, execute, make_trace, make_transient, value_regions
from faultscope.generators import gate_and, gate_inverter, gate_mce, gate_or
from faultscope.sim import _kernel, _Seed

GATES = ("inv", "mce", "or", "and")


def random_delay(rng: random.Random) -> float:
    # multiples of 1/16 in [0.5, 5]: exact binary fractions keep event
    # times reproducible across runs
    return rng.randrange(8, 81) / 16.0


def random_circuit(rng: random.Random, max_driven: int = 6, n_inputs: int | None = None, delay=random_delay):
    """Random gate soup over a handful of signals, each gate's delay drawn by
    ``delay(rng)``; always validates."""
    n_driven = rng.randint(2, max_driven)
    if n_inputs is None:
        n_inputs = rng.randint(0, 2)
    inputs = [f"i{k}" for k in range(n_inputs)]
    driven = [f"d{k}" for k in range(n_driven)]
    signals = inputs + driven
    rules = []
    initial = {}
    for target in driven:
        pool = [s for s in signals if s != target]
        kind = rng.choice(GATES)
        d = delay(rng)
        if kind == "inv" or len(pool) < 2:
            rules += gate_inverter(rng.choice(pool), target, d)
        else:
            a, b = rng.sample(pool, 2)
            gate = {"mce": gate_mce, "or": gate_or, "and": gate_and}[kind]
            rules += gate(a, b, target, d)
        initial[target] = rng.choice((Value.ZERO, Value.ONE))
    circuit = Circuit(
        inputs=inputs,
        locals=driven[:-1],
        outputs=[driven[-1]],
        initial=initial,
        rules=rules,
        name=f"rand{rng.randrange(10**6)}",
    )
    return circuit


def random_input_traces(rng: random.Random, circuit: Circuit, horizon: float, allow_x: bool = False):
    traces = {}
    for name in sorted(circuit.inputs):
        value = rng.choice((Value.ZERO, Value.ONE))
        transitions = []
        t = 0.0
        while True:
            t += rng.randrange(8, 8 * int(horizon)) / 16.0
            if t >= horizon:
                break
            choices = [v for v in (Value.ZERO, Value.ONE, Value.X) if allow_x or v is not Value.X]
            nxt = rng.choice([v for v in choices if v != (transitions[-1][1] if transitions else value)])
            transitions.append((t, nxt))
        traces[name] = make_trace(value, transitions, horizon=float("inf"))
    return traces


def monitored_for(rng: random.Random, circuit: Circuit):
    driven = sorted(circuit.driven)
    count = min(len(driven), rng.randint(1, 2))
    return frozenset(rng.sample(driven, count))


def x_reach(execution, regions: Sequence[ValueRegion]) -> frozenset:
    """Set of (signal, region index) pairs where the signal is X at some time
    within the region."""
    out = set()
    for name, trace in execution.traces.items():
        segs = []
        cur_v, cur_t = trace.initial, 0.0
        for t, v in trace.transitions:
            if cur_v is Value.X:
                segs.append((cur_t, t))
            cur_v, cur_t = v, t
        if cur_v is Value.X:
            segs.append((cur_t, execution.horizon))
        if not segs:
            continue
        for region in regions:
            if any(a < region.end and region.start < b for a, b in segs):
                out.add((name, region.index))
    return frozenset(out)


def check_region_equivalence(
    circuit: Circuit,
    inputs,
    region: ValueRegion,
    signal: str,
    gamma: float,
    config,
    samples: int = 4,
    seed: int = 0,
) -> bool:
    """Within one region, a later fault must reach X everywhere an earlier
    fault does.  Samples fault times away from the region's right boundary;
    vacuously true when the margin leaves no room."""
    margin = circuit.size * config.epsilon + gamma
    hi = region.end - margin
    if hi <= region.start:
        return True
    rng = random.Random(seed)
    times = sorted(rng.uniform(region.start, hi) for _ in range(samples))
    base = execute(circuit, inputs, config)
    regions = value_regions(base)
    reaches = []
    for t in times:
        events = make_transient(signal, t, gamma, "xpulse", base)
        faulty = execute(circuit, inputs, config, events)
        reaches.append(x_reach(faulty, regions))
    return all(reaches[i] <= reaches[i + 1] for i in range(len(reaches) - 1))


class Visits:
    """An ``after_visit`` hook for ``sim._kernel`` that keeps the time of
    every visit (``visit_times``) and the state at its end (``snapshots``),
    then stops the run where the hook ``then`` does, if there is one."""

    def __init__(self, then=None):
        self.then = then
        self.visit_times: list[float] = []
        self.snapshots: list[_Seed] = []

    def __call__(self, t, values, pend, pend_x) -> bool:
        self.visit_times.append(t)
        self.snapshots.append(_Seed(t, values[:], pend.copy(), pend_x.copy()))
        return self.then is not None and self.then(t, values, pend, pend_x)


def logged_kernel(*args, **kwargs):
    """``sim._kernel(*args, **kwargs)`` with a ``Visits`` hook in front of
    the call's own ``after_visit``: the run and the hook."""
    visits = Visits(kwargs.get("after_visit"))
    return _kernel(*args, **{**kwargs, "after_visit": visits}), visits
