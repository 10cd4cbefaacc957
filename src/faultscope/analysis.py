"""Transient-fault injection and sensitivity analysis.

A transient fault is an X-pulse: a pair of external events driving a signal to
X and, a pulse width later, back to its fault-free value.  The circuit is
susceptible to a fault if the fault makes a monitored signal attain X before
T + settle, where T is the horizon and settle = |C|·max(ε, d_max) gives a
fault near T time to cross the circuit.  Every verdict (``is_susceptible``,
``analyze``, ``analyze_naive``) comes from ``_ProbeContext.probe``.

Susceptible times are located per value region of the fault-free execution
(the interval between two consecutive value-switching times): within a region
the susceptible times form a postfix, so one bisection per region finds the
boundary to the stated resolution, far cheaper than scanning a time grid.
The grid scan is kept as ``analyze_naive`` and doubles as the test oracle.
"""

from __future__ import annotations

import bisect as _bisect_mod
import math
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .prs import Circuit, InputTraces, Value, check_input_traces, trace_value_at
from .sim import (
    Execution,
    ExternalEvent,
    SimConfig,
    _compiled,
    _kernel,
    _prepare_inputs,
    execute,
)

DEFAULT_EPSILON = 0.1
DEFAULT_GAMMA = 0.1
DEFAULT_DELTA = 0.01

X_PULSE = "xpulse"
FLIP_PULSE = "flip"


class PostfixViolationWarning(UserWarning):
    """Susceptible times in a region were not a postfix at the probe width."""


@dataclass(frozen=True)
class Glitch:
    """A pulse of the given width injected at a signal at time ``at``."""

    signal: str
    at: float
    width: float
    kind: str = X_PULSE


@dataclass(frozen=True)
class ValueRegion:
    """Interval between consecutive value-switching times, left-closed."""

    start: float
    end: float
    index: int

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SensitivityWindow:
    """Susceptible sub-interval of one value region for one injection signal."""

    signal: str
    start: float
    end: float
    resolution: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SensitivityReport:
    horizon: float
    epsilon: float
    gamma: float
    delta: float
    settle: float
    monitored: tuple[str, ...]
    injected: tuple[str, ...]
    fault_kind: str
    windows: tuple[SensitivityWindow, ...]
    p_fail: float
    p_per_signal: Mapping[str, float]
    simulations: int


# --- fault construction -------------------------------------------------------


def make_transient(
    signal: str,
    at: float,
    width: float,
    kind: str,
    base_execution: Execution,
) -> tuple[ExternalEvent, ExternalEvent]:
    """Two external events forming a pulse at the signal.

    An X-pulse drives the signal to X and restores the value the fault-free
    execution holds when the pulse ends, so outside the pulse the overlay
    tracks the fault-free trace even across a switching time.  A flip-pulse
    drives the complement of the fault-free value at the pulse start and
    restores that value afterwards.
    """
    if at < 0:
        raise ValueError(f"pulse start must be nonnegative, got {at}")
    if width <= 0:
        raise ValueError(f"pulse width must be positive, got {width}")
    trace = base_execution.traces[signal]
    end = at + width
    if kind == X_PULSE:
        restore = trace_value_at(trace, min(end, trace.horizon))
        return (ExternalEvent(at, signal, Value.X), ExternalEvent(end, signal, restore))
    if kind == FLIP_PULSE:
        v = trace_value_at(trace, at)
        if not v.is_boolean:
            raise ValueError(f"flip-pulse at {signal}@{at}: pre-fault value is X, nothing to flip")
        flipped = Value.ONE if v is Value.ZERO else Value.ZERO
        return (ExternalEvent(at, signal, flipped), ExternalEvent(end, signal, v))
    raise ValueError(f"unknown pulse kind {kind!r}")


def is_susceptible(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    glitch: Glitch,
    config: SimConfig,
) -> bool:
    """True iff the glitch makes a monitored signal attain X before T + settle.

    The verdict is the one ``analyze`` finds for the same pulse.
    """
    if glitch.width <= 0:
        raise ValueError(f"pulse width must be positive, got {glitch.width}")
    if glitch.at < 0 or glitch.at + glitch.width > config.horizon:
        raise ValueError(
            f"glitch [{glitch.at}, {glitch.at + glitch.width}) not within [0, {config.horizon}]"
        )
    if glitch.signal not in circuit.signals:
        raise ValueError(f"glitch signal {glitch.signal!r} not in circuit")
    ctx = _ProbeContext(circuit, inputs, config, monitored, fault_kind=glitch.kind)
    return ctx.probe(glitch.signal, glitch.at, glitch.width)


def faulty_execution(
    circuit: Circuit, inputs: InputTraces, glitch: Glitch, config: SimConfig
) -> Execution:
    """The full execution a verdict on the glitch is taken from: run to
    T + settle with the inputs held past T and the pulse overlaid."""
    t_end = config.horizon + _settle(circuit, config)
    long = replace(config, horizon=t_end)
    inputs = {name: replace(trace, horizon=t_end) for name, trace in (inputs or {}).items()}
    base = execute(circuit, inputs, long)
    pulse = make_transient(glitch.signal, glitch.at, glitch.width, glitch.kind, base)
    return execute(circuit, inputs, long, pulse)


# --- value regions --------------------------------------------------------------


def value_regions(execution: Execution) -> list[ValueRegion]:
    """Regions between consecutive value-switching times of a fault-free
    execution, covering [0, horizon)."""
    if any(ev.cause == "ext" for ev in execution.events):
        raise ValueError("value regions are defined on the fault-free execution (no external events)")
    return _regions_from_times((ev.time for ev in execution.events), execution.horizon)


def _regions_from_times(times: Iterable[float], horizon: float) -> list[ValueRegion]:
    cuts = sorted({0.0} | {t for t in times if t < horizon})
    cuts.append(horizon)
    return [ValueRegion(a, b, i) for i, (a, b) in enumerate(zip(cuts, cuts[1:])) if a < b]


# --- probe engine ----------------------------------------------------------------


def _settle(circuit: Circuit, config: SimConfig) -> float:
    """How long past the horizon a probe runs: |C|·max(ε, d_max)."""
    return circuit.size * max(config.epsilon, circuit.d_max)


# The benchmark in bench/ wraps _ProbeContext.probe(signal, at, width) and
# reads its positional arguments, wraps _ProbeContext.matches, the module
# global _kernel, analyze, is_susceptible, value_regions, cli._GENERATORS and
# cli.main, and counts PostfixViolationWarning: keep these names and call
# shapes.
class _ProbeContext:
    """Shared state for fault probes against one (circuit, inputs, config).

    Runs the fault-free execution to T + settle once, keeping per-visit state
    snapshots.  A probe then resumes from the snapshot preceding the pulse
    and stops as soon as a monitored signal attains X (susceptible) or the
    state re-converges to the fault-free run with no X left in flight
    (masked).  Verdicts are identical to re-running the full execution to
    T + settle with the pulse overlaid.
    """

    def __init__(
        self,
        circuit: Circuit,
        inputs: InputTraces,
        config: SimConfig,
        monitored: Iterable[str],
        fault_kind: str = X_PULSE,
    ):
        self.circuit = circuit
        self.config = config
        self.monitored = sorted(monitored)
        if not self.monitored:
            raise ValueError("monitored set must not be empty")
        if fault_kind not in (X_PULSE, FLIP_PULSE):
            raise ValueError(f"unknown pulse kind {fault_kind!r}")
        self.fault_kind = fault_kind
        comp = _compiled(circuit)
        self.comp = comp
        unknown = [m for m in self.monitored if m not in comp.idx]
        if unknown:
            raise ValueError(f"monitored signals not in circuit: {', '.join(unknown)}")
        self.settle = _settle(circuit, config)
        self.t_end = config.horizon + self.settle

        inputs = dict(inputs or {})
        check_input_traces(circuit, inputs, config.horizon)
        self.in_initial, self.in_transitions = _prepare_inputs(comp, inputs, self.t_end)
        base = _kernel(
            comp,
            self.in_transitions,
            self.in_initial,
            self.t_end,
            config.epsilon,
            (),
            record=True,
            keep_snapshots=True,
        )
        self.base = base
        self.visit_times = base.visit_times
        self.snapshots = base.snapshots
        self.mon_ids = frozenset(comp.idx[m] for m in self.monitored)
        self.base_mon_x = any(
            fv == 0.5 for sid in self.mon_ids for _, fv in base.trace_lists[sid]
        ) or any(base.initial_values[sid] == 0.5 for sid in self.mon_ids)

        # per-signal transition lists for O(log n) value lookups
        self._times = [tuple(t for t, _ in lst) for lst in base.trace_lists]
        self._vals = [tuple(v for _, v in lst) for lst in base.trace_lists]
        self.regions = _regions_from_times(
            (t for lst in base.trace_lists for t, _ in lst), config.horizon
        )
        self.simulations = 0

    def base_value(self, sid: int, t: float) -> float:
        i = _bisect_mod.bisect_right(self._times[sid], t)
        return self._vals[sid][i - 1] if i else self.base.initial_values[sid]

    def matches(self, t: float, values, pend, pend_x, done) -> bool:
        i = _bisect_mod.bisect_right(self.visit_times, t) - 1
        if i < 0:
            return False
        snap = self.snapshots[i]
        return (
            snap.done == done
            and snap.pend == tuple(sorted(pend.items()))
            and snap.pend_x == tuple(sorted(pend_x.items()))
            and list(snap.values) == values
        )

    def pulse_events(self, sid: int, at: float, width: float):
        end = at + width
        if self.fault_kind == X_PULSE:
            return ((at, sid, 0.5), (end, sid, self.base_value(sid, min(end, self.t_end))))
        v = self.base_value(sid, at)
        if v == 0.5:
            raise ValueError("flip-pulse where the fault-free value is X")
        return ((at, sid, 1.0 - v), (end, sid, v))

    def probe(self, signal: str, at: float, width: float) -> bool:
        """Susceptibility verdict for one pulse; counts one simulation."""
        self.simulations += 1
        if self.base_mon_x:
            return True
        sid = self.comp.idx[signal]
        events = self.pulse_events(sid, at, width)
        i = _bisect_mod.bisect_left(self.visit_times, at) - 1
        seed = self.snapshots[i] if i >= 0 else None
        run = _kernel(
            self.comp,
            self.in_transitions,
            self.in_initial,
            self.t_end,
            self.config.epsilon,
            events,
            record=False,
            watch=self.mon_ids,
            stop_on_watch=True,
            seed=seed,
            base=self,
        )
        return run.watch_hit


# --- bisection -------------------------------------------------------------------


def _locate_window(ctx: _ProbeContext, signal: str, region: ValueRegion, gamma: float, delta: float):
    """Endpoint classification plus bisection within one region.

    Returns the susceptible part (start, end) of the region, empty when
    start == end.  It is a postfix unless the region start is susceptible and
    its end masked: the postfix shape does not hold at these finite pulse
    parameters, and the part is the prefix up to the boundary.
    """
    r0, r1 = region.start, region.end
    hi_cap = r1 - gamma
    if hi_cap <= r0:
        return (r0, r1) if ctx.probe(signal, r0, gamma) else (r1, r1)
    lo_sus = ctx.probe(signal, r0, gamma)
    hi_sus = ctx.probe(signal, hi_cap, gamma)
    if lo_sus == hi_sus:
        return (r0, r1) if lo_sus else (r1, r1)
    if not hi_sus:
        warnings.warn(
            f"susceptible times in region [{r0}, {r1}) at {signal} do not form a postfix",
            PostfixViolationWarning,
        )
    lo, hi = r0, hi_cap
    while hi - lo > delta:
        mid = (lo + hi) / 2.0
        if ctx.probe(signal, mid, gamma) == hi_sus:
            hi = mid
        else:
            lo = mid
    return (hi, r1) if hi_sus else (r0, hi)


def bisect_region(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    signal: str,
    region: ValueRegion,
    gamma: float,
    delta: float,
    config: SimConfig,
    ctx: _ProbeContext | None = None,
) -> float:
    """Boundary between masked times (left) and susceptible times (right)
    within the region, located to resolution delta.

    Probes are X-pulses of width gamma, clamped to end at the region boundary.
    If both endpoint probes classify identically no interior probe is run and
    the boundary is the region start (all susceptible) or end (none).  A
    susceptible prefix is summarized as the closest postfix: the whole region.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if ctx is None:
        ctx = _ProbeContext(circuit, inputs, config, monitored)
    start, end = _locate_window(ctx, signal, region, gamma, delta)
    return start if start < end else region.end


def _windows_for_signal(
    ctx: _ProbeContext, signal: str, gamma: float, delta: float
) -> list[SensitivityWindow]:
    out: list[SensitivityWindow] = []
    for region in ctx.regions:
        start, end = _locate_window(ctx, signal, region, gamma, delta)
        if start < end:
            out.append(SensitivityWindow(signal, start, end, delta))
    return out


# a pool worker's probe context, built at its first task so that a bad
# argument raises in that task, as it does without a pool
_worker_args: tuple = ()
_worker_ctx: _ProbeContext | None = None


def _init_worker(ctx_args: tuple) -> None:
    global _worker_args, _worker_ctx
    _worker_args, _worker_ctx = ctx_args, None


def _worker_windows(signal: str, gamma: float, delta: float):
    """Windows of one signal from the worker's probe context, and its probe count."""
    global _worker_ctx
    if _worker_ctx is None:
        _worker_ctx = _ProbeContext(*_worker_args)
    before = _worker_ctx.simulations
    windows = _windows_for_signal(_worker_ctx, signal, gamma, delta)
    return windows, _worker_ctx.simulations - before


# --- full analyses ----------------------------------------------------------------


def _resolve_injection(circuit, monitored, injection_set, include_monitored):
    if injection_set is not None:
        injected = sorted(injection_set)
        unknown = [s for s in injected if s not in circuit.signals]
        if unknown:
            raise ValueError(f"injection signals not in circuit: {', '.join(unknown)}")
        return injected
    if include_monitored:
        return sorted(circuit.signals)
    return sorted(circuit.signals - frozenset(monitored))


def _report(
    per_signal: Mapping[str, Sequence[SensitivityWindow]],
    monitored: Sequence[str],
    config: SimConfig,
    settle: float,
    gamma: float,
    delta: float,
    fault_kind: str,
    simulations: int,
) -> SensitivityReport:
    """Report on the windows of each injected signal, in injection order."""
    T = config.horizon
    windows = tuple(w for sig_windows in per_signal.values() for w in sig_windows)
    p_per_signal = {
        s: math.fsum(w.length for w in sig_windows) / T if T > 0 else 0.0
        for s, sig_windows in per_signal.items()
    }
    total = math.fsum(w.length for w in windows)
    p_fail = total / (len(per_signal) * T) if per_signal and T > 0 else 0.0
    return SensitivityReport(
        horizon=T,
        epsilon=config.epsilon,
        gamma=gamma,
        delta=delta,
        settle=settle,
        monitored=tuple(monitored),
        injected=tuple(per_signal),
        fault_kind=fault_kind,
        windows=windows,
        p_fail=p_fail,
        p_per_signal=p_per_signal,
        simulations=simulations,
    )


def analyze(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    gamma: float = DEFAULT_GAMMA,
    delta: float = DEFAULT_DELTA,
    config: SimConfig = SimConfig(horizon=100.0),
    injection_set: Iterable[str] | None = None,
    include_monitored: bool = False,
    fault_kind: str = X_PULSE,
    jobs: int = 1,
) -> SensitivityReport:
    """Locate all sensitivity windows by per-region bisection and report the
    failure probability under a uniform single-fault distribution.

    The injection set defaults to every signal except the monitored ones.
    A monitored signal in the injection set is susceptible at every time by
    definition (the pulse itself drives it to X), so it contributes a full
    window without probing.  With ``jobs > 1`` the signals are bisected on a
    process pool, one signal per task and one probe context per worker; the
    report is the same.
    """
    monitored = sorted(monitored)
    injected = _resolve_injection(circuit, monitored, injection_set, include_monitored)
    probed = [s for s in injected if s not in monitored]
    workers = min(jobs, len(probed))
    if workers > 1:
        ctx_args = (circuit, inputs, config, monitored, fault_kind)
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(ctx_args,)) as pool:
            results = list(pool.map(_worker_windows, probed, repeat(gamma), repeat(delta)))
        found = {s: windows for s, (windows, _) in zip(probed, results)}
        simulations = sum(sims for _, sims in results)
    else:
        ctx = _ProbeContext(circuit, inputs, config, monitored, fault_kind=fault_kind)
        found = {s: _windows_for_signal(ctx, s, gamma, delta) for s in probed}
        simulations = ctx.simulations
    T = config.horizon
    per_signal = {s: [SensitivityWindow(s, 0.0, T, delta)] if s in monitored else found[s] for s in injected}
    settle = _settle(circuit, config)
    return _report(per_signal, monitored, config, settle, gamma, delta, fault_kind, simulations)


def analyze_naive(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    gamma: float = DEFAULT_GAMMA,
    step: float = 0.25,
    config: SimConfig = SimConfig(horizon=100.0),
    injection_set: Iterable[str] | None = None,
    include_monitored: bool = False,
    fault_kind: str = X_PULSE,
) -> SensitivityReport:
    """Grid-scan reference: one pulse at every multiple of the step, for every
    injection signal.  Exactly |injected| * ceil(T/step) simulations."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    monitored = sorted(monitored)
    injected = _resolve_injection(circuit, monitored, injection_set, include_monitored)
    ctx = _ProbeContext(circuit, inputs, config, monitored, fault_kind=fault_kind)
    T = config.horizon
    npoints = math.ceil(T / step)
    per_signal: dict[str, list[SensitivityWindow]] = {}
    for s in injected:
        start = None
        sig_windows = per_signal[s] = []
        for k in range(npoints):
            t = k * step
            sus = ctx.probe(s, t, gamma)
            if sus and start is None:
                start = t
            if not sus and start is not None:
                sig_windows.append(SensitivityWindow(s, start, k * step, step))
                start = None
        if start is not None:
            sig_windows.append(SensitivityWindow(s, start, T, step))
    return _report(per_signal, monitored, config, ctx.settle, gamma, step, fault_kind, ctx.simulations)


def p_fail_weighted(report: SensitivityReport, weights: Mapping[str, float]) -> float:
    """Weighted average of the per-signal fault probabilities."""
    missing = [s for s in report.injected if s not in weights]
    if missing:
        raise ValueError(f"weights missing for: {', '.join(missing)}")
    bad = {s: w for s, w in weights.items() if w < 0}
    if bad:
        raise ValueError(f"weights must be nonnegative: {bad}")
    total = math.fsum(weights[s] for s in report.injected)
    if total == 0:
        raise ValueError("total weight is zero")
    return math.fsum(weights[s] * report.p_per_signal[s] for s in report.injected) / total


# --- region equivalence (test support) ----------------------------------------------


def x_reach(execution: Execution, regions: Sequence[ValueRegion]) -> frozenset:
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
    inputs: InputTraces,
    region: ValueRegion,
    signal: str,
    gamma: float,
    config: SimConfig,
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
        events = make_transient(signal, t, gamma, X_PULSE, base)
        faulty = execute(circuit, inputs, config, events)
        reaches.append(x_reach(faulty, regions))
    return all(reaches[i] <= reaches[i + 1] for i in range(len(reaches) - 1))
