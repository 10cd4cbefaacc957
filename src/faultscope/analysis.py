"""Transient-fault injection and sensitivity analysis.

A transient fault is an X-pulse: a pair of external events driving a signal to
X and, a pulse width later, back to its fault-free value (``_pulse_values`` is
the one rule for X- and flip-pulses).  The circuit is susceptible to a fault if
it makes a monitored signal attain X before T + settle, where T is the horizon
and settle = |C|·max(ε, d_max) gives a fault near T time to cross the circuit.
Every verdict (``is_susceptible``, ``analyze``, ``analyze_naive``) comes from
``_ProbeContext.probe``, an overlay on the fault-free run of the circuit, its
inputs and (T, ε) (``_FaultFreeRun``).  That run is set up and checked as
``execute`` is, made once per (circuit, inputs, config) and kept on the
circuit (``_fault_free_run``), so only the first query on them pays for it.
``is_susceptible`` keeps its last probe context beside it, so a later query
with the same monitored set and pulse kind costs one probe; ``analyze`` and
``analyze_naive`` build their own, which count only their own probes.
It keeps a snapshot per visit and stops at the visit where it starts to
repeat: with integer delays and inputs that have stopped switching, the run
becomes periodic, and a later time is read folded back by whole periods into
the stretch that repeats (``_FaultFreeRun.fold``), exactly, as the periods
are integers and times stay below 2**52.  So a periodic run costs the same
at any T.

An analysis query has one lifecycle in the calling process, for every
``jobs``: it is checked in full before the first kernel run, then run, then
reported in full.  Susceptible times are located per value region of the
fault-free run (between two consecutive value-switching times).  The
bisection (``_locate_window``) assumes that within a region they form a
postfix, or, when the region start is susceptible and its end masked, a
prefix, which the report lists in ``postfix_violations``; from the
two ends and one bisection it finds the boundary to the resolution δ, far
cheaper than a time grid.  A susceptible stretch inside a region with both
ends masked is missed (ROADMAP item 4, pinned as an expected failure in the
tests).  On a run that repeats, a region more than one period past t1
replays the verdicts of the region it folds onto (``_windows_for_signal``).
A probe runs the kernel with one after-visit hook, which stops it where it
re-converges to the fault-free run and, given a memo, where it meets a state
an earlier probe reached; it keeps its verdict and hit time in one record.
The probes of one signal's bisection share such a memo of the kernel states
they reached at fault-free visit times after their pulse ended, each with
the record of the probe that stored it, indexed by that time: probes at
nearby times often meet in one state, and a probe compares its state at
such a time with the few stored there and stops at an equal one with its
record, exactly (``_ProbeContext.probe``).  The grid scan is kept as
``analyze_naive``, without the memo, and doubles as the test oracle.
"""

from __future__ import annotations

import bisect as _bisect_mod
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .prs import Circuit, CircuitInvalid, InputTraces, Value, monitor_violations, trace_value_at
from .sim import X, Execution, ExternalEvent, SimConfig, _compiled, _kernel, _Seed, _setup_run, execute

DEFAULT_GAMMA = 0.1
DEFAULT_DELTA = 0.01

X_PULSE = "xpulse"
FLIP_PULSE = "flip"


class PostfixViolationWarning(UserWarning):
    """Susceptible times in a region were not a postfix at the probe width.

    Never raised: ``SensitivityReport.postfix_violations`` lists such
    regions.  Kept only because the benchmark in bench/ still names it; it
    goes when the benchmark counts that list instead."""


@dataclass(frozen=True)
class Glitch:
    """A pulse of the given width injected at a signal at time ``at``; by
    the model's pulse rule (``_check_pulse``) it starts in [0, T) with a
    positive, finite width, and may end past T, even past T + settle."""

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
    # (signal, region start, region end) of each prefix-shaped region
    # (``_locate_window``), in injection and then region order
    postfix_violations: tuple[tuple[str, float, float], ...]


# --- fault construction -------------------------------------------------------


def _pulse_values(kind: str, signal: str, value_at, at: float, end: float) -> tuple[float, float]:
    """The drive and restore values, as kernel floats, of a pulse of the kind
    on the signal from ``at`` to ``end``, where ``value_at(t)`` is the
    fault-free value at t; the one rule for X- and flip-pulses.

    An X-pulse drives the signal to X and restores the value the fault-free
    execution holds at ``end``, so outside the pulse the overlay tracks the
    fault-free trace even across a switching time; a caller whose trace
    ends sooner passes its end instead.  A flip-pulse drives the complement
    of the fault-free value at ``at`` and restores that value afterwards.
    """
    if kind == X_PULSE:
        return X, value_at(end)
    if kind != FLIP_PULSE:
        raise ValueError(f"unknown pulse kind {kind!r}")
    v = value_at(at)
    if v == X:
        raise ValueError(f"flip-pulse at {signal}@{at}: pre-fault value is X, nothing to flip")
    return 1.0 - v, v


def _check_pulse(width, at=0.0, horizon=math.inf, signal=None, signals=(), owner="circuit") -> None:
    """The model's pulse rule, over whose pulses P(fail) is uniform: a
    pulse on a signal of its ``owner`` starts in [0, T) and has a positive,
    finite width, large enough that at + width > at in floats, so that its
    restore comes after its drive; a NaN fails each test.  ``_check_gamma``
    applies it to γ at every start."""
    if not 0 < width < math.inf:
        raise ValueError(f"pulse width must be positive and finite, got {width}")
    if not 0 <= at < horizon:
        raise ValueError(f"pulse start must be in [0, {horizon}), got {at}")
    if not at < at + width:
        raise ValueError(f"pulse width {width} vanishes at start {at}: its end rounds to its start")
    if signal is not None and signal not in signals:
        raise ValueError(f"pulse signal {signal!r} not in {owner}")


def _check_gamma(gamma: float, horizon: float) -> None:
    """The pulse rule for a width γ at every start in [0, T), as
    ``analyze`` and ``analyze_naive`` probe any of them.  Float spacing is
    widest at the last start below T, and a γ of half that spacing ties
    and rounds to even, so it vanishes at one of the last two starts.  A γ
    that passes also keeps r1 - γ below every region end r1 <= T."""
    _check_pulse(gamma)
    if 0 < horizon < math.inf:  # otherwise no start, or the context rejects T
        last = math.nextafter(horizon, 0.0)
        for at in (last, math.nextafter(last, 0.0)):
            _check_pulse(gamma, at, horizon)


def make_transient(
    signal: str,
    at: float,
    width: float,
    kind: str,
    base_execution: Execution,
) -> tuple[ExternalEvent, ExternalEvent]:
    """Two external events forming a pulse at the signal, by the rule of the
    pulse kind (``_pulse_values``) on the fault-free execution's trace.  The
    pulse obeys the model's pulse rule (``_check_pulse``) with the execution's
    horizon as T: it starts in [0, T) and has a positive, finite width."""
    _check_pulse(width, at, base_execution.horizon, signal, base_execution.traces, "execution")
    trace, end = base_execution.traces[signal], at + width
    drive, restore = _pulse_values(kind, signal, lambda t: trace_value_at(trace, t).value, at, min(end, trace.horizon))
    return (ExternalEvent(at, signal, Value(drive)), ExternalEvent(end, signal, Value(restore)))


def is_susceptible(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    glitch: Glitch,
    config: SimConfig,
) -> bool:
    """True iff the glitch makes a monitored signal attain X before T + settle.

    The glitch obeys the model's pulse rule (``_check_pulse``), as each pulse
    ``analyze`` probes does, and gets the verdict ``analyze`` finds.  The last
    probe context built here is kept on the circuit, in one slot beside the
    fault-free run (``_fault_free_run``), and reused while it overlays the
    kept run and has the same monitored set and pulse kind.  So a later
    query on them costs one probe, and a new monitored set is checked
    before any kernel run.  The context holds no circuit, so the circuit
    and what it keeps form no reference cycle.
    """
    _check_pulse(glitch.width, glitch.at, config.horizon, glitch.signal, circuit.signals)
    monitored = sorted(monitored)
    ctx = getattr(circuit, "_probe_context", None)
    if (
        ctx is None
        or ctx.monitored != monitored
        or ctx.fault_kind != glitch.kind
        or ctx.run is not _fault_free_run(circuit, inputs, config)
    ):
        ctx = _ProbeContext(circuit, inputs, config, monitored, glitch.kind)
        object.__setattr__(circuit, "_probe_context", ctx)
    return ctx.probe(glitch.signal, glitch.at, glitch.width)


def faulty_execution(circuit: Circuit, inputs: InputTraces, glitch: Glitch, config: SimConfig) -> Execution:
    """The full execution a verdict on the glitch is taken from: run to
    T + settle with the inputs held past T and the pulse overlaid, the pulse
    read from the fault-free run as a probe reads it.  The glitch obeys the
    model's pulse rule (``_check_pulse``); past T + settle it is not restored."""
    _check_pulse(glitch.width, glitch.at, config.horizon, glitch.signal, circuit.signals)
    run = _fault_free_run(circuit, inputs, config)
    pulse = run.pulse_events(glitch.kind, run.comp.idx[glitch.signal], glitch.at, glitch.width)
    inputs = {name: replace(trace, horizon=run.t_end) for name, trace in (inputs or {}).items()}
    events = [ExternalEvent(t, glitch.signal, Value(fv)) for t, _, fv in pulse if t < run.t_end]
    return execute(circuit, inputs, replace(config, horizon=run.t_end), events)


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
    """How long past the horizon a probe runs: |C|·max(ε, d_max), the
    circuit size times the longest delay of one step through it."""
    return circuit.size * max([config.epsilon, *(r.delay for r in circuit.rules)])


def _may_repeat(delays: Sequence[float], t_end: float) -> bool:
    """Whether a fault-free run under these rule delays to ``t_end`` is
    watched for a repeat (see ``_FaultFreeRun``): every delay is an
    integer and the run ends before 2**52."""
    return all(float(d).is_integer() for d in delays) and t_end < 2.0**52


class _FaultFreeRun:
    """The fault-free run of one (circuit, inputs, config), which every
    verdict on them overlays; built only by ``_fault_free_run``.

    Construction sets the run up and checks it as ``execute`` does, and
    runs it to T + settle.  Its ``after_visit`` hook keeps the time of each
    visit and a state snapshot at its end, from which fault-free values are
    read; ``visit_times`` holds the same times as a frozenset, so that a
    probe asks whether t is a visit time by one lookup of t, folded past
    t2 (``fold``).  It holds no reference to the circuit.

    When ``_may_repeat`` holds, the hook also stops the run where it starts
    to repeat.  A visit is eligible when it comes after the last input
    transition, its time and every pending due time are integers, no value
    is X and no X action is pending.  The state at the end of an eligible
    visit is keyed by (values, {rule: due - t}); a visit that is not
    eligible clears the table.  The first key seen twice gives the visits
    t1 < t2, period p = t2 - t1, and the kernel stops at t2.

    Why the run from t2 is the run from t1 shifted by p, forever: the
    kernel state at the end of a visit is (values, pend, pend_x) plus what
    follows from it (the guard values, and queue entries of canceled
    actions, whose visits change nothing), and no input or external is
    left.  So the two states, equal up to the shift of every due time by p,
    have futures equal up to that shift, as long as the run computes the
    same due times in both.  With integer delays and a run that ends
    before 2**52, integer visit and due times schedule only integer due
    times, sums of integers below 2**53 that floats hold exactly.  The
    stretch (t1, t2] holds only eligible visits: it schedules no X action
    and needs no epsilon, since a guard on X-free values is never X and a
    visit that drives a value to X keeps it at X to its end.  Its shift by
    p is exact for the same reason, so the stretch repeats unchanged, one
    period after the other.  A time past t2 is therefore read folded into
    the stretch (``fold``): the visits, snapshots, events and value regions
    there are those at t - k·p, shifted by k·p.
    """

    def __init__(self, circuit: Circuit, inputs: InputTraces, config: SimConfig, key: tuple[str, str]):
        self.key = key
        self.config = config
        self.settle = _settle(circuit, config)
        self.t_end = config.horizon + self.settle
        comp, self.in_initial, self.in_transitions = _setup_run(circuit, inputs, config, self.t_end)
        self.comp = comp

        # the fault-free run: _times holds the time of every visit the
        # kernel ran and _snaps a snapshot of each; seen keys the states of
        # the latest run of eligible visits, until one repeats
        times, snaps = self._times, self._snaps = [], []
        self._period: float | None = None
        self._t1: float | None = None
        self._t2 = math.inf  # no time is folded on a run that does not repeat
        seen: dict | None = {} if _may_repeat(comp.delays, self.t_end) else None
        after = self.in_transitions[-1][0] if self.in_transitions else -math.inf

        def after_visit(t, values, pend, pend_x):
            times.append(t)
            snaps.append(_Seed(t, values[:], pend.copy(), pend_x.copy()))
            if seen is None or t <= after:
                return False
            eligible = t.is_integer() and not pend_x and X not in values
            if eligible and all(due.is_integer() for due in pend.values()):
                key = (tuple(values), frozenset([(rid, due - t) for rid, due in pend.items()]))
                t1 = seen.setdefault(key, t)
                if t1 != t:
                    self._t1, self._t2, self._period = t1, t, t - t1
                    return True
            else:
                seen.clear()
            return False

        run = _kernel(
            comp, self.in_transitions, self.in_initial, self.t_end, config.epsilon, (), after_visit=after_visit
        )
        self.initial_values = run.initial_values
        self.visit_times = frozenset(times)
        self._events = run.events
        self._folded: dict[float, _Seed] = {}  # snapshots past t2, by visit time
        # (time, signal id) of each X the run drives before T + settle, an
        # initial X at -inf; past t2 the run repeats (t1, t2], which has no X
        self.x_events = [(-math.inf, sid) for sid, fv in enumerate(self.initial_values) if fv == X] + [
            (t, sid) for t, sid, fv, _ in self._events if fv == X
        ]
        self._regions: list[ValueRegion] | None = None

    def fold(self, t: float) -> float:
        """The k·p that folds a time t past t2 into the stretch (t1, t2];
        0 at or before t2, and on a run that does not repeat.  It is exact,
        and so is t - k·p: p is an integer and t < 2**52 (``_may_repeat``),
        so t - k·p is a multiple of t's float spacing, and ``//`` gives the
        exact k."""
        if t <= self._t2:
            return 0.0
        return -((self._t2 - t) // self._period) * self._period

    def snapshot(self, t: float):
        """Snapshot of the last fault-free visit at or before t, or None.

        The run has no visit at or past T + settle.  Past t2 the snapshot
        is the one at t folded by k·p (``fold``) with its due times moved
        by k·p, made when first read and then kept, so a probe resumed from
        it keeps its guard values.
        """
        if t <= self._t2:
            i = _bisect_mod.bisect_right(self._times, t) - 1
            return self._snaps[i] if i >= 0 else None
        if t >= self.t_end:
            t = math.nextafter(self.t_end, -math.inf)
        shift = self.fold(t)
        snap = self._snaps[_bisect_mod.bisect_right(self._times, t - shift) - 1]
        key = snap.time + shift
        folded = self._folded.get(key)
        if folded is None:
            folded = self._folded[key] = snap.shifted(shift)
        return folded

    @property
    def regions(self) -> list[ValueRegion]:
        """The value regions of the fault-free run up to T, found at the
        first access: past t2, from the events of (t1, t2] shifted by each
        whole period up to ``fold(T)``."""
        if self._regions is None:
            T = self.config.horizon
            times = [ev[0] for ev in self._events]
            if self._period is not None:
                stretch = times[_bisect_mod.bisect_right(times, self._t1) :]
                p = int(self._period)
                times += [t + shift for shift in range(p, int(self.fold(T)) + 1, p) for t in stretch]
            self._regions = _regions_from_times(times, T)
        return self._regions

    def pulse_events(self, kind: str, sid: int, at: float, width: float):
        """The drive and restore events of a pulse of the kind on signal
        ``sid`` (``_pulse_values``), read from this run: it visits t = 0,
        and past T + settle reads as its last visit."""
        end = at + width
        drive, restore = _pulse_values(kind, self.comp.names[sid], lambda t: self.snapshot(t).values[sid], at, end)
        return ((at, sid, drive), (end, sid, restore))


def _fault_free_run(circuit: Circuit, inputs: InputTraces | None, config: SimConfig) -> _FaultFreeRun:
    """The fault-free run of the circuit on the inputs under the config.

    The last run built is kept on the circuit, in one slot, as ``sim``
    keeps the compiled form, and is reused while the inputs and config are
    the same.  They are compared by their ``repr``: by value, but telling
    1 from 1.0 and 0.0 from -0.0, which a run's regions and report bytes
    would show, so a reused run is the run a fresh build would make.  The
    kept run's own config object is not rendered again: ``SimConfig`` is
    frozen, so its ``repr`` has not changed.
    """
    run = getattr(circuit, "_fault_free_run", None)
    config_key = run.key[0] if run is not None and config is run.config else repr(config)
    key = (config_key, repr(sorted((inputs or {}).items())))
    if run is None or run.key != key:
        # a kept probe context overlays the kept run (``is_susceptible``):
        # dropped with it, so that the circuit never keeps two runs
        circuit.__dict__.pop("_probe_context", None)
        run = _FaultFreeRun(circuit, inputs, config, key)
        object.__setattr__(circuit, "_fault_free_run", run)
    return run


# The benchmark in bench/ wraps _ProbeContext.probe(signal, at, width,
# memo=None) and reads its positional arguments (a bisection passes its memo
# by keyword), wraps _ProbeContext.matches (a probe's
# after_visit hook calls it through self, so it counts the convergence
# checks), the module global _kernel (it tells probes by their record=False
# keyword, so only probes pass it: the fault-free run counts as a base run),
# analyze, is_susceptible and value_regions, counts PostfixViolationWarning
# (never raised, so its analysis.postfix_violations reads 0; the report
# lists those regions), and outside this module wraps sim.execute,
# cli._GENERATORS, cli.main and the public generators, netlist, prs and
# waveform functions it runs: keep these names and call shapes.
class _ProbeContext:
    """The one owner of an analysis query: the monitored set, the pulse kind
    and the probe count, over the fault-free run ``run``
    (``_fault_free_run``) of the circuit, inputs and config.  Building it
    checks all of them, the monitored names before the run is built, so an
    analysis builds it in the caller.  It holds no circuit.

    A probe resumes from the snapshot of the last visit before the pulse
    and stops as soon as a monitored signal attains X (susceptible), or,
    from the pulse end on, where its one after-visit hook finds the state
    re-converged to the fault-free run with no X left in flight or, given a
    memo, equal to a state that an earlier probe of the memo reached.  A
    re-converged probe is susceptible when the fault-free run drives a
    monitored signal to X later (``base_mon_x`` says whether it ever does),
    and a pulse after such an X is susceptible with no probe run.  A pulse
    before it can still mask it, so the fault-free X alone decides nothing.
    Verdicts are identical to re-running the full execution to T + settle
    with the pulse overlaid.  The context keeps no memo:
    ``_windows_for_signal`` makes one per signal, so ``is_susceptible`` and
    ``analyze_naive`` store no state.
    """

    def __init__(
        self,
        circuit: Circuit,
        inputs: InputTraces,
        config: SimConfig,
        monitored: Iterable[str],
        fault_kind: str = X_PULSE,
    ):
        self.monitored = sorted(monitored)
        if not self.monitored:
            raise ValueError("monitored set must not be empty")
        if fault_kind not in (X_PULSE, FLIP_PULSE):
            raise ValueError(f"unknown pulse kind {fault_kind!r}")
        self.fault_kind = fault_kind
        unknown = monitor_violations(circuit, self.monitored)
        if unknown:
            _compiled(circuit)  # an invalid circuit raises its own violations
            raise CircuitInvalid(unknown)
        run = self.run = _fault_free_run(circuit, inputs, config)
        self.mon_ids = frozenset(run.comp.idx[m] for m in self.monitored)
        # the times at which the fault-free run drives a monitored signal to X
        self.mon_x_times = [t for t, sid in run.x_events if sid in self.mon_ids]
        self.base_mon_x = bool(self.mon_x_times)
        self.simulations = 0
        self.hit_time = -math.inf

    def matches(self, t: float, values, pend, pend_x) -> bool:
        snap = self.run.snapshot(t)
        return snap is not None and snap.pend == pend and snap.pend_x == pend_x and snap.values == values

    def probe(self, signal: str, at: float, width: float, memo: dict | None = None) -> bool:
        """Susceptibility verdict for one pulse; counts one simulation and
        keeps, in ``hit_time``, the time of the visit at which the probe
        saw a monitored X, or of the fault-free X it re-converged before
        (-inf when it saw none, or when the fault-free run has one before
        the pulse and no probe runs).  Both come from the probe's one
        [verdict, hit time] record, filled when the run ends or copied from
        the stored state it meets.

        A ``memo`` dict, shared by the probes of one signal's bisection,
        holds the kernel states that earlier probes passed through, each
        with the record of the probe that stored it.  It maps a fault-free
        visit time t to the states (values, pend, pend_x, record) that
        those probes had at the end of their visit at t, at or after their
        pulse end.  Whether t is a fault-free visit time is one lookup in
        the run's ``visit_times``, of t folded by ``fold`` past t2: the
        same answer as ``run.snapshot(t).time == t``, without building the
        snapshot.  At such a visit the after-visit hook compares the
        probe's state with each one stored at t, by list and dict equality.
        At an equal one it stops and copies that record into the probe's
        own, which the states the probe stored before share; otherwise it
        stores a copy of the state with the probe's record.  This is exact:
        from the visit at the pulse end on, both externals are applied and
        no other is left, the guard values follow from the values, the
        inputs still to come from t, and queue entries of canceled actions
        only add visits that change nothing.  So equal (t, values, pend,
        pend_x) have equal futures: the same monitored X at the same time,
        or none.  Storing only at fault-free visit times keeps the states
        few, a handful per time, and the ones that recur, as probes at
        nearby times meet there.
        """
        self.simulations += 1
        run = self.run
        events = run.pulse_events(self.fault_kind, run.comp.idx[signal], at, width)
        # resume from the last fault-free visit before the pulse: on float
        # times, the last one at or before the next float down
        seed = run.snapshot(math.nextafter(at, -math.inf))
        if self.base_mon_x and self.mon_x_times[0] <= (-math.inf if seed is None else seed.time):
            self.hit_time = -math.inf
            return True  # the faulty run repeats that monitored X
        end = events[1][0]
        record = [None, -math.inf]  # [verdict, hit time]; None until known
        visit_times, t2, fold = run.visit_times, run._t2, run.fold

        def after_visit(t, values, pend, pend_x):
            # the pulse lies in (seed time, end] and end < T + settle, so
            # from the visit at end on both externals are applied
            if t < end:
                return False
            if not pend_x and X not in values and self.matches(t, values, pend, pend_x):
                return True  # converged, with no X live or pending
            if memo is None or (t - fold(t) if t > t2 else t) not in visit_times:
                return False
            states = memo.get(t)
            if states is None:
                states = memo[t] = []
            for seen_values, seen_pend, seen_pend_x, seen in states:
                if seen_pend == pend and seen_pend_x == pend_x and seen_values == values:
                    record[:] = seen  # the states this probe stored hold its record
                    return True
            states.append((values[:], pend.copy(), pend_x.copy(), record))
            return False

        faulty = _kernel(
            run.comp,
            run.in_transitions,
            run.in_initial,
            run.t_end,
            run.config.epsilon,
            events,
            record=False,
            watch=self.mon_ids,
            seed=seed,
            after_visit=after_visit,
        )
        if record[0] is None:
            record[0] = faulty.watch_hit
            if faulty.watch_hit:
                record[1] = faulty.time
            elif faulty.time < run.t_end and self.base_mon_x:
                # re-converged at faulty.time, so the fault-free future
                # follows: the first monitored X after it, if any, is the hit
                i = _bisect_mod.bisect_right(self.mon_x_times, faulty.time)
                if i < len(self.mon_x_times):
                    record[:] = True, self.mon_x_times[i]
        sus, self.hit_time = record
        return sus


# --- bisection -------------------------------------------------------------------


def _locate_window(probe, region: ValueRegion, gamma: float, delta: float):
    """Endpoint classification plus bisection within one region, on the
    verdict function ``probe(at) -> bool`` of pulses of width gamma.

    Returns the susceptible part (start, end) of the region, empty when
    start == end.  It is a postfix unless the region start is susceptible and
    its end masked: the postfix shape does not hold at these finite pulse
    parameters, and the part is the prefix up to the boundary, which ends
    before the region does.
    """
    r0, r1 = region.start, region.end
    hi_cap = r1 - gamma
    if hi_cap <= r0:
        return (r0, r1) if probe(r0) else (r1, r1)
    lo_sus = probe(r0)
    hi_sus = probe(hi_cap)
    if lo_sus == hi_sus:
        return (r0, r1) if lo_sus else (r1, r1)
    lo, hi = r0, hi_cap
    while hi - lo > delta:
        mid = (lo + hi) / 2.0
        if probe(mid) == hi_sus:
            hi = mid
        else:
            lo = mid
    return (hi, r1) if hi_sus else (r0, hi)


class _Verdicts:
    """The verdict function of one (signal, region) bisection: the verdicts
    ``replay`` in order, then real probes of the context, whose verdicts it
    keeps in ``verdicts`` with the latest hit time among them in
    ``last_hit``."""

    def __init__(
        self, ctx: _ProbeContext, signal: str, gamma: float, replay: Sequence[bool] = (), memo: dict | None = None
    ):
        self.ctx, self.signal, self.gamma, self.memo = ctx, signal, gamma, memo
        self.replay = iter(replay)
        self.verdicts: list[bool] = []
        self.last_hit = -math.inf

    def __call__(self, at: float) -> bool:
        verdict = next(self.replay, None)
        if verdict is not None:
            return verdict
        sus = self.ctx.probe(self.signal, at, self.gamma, memo=self.memo)
        self.verdicts.append(sus)
        if sus:
            self.last_hit = max(self.last_hit, self.ctx.hit_time)
        return sus


def _windows_for_signal(ctx: _ProbeContext, signal: str, gamma: float, delta: float):
    """The windows of one signal, one value region at a time, the number of
    real probes they took and the (signal, start, end) of its prefix-shaped
    regions (``_locate_window``).
    Probing is its only effect, so any process may run it for the caller.
    Its real probes share one memo of kernel states, indexed by fault-free
    visit time (``_ProbeContext.probe``), dropped when the signal is done:
    each entry holds a whole state, so the memo's size follows the probes
    of one signal, not of the analysis.

    A region that starts past t2, except the last, which T may cut, is the
    region k·p earlier shifted by k·p, with k·p = ``fold(start)``: the
    earlier region lies in (t1, t2], and as the cuts past t2 are those of
    (t1, t2] shifted, both have the same length.  The fault-free run around
    them is the same up to that shift, so a pulse in the later region sees
    the dynamics of the pulse k·p earlier, cut off k·p sooner by
    T + settle.  Its verdict is the earlier one, provided a hit of the
    earlier probe came before T + settle - k·p; a masked probe either
    re-joined the fault-free run or met no monitored X up to T + settle,
    and so does its shift.  When every hit of the earlier region's
    bisection qualifies, the later region runs the same bisection on its
    verdicts, in order, with its own arithmetic, and probes for real only
    if it asks for more of them than the earlier region did.
    """
    run = ctx.run
    regions = run.regions
    windows, prefixes = [], []
    used: dict[float, _Verdicts] = {}  # per region at or before t2, by start
    memo: dict = {}  # by visit time, the states this signal's probes reached there
    probes = ctx.simulations
    for region in regions:
        replay: Sequence[bool] = ()
        shift = run.fold(region.start)
        if shift and region is not regions[-1]:
            # the earlier region lies in (t1, t2] and was probed for real
            earlier = used[region.start - shift]
            if earlier.last_hit < run.t_end - shift:
                replay = earlier.verdicts
        probe = _Verdicts(ctx, signal, gamma, replay, memo)
        if not shift:
            used[region.start] = probe
        start, end = _locate_window(probe, region, gamma, delta)
        if end < region.end:  # a prefix: see _locate_window
            prefixes.append((signal, region.start, region.end))
        if start < end:
            windows.append(SensitivityWindow(signal, start, end))
    return windows, ctx.simulations - probes, prefixes


# a pool worker's probe context: a worker started by fork inherits the
# caller's circuit with its fault-free run, one started by spawn rebuilds it
_worker_ctx: _ProbeContext | None = None


def _init_worker(ctx_args: tuple) -> None:
    global _worker_ctx
    _worker_ctx = _ProbeContext(*ctx_args)


def _worker_windows(signal: str, gamma: float, delta: float):
    return _windows_for_signal(_worker_ctx, signal, gamma, delta)


# --- full analyses ----------------------------------------------------------------


def _require_positive(**params: float) -> None:
    for name, value in params.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _resolve_injection(circuit, monitored, injection_set):
    injected = sorted(circuit.signals.difference(monitored) if injection_set is None else set(injection_set))
    unknown = sorted(set(injected) - circuit.signals)
    if unknown:
        _compiled(circuit)  # an invalid circuit raises its own violations
        raise ValueError(f"injection signals not in circuit: {', '.join(unknown)}")
    return injected


def _report(
    ctx: _ProbeContext,
    per_signal: Mapping[str, Sequence[SensitivityWindow]],
    gamma: float,
    delta: float,
    simulations: int,
    postfix_violations: tuple[tuple[str, float, float], ...],
) -> SensitivityReport:
    """Report on the query of the context from the windows of each injected
    signal, in injection order, and the prefix-shaped regions."""
    config = ctx.run.config
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
        settle=ctx.run.settle,
        monitored=tuple(ctx.monitored),
        injected=tuple(per_signal),
        fault_kind=ctx.fault_kind,
        windows=windows,
        p_fail=p_fail,
        p_per_signal=p_per_signal,
        simulations=simulations,
        postfix_violations=postfix_violations,
    )


def analyze(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    gamma: float = DEFAULT_GAMMA,
    delta: float = DEFAULT_DELTA,
    config: SimConfig = SimConfig(),
    injection_set: Iterable[str] | None = None,
    fault_kind: str = X_PULSE,
    jobs: int = 1,
) -> SensitivityReport:
    """Locate all sensitivity windows by per-region bisection and report the
    failure probability under a uniform single-fault distribution.

    On a fault-free run that repeats with period p from t1 on, a region that
    starts past t2 = t1 + p, except the last, replays the verdicts of the
    region whole periods earlier (``_windows_for_signal``): the windows are
    those real probes find, and ``simulations`` counts only the probes that
    ran.

    The injection set defaults to every signal except the monitored ones.
    Under X-pulses a monitored signal in the injection set is susceptible at
    every time by definition (the pulse itself drives it to X), so it gets a
    full window without probing; under flip-pulses it is probed.

    For every ``jobs`` the caller checks the whole query before the first
    kernel run (what ``execute`` rejects, unknown monitored or injection
    signals, gamma or delta <= 0, a ``jobs`` that is not an integer >= 1),
    bisects the signals, one per task on a pool of ``jobs`` processes when
    ``jobs > 1`` (a fork-started worker shares the caller's fault-free run),
    and then lists each prefix-shaped region in ``postfix_violations``, in
    injection and region order: the report is the same for every ``jobs``.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    _check_gamma(gamma, config.horizon)
    _require_positive(delta=delta, jobs=jobs)
    monitored = sorted(monitored)
    injected = _resolve_injection(circuit, monitored, injection_set)
    ctx = _ProbeContext(circuit, inputs, config, monitored, fault_kind=fault_kind)
    full = ctx.monitored if fault_kind == X_PULSE else ()
    probed = [s for s in injected if s not in full]
    workers = min(jobs, len(probed))
    if workers > 1:
        ctx_args = (circuit, inputs, config, ctx.monitored, fault_kind)
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(ctx_args,)) as pool:
            results = list(pool.map(_worker_windows, probed, repeat(gamma), repeat(delta)))
    else:
        results = list(map(partial(_windows_for_signal, ctx), probed, repeat(gamma), repeat(delta)))
    found = {s: windows for s, (windows, _, _) in zip(probed, results)}
    per_signal = {s: [SensitivityWindow(s, 0.0, config.horizon)] if s in full else found[s] for s in injected}
    prefixes = tuple(p for _, _, sig_prefixes in results for p in sig_prefixes)
    return _report(ctx, per_signal, gamma, delta, sum(probes for _, probes, _ in results), prefixes)


def analyze_naive(
    circuit: Circuit,
    inputs: InputTraces,
    monitored: Iterable[str],
    gamma: float = DEFAULT_GAMMA,
    step: float = 0.25,
    config: SimConfig = SimConfig(),
    injection_set: Iterable[str] | None = None,
    fault_kind: str = X_PULSE,
) -> SensitivityReport:
    """Grid-scan reference: one pulse at every multiple of the step, for every
    injection signal.  Exactly |injected| * ceil(T/step) simulations."""
    _check_gamma(gamma, config.horizon)
    _require_positive(step=step)
    monitored = sorted(monitored)
    injected = _resolve_injection(circuit, monitored, injection_set)
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
                sig_windows.append(SensitivityWindow(s, start, k * step))
                start = None
        if start is not None:
            sig_windows.append(SensitivityWindow(s, start, T))
    return _report(ctx, per_signal, gamma, step, ctx.simulations, ())


def check_weights(injected: Sequence[str], weights: Mapping[str, float]) -> float:
    """Check that the weights are valid for the injected signals and return
    their total: every injected signal has a weight, every weight is
    nonnegative and finite, and the injected signals' total is not zero."""
    missing = [s for s in injected if s not in weights]
    if missing:
        raise ValueError(f"weights missing for: {', '.join(missing)}")
    bad = {s: w for s, w in weights.items() if not 0 <= w < math.inf}
    if bad:
        raise ValueError(f"weights must be nonnegative and finite: {bad}")
    total = math.fsum(weights[s] for s in injected)
    if total == 0:
        raise ValueError("total weight is zero")
    return total


def p_fail_weighted(report: SensitivityReport, weights: Mapping[str, float]) -> float:
    """Weighted average of the per-signal fault probabilities; the weights
    must pass ``check_weights`` for the report's injected signals."""
    total = check_weights(report.injected, weights)
    return math.fsum(weights[s] * report.p_per_signal[s] for s in report.injected) / total
