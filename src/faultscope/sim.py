"""Deterministic discrete-event execution of production rule sets.

An execution advances through visited time points. At each visit:

1.  input-trace transitions at t become visible;
2.  actions due at t are applied (Boolean actions, then X actions);
3.  external events at t are applied;
4.  rules are (re)evaluated: a fresh guard edge to 1 schedules the rule's
    action after its delay; a guard at X with the target neither at X nor at
    the rule's value schedules an X on the target after the small propagation
    delay epsilon.  The kernel keeps every rule's last guard value, so only
    the guards that read a changed signal are evaluated again, by that
    signal's handler: code generated once per fan-out shape that evaluates
    each reader's guard inline and schedules its action.  A rule acts when
    its guard value changed, or when its guard stays at X and its target
    changed;
5.  time advances to the earliest due time in the queue of actions, input
    transition, or external event; the run stops at the horizon.  A
    canceled action stays queued, so its due time is still visited, with
    nothing left to apply.

Steps 1 and 3 are one step function applied to two streams, the input
transitions and the external events.  Each of steps 1-3 that changed a value
is followed by the handling of unstable guards: a pending Boolean action
whose guard no longer evaluates to true while the target does not yet hold
the action's value is canceled and the target is driven to X immediately
(the gate was mid-switching and its drive got corrupted).  This runs to a fixpoint over the dirty pending rules
only, those that read or drive a signal changed since the last fixpoint, in
passes of ascending rule id.

A run may watch signals: it stops right after the step (or fixpoint) that
drives a watched signal to X, since that decides both that the X happens and
when.  The rest of that visit is not run, so a watched run's final values
and guard values belong to a partly run visit; only its hit flag and time
hold.

Scheduling is edge-triggered: while a guard stays at 1 a rule never
re-schedules an action it has already scheduled or applied.  Equal-time events
are drained as one batch and processed in canonical (sorted signal name)
order, so identical arguments always produce identical executions.

A circuit runs in its compiled form (``_compiled``), made once per circuit
and kept on it.  Compiling is where a circuit is validated: an invalid one
raises ``prs.CircuitInvalid`` with all its violations.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import types
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .prs import (
    And,
    Circuit,
    CircuitInvalid,
    InputTraces,
    Not,
    Or,
    SignalRef,
    SignalTrace,
    Value,
    check_input_traces,
    validate_circuit,
)

X = 0.5  # numeric encoding used throughout the kernel
_VALUES = {v.value: v for v in Value}
_SHARED = {v.value: v.value for v in Value}  # any equal float -> the shared one


@dataclass(frozen=True)
class SimConfig:
    """Execution horizon and X propagation delay (0 < epsilon < d_min); the
    defaults here are those of every command and API entry point."""

    horizon: float = 100.0
    epsilon: float = 0.1


@dataclass(frozen=True)
class ExternalEvent:
    at: float
    target: str
    value: Value


@dataclass(frozen=True)
class Event:
    """One recorded value change, with the mechanism that caused it."""

    time: float
    signal: str
    value: Value
    cause: str


@dataclass(frozen=True)
class Execution:
    traces: Mapping[str, SignalTrace]
    events: tuple[Event, ...]
    horizon: float


def count_events(execution: Execution) -> int:
    """Total number of transitions across all signal traces."""
    return sum(len(t.transitions) for t in execution.traces.values())


# --- compiled circuit -------------------------------------------------------


_SLOT = 2**40  # placeholder constant k of a shape's code is _SLOT + k
_GLOBALS = {"heappush": heapq.heappush}  # the names a stamped function reads
_GUARD_SHAPES: dict[str, types.CodeType] = {}  # guard code by its source, per process
_STEP4_SHAPES: dict[tuple, types.CodeType] = {}  # step-4 code by fan-out shape, per process
_SHAPES_MAX = 512  # each cache's cap, as re caps its pattern cache


def _slot(slots: list, value) -> int:
    """A new placeholder constant that stands for ``value``."""
    slots.append(value)
    return _SLOT + len(slots) - 1


def _guard_source(expr, slots, temps) -> str:
    """Python expression for a guard's shape over the value list ``v``:
    Kleene min and max as conditional expressions, sub-results held in
    walrus temporaries drawn from ``temps``.  Each signal occurrence reads
    ``v`` at a new placeholder that stands for the signal's name
    (``_slot``), so guards that differ only in the signals they read share
    one source."""
    if isinstance(expr, SignalRef):
        return f"v[{_slot(slots, expr.name)}]"
    if isinstance(expr, Not):
        return f"(1.0-{_guard_source(expr.child, slots, temps)})"
    if isinstance(expr, (And, Or)):
        op = "<" if isinstance(expr, And) else ">"
        acc = _guard_source(expr.children[0], slots, temps)
        for child in expr.children[1:]:
            a, b = f"_{next(temps)}", f"_{next(temps)}"
            acc = f"({a} if ({a}:={acc}) {op} ({b}:={_guard_source(child, slots, temps)}) else {b})"
        return acc
    raise TypeError(f"not a guard expression: {expr!r}")


def _step4_source(rules) -> str:
    """Source of the step-4 handler of a signal read by ``rules``, in rule
    id order: each rule's guard inline, then step 4's scheduling.  Besides
    the guard's placeholders, each rule has five, in this order: its rule
    id, ``1 << rule id``, target id, delay and ``n_rules + target id``."""
    lines = ["def step4(v, gv, pend, pend_x, queue, times, t, t_x, new_x, pend_mask):"]
    slots: list = []
    temps = itertools.count()
    for rule in rules:
        guard = _guard_source(rule.guard, slots, temps)
        r, bit, tgt, delay, x_entry = (_slot(slots, None) for _ in range(5))
        b = float(rule.value)
        lines += [
            f"    g = {guard}",
            f"    if g != gv[{r}]:",
            f"        gv[{r}] = g",
            "        if g == 1.0:",
            f"            if v[{tgt}] != {b} and not pend_mask & {bit}:",
            f"                due = t + {delay}",
            f"                pend[{r}] = due",
            f"                pend_mask |= {bit}",
            "                bucket = queue.get(due)",
            "                if bucket is None:",
            f"                    queue[due] = [{r}]",
            "                    heappush(times, due)",
            "                else:",
            f"                    bucket.append({r})",
            f"        elif g == {X}:",
            f"            cur = v[{tgt}]",
            f"            if cur != {b} and cur != {X} and {tgt} not in pend_x:",
            f"                pend_x[{tgt}] = t_x",
            f"                new_x.append({x_entry})",
        ]
    lines.append("    return pend_mask")
    return "\n".join(lines) + "\n"


def _code(source: str) -> types.CodeType:
    """The code of the one function that ``source`` defines."""
    module = compile(source, "<shape>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def _shape_code(cache: dict, shape, source) -> types.CodeType:
    """The code of a shape from a per-process ``cache``, compiled from
    ``source()`` at the shape's first use; the oldest shape is dropped when
    the cache is full."""
    code = cache.get(shape)
    if code is None:
        if len(cache) >= _SHAPES_MAX:
            del cache[next(iter(cache))]
        code = cache[shape] = _code(source())
    return code


def _stamped(code: types.CodeType, slots: Sequence, filename: str) -> types.FunctionType:
    """A function of ``code`` with each placeholder constant replaced by
    the value it stands for in ``slots``, under ``filename`` so that
    profiles tell the functions of one shape apart: the bytecode a function
    compiled for these values alone would have."""
    consts = tuple(slots[c - _SLOT] if type(c) is int and c >= _SLOT else c for c in code.co_consts)
    return types.FunctionType(code.replace(co_consts=consts, co_filename=filename), _GLOBALS)


class _Compiled:
    """Index-based form of a circuit shared by all runs.

    Rules are numbered in the circuit's canonical order (target, up-rule
    first), so rule id order is target order.  Per rule: guard function
    ``fns``, target signal id, action value, delay, label and ``bits``,
    ``1 << rule id``.  Per signal: ``fan``, the rules whose guard reads it,
    ``affected``, those and the rules that drive it, as a bitmask over rule
    ids, ``against``, by its value (index ``value == 1.0``), the rules that
    drive it to the other value, and ``step4``, its step-4 handler
    (``_kernel``).

    Compiling validates the circuit first (``validate_circuit``) and then
    walks each guard once, through ``_guard_source``: the slots it fills
    name the signals the guard reads, so they give both the rule's guard
    function its signal ids and the rule its place in ``fan``.

    A circuit repeats a few gate shapes once per bit and stage, so guards
    are compiled once per shape and kept per process in ``_GUARD_SHAPES``,
    not compiled once per rule or again for each circuit: a second parse
    of a netlist compiles none.  A rule's function is its shape's code with
    the placeholder constants replaced by the rule's signal ids
    (``_stamped``), under the file name ``<guard LABEL>``: the same
    bytecode a lambda compiled for the rule alone would have.

    A signal's handler ``step4[sid](v, gv, pend, pend_x, queue, times, t,
    t_x, new_x, pend_mask) -> pend_mask`` evaluates the guard of each rule
    in ``fan[sid]`` inline, in rule id order, and, when its value changed,
    updates ``gv`` and schedules the rule's action as step 4 says.  It is
    stamped the same way from code compiled once per fan-out shape (the
    readers' guard shapes and action values) and kept per process in
    ``_STEP4_SHAPES``, as ``re`` keeps patterns (``_shape_code``): mb8 has
    11 such shapes for its 127 signals.  The signal ids, rule ids, targets,
    delays, ``1 << rid`` and ``n_rules + target`` are its placeholders, and
    its file name is ``<step4 NAME>``.  The handlers are built by the first
    kernel run with a visit to make (``build_step4``), not here, so parsing
    a circuit and a T=0 run build none.
    """

    __slots__ = (
        "names",
        "idx",
        "n",
        "rules",
        "guard_shapes",
        "guard_ids",
        "fns",
        "targets",
        "bvals",
        "delays",
        "labels",
        "fan",
        "affected",
        "against",
        "bits",
        "step4",
        "initial",
        "d_min",
    )

    def __init__(self, circuit: Circuit):
        violations = validate_circuit(circuit)
        if violations:
            raise CircuitInvalid(violations)
        self.names = sorted(circuit.signals)
        idx = self.idx = {s: i for i, s in enumerate(self.names)}
        self.n = len(self.names)
        self.rules = circuit.rules

        fns, targets, bvals, delays, labels, bits = [], [], [], [], [], []
        fan: list[list[int]] = [[] for _ in range(self.n)]
        against = [([], []) for _ in range(self.n)]  # rules to 1, rules to 0
        affected = [0] * self.n
        guard_shapes, guard_ids = [], []
        for rid, rule in enumerate(circuit.rules):
            label = f"{rule.target}{'+' if rule.value else '-'}"
            slots: list[str] = []
            source = f"lambda v: {_guard_source(rule.guard, slots, itertools.count())}"
            code = _shape_code(_GUARD_SHAPES, source, lambda: source)
            ids = tuple(idx[s] for s in slots)
            fns.append(_stamped(code, ids, f"<guard {label}>"))
            guard_shapes.append(source)
            guard_ids.append(ids)
            tgt = idx[rule.target]
            bit = 1 << rid
            targets.append(tgt)
            bvals.append(float(rule.value))
            delays.append(rule.delay)
            labels.append(label)
            bits.append(bit)
            against[tgt][not rule.value].append(rid)
            affected[tgt] |= bit
            for sid in set(ids):
                fan[sid].append(rid)
                affected[sid] |= bit
        self.guard_shapes, self.guard_ids = tuple(guard_shapes), tuple(guard_ids)
        self.fns, self.targets, self.bvals = tuple(fns), tuple(targets), tuple(bvals)
        self.delays, self.labels, self.bits = tuple(delays), tuple(labels), tuple(bits)
        self.fan = tuple(map(tuple, fan))
        self.affected = tuple(affected)
        self.against = tuple((tuple(up), tuple(down)) for up, down in against)
        self.step4 = None
        self.d_min = min(delays) if delays else float("inf")

        self.initial = [X] * self.n
        for s, v in circuit.initial.items():
            self.initial[idx[s]] = v.value

    def build_step4(self) -> tuple:
        """Build, keep and return ``step4``, one handler per signal."""
        n_rules = len(self.fns)
        handlers = []
        for sid, readers in enumerate(self.fan):
            shape = tuple((self.guard_shapes[rid], self.bvals[rid]) for rid in readers)
            code = _shape_code(_STEP4_SHAPES, shape, lambda: _step4_source([self.rules[rid] for rid in readers]))
            slots: list = []
            for rid in readers:  # in _step4_source's order
                tgt = self.targets[rid]
                slots += self.guard_ids[rid]
                slots += (rid, self.bits[rid], tgt, self.delays[rid], n_rules + tgt)
            handlers.append(_stamped(code, slots, f"<step4 {self.names[sid]}>"))
        self.step4 = tuple(handlers)
        return self.step4


def _compiled(circuit: Circuit) -> _Compiled:
    comp = getattr(circuit, "_compiled_form", None)
    if comp is None:
        comp = _Compiled(circuit)
        object.__setattr__(circuit, "_compiled_form", comp)
    return comp


# --- kernel -----------------------------------------------------------------

_INF = float("inf")


class _Seed:
    """Kernel state at the end of one visit, for resuming a run mid-way.

    ``pend`` maps rule ids and ``pend_x`` signal ids to the due times of
    their pending actions.  ``index`` is the position of the visit in the
    run that kept the snapshot (``analysis._FaultFreeRun``), that of the
    visit it folds onto for a snapshot shifted past the repeat, or -1.  The
    rest of the kernel state follows from these and is built on the first
    resume, then kept: the guard values, which equal every guard evaluated
    on ``values``, the bitmask of the pending rules, and a template of the
    queue of the pending actions (``_kernel``): their distinct due times in
    ascending order, a valid heap, and the (due time, tuple of its entries)
    pairs, from which each resume builds its own lists.
    """

    __slots__ = ("time", "values", "pend", "pend_x", "index", "_gv", "_pend_mask", "_times", "_batches")

    def __init__(self, time, values, pend, pend_x, index=-1):
        self.time = time
        self.values = values  # list of floats
        self.pend = pend  # dict rule id -> due
        self.pend_x = pend_x  # dict signal id -> due
        self.index = index
        self._gv = None
        self._pend_mask = 0
        self._times = None
        self._batches = None

    def resume(self, fns) -> tuple[list, int, list, dict]:
        """Fresh copies of the guard values, the bitmask of the pending
        rules, and the queue: the heap of due times and the dict from each
        due time to its list of entries."""
        if self._gv is None:
            values = self.values
            # kept for every later resume, so hold the three shared floats,
            # not the new float a negated guard returns
            self._gv = [_SHARED[fn(values)] for fn in fns]
            self._pend_mask = sum(1 << rid for rid in self.pend)
            queue: dict[float, list[int]] = {}
            for rid, due in self.pend.items():
                queue.setdefault(due, []).append(rid)
            for sid, due in self.pend_x.items():
                queue.setdefault(due, []).append(len(fns) + sid)
            self._times = sorted(queue)
            self._batches = tuple((due, tuple(queue[due])) for due in self._times)
        return self._gv[:], self._pend_mask, self._times[:], {due: [*batch] for due, batch in self._batches}

    def shifted(self, d: float) -> "_Seed":
        """The same state ``d`` time units later: every due time moves by d,
        and the index stays."""
        return _Seed(
            self.time + d,
            self.values,
            {rid: due + d for rid, due in self.pend.items()},
            {sid: due + d for sid, due in self.pend_x.items()},
            self.index,
        )


class _Run:
    """One kernel run: final state and raw events.

    A recorded event is the tuple (time, signal id, value, cause).  ``time``
    is where the run stopped: the visit that hit a watched signal or whose
    ``after_visit`` returned True, or the first time at or past the
    horizon.  A run that hit a watched signal stopped right after the step
    that drove it to X: its ``values`` and ``gv`` are those of a partly run
    visit, and only ``watch_hit`` and ``time`` hold."""

    __slots__ = ("values", "gv", "initial_values", "events", "watch_hit", "time")

    def __init__(self, values, gv, initial_values, events, watch_hit, time):
        self.values = values
        self.gv = gv
        self.initial_values = initial_values
        self.events = events
        self.watch_hit = watch_hit
        self.time = time


def _cancel_unstable(comp, todo, t, values, pend, pend_mask, changed, watch, events) -> tuple[int, bool]:
    """The handling of unstable guards at time t, to a fixpoint, from the
    pending rules ``todo`` (a bitmask over rule ids) that read or drive a
    signal changed since the last fixpoint; returns the new bitmask of the
    pending rules and whether a ``watch`` signal went to X.

    A rule whose pending action no longer has a solidly true guard is
    mid-switching with a degraded drive: cancel the action and corrupt the
    target.  Runs after every step that changed a signal a pending rule
    reads or drives, so X generation does not depend on when the next
    event happens to be scheduled.  Rules
    are checked in passes of ascending rule id; a cancellation dirties the
    pending rules of its target, a higher id for this pass, a lower one for
    the next.  A change is written as the kernel writes one, and recorded
    when ``events`` is a list.
    """
    fns, targets, bvals, affected, labels = comp.fns, comp.targets, comp.bvals, comp.affected, comp.labels
    hit = False
    later = 0  # the next pass
    while todo:
        bit = todo & -todo
        todo ^= bit
        rid = bit.bit_length() - 1
        tgt = targets[rid]
        if fns[rid](values) != 1.0 and values[tgt] != bvals[rid]:
            del pend[rid]
            pend_mask ^= bit
            if values[tgt] != X:
                values[tgt] = X
                changed.append(tgt)
                if tgt in watch:
                    hit = True
                if events is not None:
                    events.append((t, tgt, X, "unstable " + labels[rid]))
                more = affected[tgt] & pend_mask
                todo |= more & -(bit << 1)
                later |= more & (bit - 1)
        if not todo:
            todo, later = later, 0
    return pend_mask, hit


def _apply_due(comp, stream, k, t, cause, values, pend, pend_mask, changed, watch, events) -> tuple[int, int, bool]:
    """Step 1 (input transitions, ``cause`` "in") or step 3 (external
    events, "ext") at time t: apply the entries of the sorted (time, signal
    id, value) ``stream`` from cursor ``k`` on that are due at t, then the
    handling of unstable guards when they dirtied a pending rule.  Returns
    the cursor past them, the new bitmask of the pending rules and whether a
    ``watch`` signal went to X; a hit skips the fixpoint, as the run ends
    there.  A change is written and recorded as the kernel writes one."""
    affected = comp.affected
    n = len(stream)
    dirty = 0  # the rules that read or drive a signal changed here
    hit = False
    while k < n and stream[k][0] == t:
        _, sid, fv = stream[k]
        k += 1
        if values[sid] == fv:
            continue
        values[sid] = fv
        changed.append(sid)
        dirty |= affected[sid]
        if fv == X and sid in watch:
            hit = True
        if events is not None:
            events.append((t, sid, fv, cause))
    todo = dirty & pend_mask
    if todo and not hit:
        pend_mask, hit = _cancel_unstable(comp, todo, t, values, pend, pend_mask, changed, watch, events)
    return k, pend_mask, hit


def _kernel(
    comp: _Compiled,
    input_transitions: Sequence[tuple[float, int, float]],
    input_initial: Mapping[int, float],
    horizon: float,
    epsilon: float,
    externals: Sequence[tuple[float, int, float]],
    record: bool = True,
    watch: frozenset = frozenset(),
    seed: _Seed | None = None,
    after_visit=None,
) -> _Run:
    """Run the five-step loop over the visits before ``horizon``. Input
    transitions and externals are sorted (time, signal id, value) triples;
    times are exact floats.  Those at or before a seed's time are skipped;
    one at or past the horizon is never reached.

    Pending actions wait in a queue with one bucket per due time: a dict
    from the due time to its list of entries, and a heap of those due
    times, over an infinite time that is never popped.  An entry is the
    rule id of a Boolean action, or ``n_rules + signal id`` of an X
    action, so one sort of a bucket gives step 2's order: Boolean actions
    by rule id, then X actions by signal id.  A canceled action leaves its
    entry in its bucket, so its due time is still visited, and the entry no
    longer matches the rule's due time.  A run without a seed starts with
    an empty bucket due at 0, its first visit.

    A visit pays only for the steps it has: steps 1 and 3 run only when an
    input transition or an external event is due, both through one step
    function (``_apply_due``) that writes a stream's due entries and settles
    them, and the unstable-guard fixpoint (``_cancel_unstable``) only after
    a step that changed a signal read or driven by a pending rule.  Each
    value change ORs the rules it dirties into one bitmask, so that this
    test is one AND with the bitmask of the pending rules.

    Step 4 calls the handler (``_Compiled.step4``) of each signal changed
    during the visit, in the order of the changes, and at a run's first
    visit every signal's handler, since every guard reads a signal.  A rule
    read by two changed signals, or by one changed twice, is evaluated
    again, and the second evaluation is a no-op: its guard equals the
    value just cached.  The order in which readers are evaluated does not
    change step 4's end state.  Each decision reads only the visit's final
    values, the rule's own ``gv`` and ``pend`` entries and, for an X,
    ``pend_x[target]``, which each rule that schedules an X on the target
    at this visit sets to the same ``t_x``.  The bucket entries a visit
    adds are sorted when popped, and the heap holds each due time once.

    A ``seed`` resumes a run after the visit it was taken at, with only the
    seed's pending actions queued: a run cut at a horizon and resumed from
    its last snapshot to a later horizon records the same events, and has
    the same state after each visit, as one run to the later horizon.  It
    only skips the due times of actions canceled before the cut, visits at
    which nothing changes.  The run stops right after the step (or
    fixpoint) that changes a ``watch`` signal to X, and is flagged as hit:
    the rest of that visit is not run, so the run's final values and guard
    values belong to a partly run visit, and only ``watch_hit`` and
    ``time`` hold.  No ``watch`` signal may start at X, in the initial
    values or the seed's.  At the end of every other visit
    it calls ``after_visit(t, values, pend, pend_x)`` with the visit's time
    and the state: the value list, and the due times of the pending Boolean
    actions by rule id and of the X actions by signal id.  The run stops
    when the hook returns True.  The hook must not change the state; it
    copies what it keeps.
    """
    targets, bvals, labels = comp.targets, comp.bvals, comp.labels
    against, affected, bits, n = comp.against, comp.affected, comp.bits, comp.n
    n_rules = len(comp.fns)
    step4 = comp.step4
    if step4 is None and horizon > 0:  # a run with a visit to make
        step4 = comp.build_step4()

    if seed is None:
        values = list(comp.initial)
        for i, fv in input_initial.items():
            values[i] = fv
        gv: list = [None] * n_rules  # no guard value yet: every rule sees an edge at t=0
        pend: dict[int, float] = {}  # rule id -> due time of its Boolean action
        pend_x: dict[int, float] = {}  # signal id -> due time of an X action
        pend_mask = 0  # bitmask of the rule ids in pend
        # the heap of the due times in queue, and the entries by due time;
        # an empty bucket makes t = 0 the first visit
        times: list[float] = [0.0]
        queue: dict[float, list[int]] = {0.0: []}
        changed = list(range(n))  # the first visit evaluates every guard
        start = -_INF
    else:
        values = seed.values[:]
        gv, pend_mask, times, queue = seed.resume(comp.fns)
        pend = seed.pend.copy()
        pend_x = seed.pend_x.copy()
        changed = []
        start = seed.time
    times.append(_INF)  # stays last in the heap, and is never popped

    events = [] if record else None
    initial_values = values[:] if record else None

    watch_hit = False

    # inputs and externals are consumed in order, from the first after start
    ins = input_transitions
    n_in = len(ins)
    k_in = bisect.bisect_right(ins, (start, _INF))
    t_in = ins[k_in][0] if k_in < n_in else _INF
    exts = externals
    n_ext = len(exts)
    k_ext = bisect.bisect_right(exts, (start, _INF))
    t_ext = exts[k_ext][0] if k_ext < n_ext else _INF

    heappop, heappush = heapq.heappop, heapq.heappush
    new_x: list[int] = []  # entries of the X actions step 4 schedules, all due at t_x

    # Step 2, which every visit runs, writes its value changes inline, as a
    # call per event costs more than the write: the value, the changed list,
    # the rules it dirties, the watch flag when the value is X, and the
    # event when recording.  Steps 1 and 3 write theirs the same way in
    # ``_apply_due``, one call per visit that has an input or external due,
    # not one per event; the unstable-guard fixpoint, which few visits run,
    # in ``_cancel_unstable``.
    while True:
        # step 5 of the previous visit: advance to the earliest due time,
        # input transition or external event
        t = times[0]
        if t_in < t or t_ext < t:
            t = t_in if t_in < t_ext else t_ext
            batch = ()
        elif t < horizon:
            heappop(times)
            batch = queue.pop(t)
            batch.sort()
        if t >= horizon:
            break
        # Unstable guards (``_cancel_unstable``) after each of steps 1-3 that
        # dirtied a pending rule; steps 1 and 3, through ``_apply_due``, only
        # on a visit that has an input or external due.  A step that drives a
        # watch signal to X decides the verdict and the time: the run ends
        # right after it.
        if t_in == t:  # step 1: input-trace transitions at t, in signal order
            k_in, pend_mask, watch_hit = _apply_due(
                comp, ins, k_in, t, "in", values, pend, pend_mask, changed, watch, events
            )
            if watch_hit:
                break
            t_in = ins[k_in][0] if k_in < n_in else _INF

        # step 2: apply the actions due at t, in the bucket's order
        dirty = 0  # the rules that read or drive a signal it changed
        for e in batch:
            if e < n_rules:
                if pend.get(e) != t:
                    continue  # canceled
                del pend[e]
                pend_mask ^= bits[e]
                sid, fv = targets[e], bvals[e]
                if values[sid] != fv:
                    values[sid] = fv
                    changed.append(sid)
                    dirty |= affected[sid]
                    if record:
                        events.append((t, sid, fv, labels[e]))
            else:
                sid = e - n_rules
                del pend_x[sid]  # X actions are never canceled
                if values[sid] != X:
                    values[sid] = X
                    changed.append(sid)
                    dirty |= affected[sid]
                    if sid in watch:
                        watch_hit = True
                    if record:
                        events.append((t, sid, X, "xprop"))
        todo = dirty & pend_mask
        if todo and not watch_hit:
            pend_mask, watch_hit = _cancel_unstable(comp, todo, t, values, pend, pend_mask, changed, watch, events)
        if watch_hit:
            break

        if t_ext == t:  # step 3: external events at t
            k_ext, pend_mask, watch_hit = _apply_due(
                comp, exts, k_ext, t, "ext", values, pend, pend_mask, changed, watch, events
            )
            if watch_hit:
                break
            t_ext = exts[k_ext][0] if k_ext < n_ext else _INF

        # step 4: re-evaluate the guards that read a changed signal, each
        # signal's by its handler
        t_x = t + epsilon
        for sid in changed:
            pend_mask = step4[sid](values, gv, pend, pend_x, queue, times, t, t_x, new_x, pend_mask)
        # a changed target under a guard that stayed at X: propagate X
        for sid in changed:
            cur = values[sid]
            if cur == X or sid in pend_x:
                continue
            for rid in against[sid][cur == 1.0]:
                if gv[rid] == X:
                    pend_x[sid] = t_x
                    new_x.append(n_rules + sid)
                    break
        if new_x:
            bucket = queue.get(t_x)
            if bucket is None:
                queue[t_x] = new_x
                heappush(times, t_x)
            else:
                bucket += new_x
            new_x = []
        changed = []

        if after_visit is not None and after_visit(t, values, pend, pend_x):
            break

    return _Run(values, gv, initial_values, events, watch_hit, t)


# --- public execution -------------------------------------------------------


def _prepare_externals(comp: _Compiled, externals: Iterable[ExternalEvent], horizon: float):
    evs = sorted(externals, key=lambda e: (e.at, e.target))
    seen = set()
    out = []
    for ev in evs:
        if ev.target not in comp.idx:
            raise ValueError(f"external event targets undeclared signal {ev.target!r}")
        if not 0 <= ev.at < _INF:
            raise ValueError(f"external event time must be finite and nonnegative, got {ev.at}")
        key = (ev.at, ev.target)
        if key in seen:
            raise ValueError(f"two external events target {ev.target!r} at time {ev.at}")
        seen.add(key)
        if ev.at >= horizon:
            warnings.warn(f"external event at {ev.at} is beyond the horizon {horizon} and is ignored")
            continue
        out.append((ev.at, comp.idx[ev.target], Value(ev.value).value))
    return out


def _prepare_inputs(comp: _Compiled, inputs: InputTraces, horizon: float):
    initial = {}
    transitions = []
    for name, trace in inputs.items():
        sid = comp.idx[name]
        initial[sid] = trace.initial.value
        for t, v in trace.transitions:
            if t < horizon:
                transitions.append((t, sid, v.value))
    transitions.sort()
    return initial, transitions


def _setup_run(circuit: Circuit, inputs: InputTraces | None, config: SimConfig, end: float):
    """Compile the circuit, check 0 <= T < inf and 0 < epsilon < d_min and
    that the inputs cover T, and prepare the inputs up to ``end``.  Returns
    the compiled circuit, the inputs' initial values and their transitions."""
    comp = _compiled(circuit)
    if not 0 <= config.horizon < _INF:
        raise ValueError(f"horizon must be finite and nonnegative, got {config.horizon}")
    if not 0 < config.epsilon < comp.d_min:
        raise ValueError(
            f"epsilon must satisfy 0 < epsilon < d_min ({comp.d_min}), got {config.epsilon}"
        )
    inputs = inputs or {}
    check_input_traces(circuit, inputs, config.horizon)
    return (comp, *_prepare_inputs(comp, inputs, end))


def execute(
    circuit: Circuit,
    inputs: InputTraces | None = None,
    config: SimConfig = SimConfig(),
    externals: Iterable[ExternalEvent] = (),
) -> Execution:
    """Execute the circuit against input traces and external events.

    Identical arguments produce identical executions.  Extending the horizon
    only appends to the traces.
    """
    comp, in_initial, in_transitions = _setup_run(circuit, inputs, config, config.horizon)
    exts = _prepare_externals(comp, externals, config.horizon)
    run = _kernel(comp, in_transitions, in_initial, config.horizon, config.epsilon, exts, record=True)
    return _build_execution(comp, run, config.horizon)


def _build_execution(comp: _Compiled, run: _Run, horizon: float) -> Execution:
    names = comp.names
    transitions: list[list] = [[] for _ in names]
    events = []
    for t, sid, fv, cause in run.events:
        value = _VALUES[fv]
        transitions[sid].append((t, value))
        events.append(Event(t, names[sid], value, cause))
    traces = {
        name: SignalTrace(_VALUES[run.initial_values[sid]], tuple(transitions[sid]), horizon)
        for sid, name in enumerate(names)
    }
    return Execution(traces, tuple(events), horizon)
