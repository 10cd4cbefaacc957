"""A reference interpreter of the PRS semantics, for checking ``sim``.

It transcribes the five steps of the ``sim`` module docstring literally:
values are ``Value``s in a dict by signal name, guards are evaluated by
``eval_guard``, and the pending actions are one list, sorted again at every
visit.  Equal-time order is by name: rules by (target name, up-rule first),
X actions and inputs and externals by signal name.  There is no compiled
form, cache, queue bucket or seed template, and every guard is evaluated at
every visit; it is slow on purpose, and small enough to read against the
docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from faultscope import Circuit, Value, eval_guard, guard_signals

BOOL, XACT = 0, 1  # kinds of pending actions, in step 2's order


def rule_order(rule):
    """Rules in equal-time order: by target name, the up-rule first."""
    return (rule.target, -rule.value)


@dataclass
class Pending:
    """One queued action: a Boolean action of ``rule`` or an X on
    ``signal``.  A canceled action stays queued, so its due time is still
    visited, with nothing left to apply."""

    due: float
    kind: int
    rule: object = None
    signal: str = ""
    canceled: bool = False

    def order(self):
        if self.kind == BOOL:
            return (self.due, BOOL, *rule_order(self.rule))
        return (self.due, XACT, self.signal, 0)


@dataclass
class State:
    """The state after a visit: its time, the values by name and the
    pending actions that were not canceled."""

    time: float
    values: dict
    pending: list


@dataclass
class Result:
    """Recorded events as (time, signal, value, cause), whether a watched
    signal went to X, the stop time and the state after every visit."""

    events: list = field(default_factory=list)
    watch_hit: bool = False
    time: float = float("-inf")
    visits: list = field(default_factory=list)


def label(rule) -> str:
    return f"{rule.target}{'+' if rule.value else '-'}"


def run(circuit: Circuit, inputs, horizon, epsilon, externals=(), watch=frozenset(), start: State | None = None):
    """Execute ``circuit`` up to ``horizon``: from t=0, or after the visit
    that ``start`` was taken at, with only its pending actions queued.
    ``inputs`` maps input names to traces; ``externals`` are
    ``ExternalEvent``s.  The run stops after the visit at which a ``watch``
    signal changes to X, or at the first time at or past the horizon."""
    rules = sorted(circuit.rules, key=rule_order)
    support = {id(r): sorted(guard_signals(r.guard)) for r in rules}

    def guard(rule):
        return eval_guard(rule.guard, {s: values[s] for s in support[id(rule)]})

    def is_pending(rule=None, signal=None):
        """Whether a Boolean action of ``rule``, or an X on ``signal``, is
        pending and not canceled."""
        return any(not p.canceled and (p.rule is rule if rule is not None else p.signal == signal) for p in pending)

    res = Result()
    if start is None:
        values = {s: Value.X for s in circuit.signals}
        values.update(circuit.initial)
        for name, trace in inputs.items():
            values[name] = trace.initial
        pending: list[Pending] = []
        last = {id(r): None for r in rules}  # no guard value yet: an edge at t=0
        after = float("-inf")
    else:
        values = dict(start.values)
        pending = [Pending(p.due, p.kind, p.rule, p.signal) for p in start.pending]
        last = {id(r): guard(r) for r in rules}
        after = start.time
    input_times = sorted({t for tr in inputs.values() for t, _ in tr.transitions if after < t < horizon})
    exts = [e for e in externals if after < e.at < horizon]

    def next_time(now):
        times = [t for t in input_times if t > now] + [e.at for e in exts if e.at > now] + [p.due for p in pending]
        return min(times, default=float("inf"))

    t = 0.0 if start is None else next_time(after)
    while t < horizon:
        changed = set()  # signals whose value changed during this visit

        def set_value(name, value, cause):
            if values[name] != value:
                values[name] = value
                changed.add(name)
                if value is Value.X and name in watch:
                    res.watch_hit = True
                res.events.append((t, name, value, cause))

        def unstable_guards():
            # a pending Boolean action whose guard is no longer true while the
            # target does not yet hold its value: cancel it and drive the
            # target to X; in passes of rule order, until a pass cancels none
            while True:
                canceled = False
                for p in sorted((p for p in pending if p.kind == BOOL and not p.canceled), key=lambda p: rule_order(p.rule)):
                    rule = p.rule
                    if guard(rule) is not Value.ONE and values[rule.target] != Value(rule.value):
                        p.canceled = canceled = True
                        set_value(rule.target, Value.X, "unstable " + label(rule))
                if not canceled:
                    return

        # step 1: input-trace transitions at t, by signal name
        before = len(res.events)
        for name in sorted(inputs):
            for at, value in inputs[name].transitions:
                if at == t:
                    set_value(name, value, "in")
        if len(res.events) > before:
            unstable_guards()

        # step 2: the actions due at t, Boolean ones by rule, then X ones by
        # signal name
        due = sorted((p for p in pending if p.due == t), key=Pending.order)
        pending = [p for p in pending if p.due != t]
        before = len(res.events)
        for p in due:
            if p.kind == BOOL and not p.canceled:
                set_value(p.rule.target, Value(p.rule.value), label(p.rule))
            elif p.kind == XACT:
                set_value(p.signal, Value.X, "xprop")
        if len(res.events) > before:
            unstable_guards()

        # step 3: external events at t, by signal name
        before = len(res.events)
        for e in sorted((e for e in exts if e.at == t), key=lambda e: e.target):
            set_value(e.target, Value(e.value), "ext")
        if len(res.events) > before:
            unstable_guards()

        # step 4: a fresh guard edge to 1 schedules the action; a guard at X,
        # fresh or with its target changed, schedules an X on the target
        for rule in rules:
            g = guard(rule)
            fresh = g != last[id(rule)]
            last[id(rule)] = g
            target, value = rule.target, Value(rule.value)
            if fresh and g is Value.ONE:
                if values[target] != value and not is_pending(rule=rule):
                    pending.append(Pending(t + rule.delay, BOOL, rule=rule))
            elif g is Value.X and (fresh or target in changed):
                if values[target] not in (value, Value.X) and not is_pending(signal=target):
                    pending.append(Pending(t + epsilon, XACT, signal=target))

        res.visits.append(State(t, dict(values), [p for p in pending if not p.canceled]))
        if res.watch_hit:
            break
        # step 5: the earliest due time, input transition or external event
        t = next_time(t)
    res.time = t
    return res
