"""Core domain model: ternary signal values, guards, production rules, circuits.

A circuit is a set of guarded Boolean assignments ("production rules") of the
form ``G -> s=b [d]``: when the guard G holds for d time units, signal s is
driven to the bit b.  Signals carry one of three values: 0, 1, or X, where X
stands for a potentially non-binary waveform (glitch, oscillation,
metastability).  Guards evaluate under Kleene semantics with X treated as 1/2:
``not a == 1-a``, ``a and b == min(a,b)``, ``a or b == max(a,b)``.

This module owns circuit validity: ``validate_circuit`` lists a circuit's
``Violation``s, ``monitor_violations`` those of a monitored set, and every
module reports either as one ``CircuitInvalid``.  The compiler
(``sim._Compiled``) is the only caller of ``validate_circuit``, so a circuit
is checked once, when it is first compiled.
"""

from __future__ import annotations

import bisect
import enum
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class Value(enum.Enum):
    """Ternary signal value. The numeric payload carries the Kleene algebra."""

    ZERO = 0.0
    X = 0.5
    ONE = 1.0

    @property
    def is_boolean(self) -> bool:
        return self is not Value.X

    @classmethod
    def from_text(cls, text: str) -> "Value":
        try:
            return _VALUE_BY_TEXT[text]
        except KeyError:
            raise ValueError(f"unknown signal value {text!r} (expected 0, 1 or X)") from None

    def __str__(self) -> str:
        return {Value.ZERO: "0", Value.X: "X", Value.ONE: "1"}[self]


_VALUE_BY_TEXT = {"0": Value.ZERO, "1": Value.ONE, "X": Value.X, "x": Value.X}

SIGNAL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")


# --- guard expressions -----------------------------------------------------


@dataclass(frozen=True)
class SignalRef:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not:
    child: "GuardExpr"

    def __str__(self) -> str:
        return "!" + _wrap(self.child, (And, Or))


@dataclass(frozen=True)
class And:
    children: tuple["GuardExpr", ...]

    def __init__(self, *children: "GuardExpr"):
        if len(children) < 2:
            raise ValueError("And needs at least two children")
        object.__setattr__(self, "children", tuple(children))

    def __str__(self) -> str:
        return " & ".join(_wrap(c, (And, Or)) for c in self.children)


@dataclass(frozen=True)
class Or:
    children: tuple["GuardExpr", ...]

    def __init__(self, *children: "GuardExpr"):
        if len(children) < 2:
            raise ValueError("Or needs at least two children")
        object.__setattr__(self, "children", tuple(children))

    def __str__(self) -> str:
        return " | ".join(_wrap(c, Or) for c in self.children)


GuardExpr = Union[SignalRef, Not, And, Or]


def _wrap(expr: GuardExpr, grouped) -> str:
    """A child's text, in parentheses when it is of a kind in ``grouped``:
    one that binds less tightly than its parent, or one of the parent's own
    kind, which parsing would merge into the parent."""
    return f"({expr})" if isinstance(expr, grouped) else str(expr)


def guard_signals(expr: GuardExpr) -> frozenset:
    """Set of signal names referenced by a guard."""
    if isinstance(expr, SignalRef):
        return frozenset((expr.name,))
    if isinstance(expr, Not):
        return guard_signals(expr.child)
    if not isinstance(expr, (And, Or)):
        raise TypeError(f"not a guard expression: {expr!r}")
    out = frozenset()
    for c in expr.children:
        out |= guard_signals(c)
    return out


def eval_guard(guard: GuardExpr, assignment: Mapping[str, Value]) -> Value:
    """Evaluate a guard under the Kleene min/max/complement algebra.

    Raises LookupError for a signal missing from the assignment.
    """
    try:
        return Value(_kleene(guard, {s: v.value for s, v in assignment.items()}))
    except KeyError as exc:
        raise LookupError(f"guard references undeclared signal {exc.args[0]!r}") from None


def _kleene(guard: GuardExpr, env: Mapping[str, float]) -> float:
    """``eval_guard`` on the numeric values 0.0, 0.5 and 1.0 of the signals."""
    if isinstance(guard, SignalRef):
        return env[guard.name]
    if isinstance(guard, Not):
        return 1.0 - _kleene(guard.child, env)
    if isinstance(guard, And):
        return min(_kleene(c, env) for c in guard.children)
    if isinstance(guard, Or):
        return max(_kleene(c, env) for c in guard.children)
    raise TypeError(f"not a guard expression: {guard!r}")


# --- rules and circuits ----------------------------------------------------


@dataclass(frozen=True)
class ProductionRule:
    """Guarded assignment ``guard -> target=value [delay]`` with delay > 0."""

    guard: GuardExpr
    target: str
    value: int  # 0 or 1, never X
    delay: float

    def __str__(self) -> str:
        return f"{self.guard} -> {self.target} = {self.value!r} [{self.delay!r}]"


def _action(rule: ProductionRule) -> tuple:
    """A rule's place in a circuit's canonical order, short of its guard:
    by target, the up-rule first.  It compares the value only with 1, so a
    rule with any other value, however typed, still orders, and validation
    reports it."""
    return (rule.target, rule.value != 1)


@dataclass(frozen=True)
class Circuit:
    """Input/local/output signal sets, initial values, and production rules."""

    inputs: frozenset
    locals: frozenset
    outputs: frozenset
    initial: Mapping[str, Value]
    rules: tuple[ProductionRule, ...]
    name: str = "circuit"

    def __init__(self, inputs, locals, outputs, initial, rules, name="circuit"):
        object.__setattr__(self, "inputs", frozenset(inputs))
        object.__setattr__(self, "locals", frozenset(locals))
        object.__setattr__(self, "outputs", frozenset(outputs))
        object.__setattr__(self, "initial", dict(initial))
        # rules form a set; keep them in canonical order (by target, the
        # up-rule first, then by guard text) so structurally equal circuits
        # compare equal.  The guard text decides only between two rules that
        # set one target to one value, which no valid circuit has, so it is
        # rendered only when there are such rules
        rules = tuple(rules)
        ordered = sorted(rules, key=_action)
        keys = [_action(r) for r in ordered]
        if any(a == b for a, b in zip(keys, keys[1:])):
            ordered = sorted(rules, key=lambda r: (*_action(r), str(r.guard)))
        object.__setattr__(self, "rules", tuple(ordered))
        object.__setattr__(self, "name", name)

    def __getstate__(self):
        # drop what other modules memoize on the circuit (under names that
        # start with "_", as no field does): it holds closures, and a copy
        # rebuilds it on demand
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    # driven and signals are kept at their first access, under names that
    # __getstate__ drops and that no field comparison reads
    @property
    def driven(self) -> frozenset:
        driven = self.__dict__.get("_driven")
        if driven is None:
            driven = self.locals | self.outputs
            object.__setattr__(self, "_driven", driven)
        return driven

    @property
    def signals(self) -> frozenset:
        signals = self.__dict__.get("_signals")
        if signals is None:
            signals = self.inputs | self.locals | self.outputs
            object.__setattr__(self, "_signals", signals)
        return signals

    @property
    def size(self) -> int:
        """Count of driven signals."""
        return len(self.driven)

    @property
    def d_min(self) -> float:
        return min(r.delay for r in self.rules)

    @property
    def d_max(self) -> float:
        return max(r.delay for r in self.rules)


@dataclass(frozen=True)
class Violation:
    """One validation failure, with a Boolean witness for exclusion failures."""

    kind: str
    subject: str
    message: str
    witness: Mapping[str, Value] | None = None

    def __str__(self) -> str:
        if self.witness is not None:
            w = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
            return f"{self.kind} on {self.subject}: {self.message} (witness: {w})"
        return f"{self.kind} on {self.subject}: {self.message}"


class CircuitInvalid(ValueError):
    """A circuit, or the signals monitored on it, failed validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):  # from the violations, not the joined text
        return type(self), (self.violations,)


def monitor_violations(circuit: Circuit, monitored: Iterable[str]) -> list[Violation]:
    """One violation per monitored name, in sorted order, that is not a
    signal of the circuit."""
    return [
        Violation("unknown-signal", m, "monitor names an undeclared signal")
        for m in sorted(set(monitored) - circuit.signals)
    ]


def validate_circuit(circuit: Circuit) -> list[Violation]:
    """Check all structural circuit invariants; empty result means ok.

    Mutual exclusion of a signal's up/down guards is checked over every
    Boolean assignment of the signals the two guards reference, in
    ``itertools.product`` order over the sorted support: each guard is
    walked once, on truth tables (``_first_common_assignment``), and the
    violation's witness is the first assignment under which both are 1.
    Each guard's support is found once and serves both the undeclared-signal
    check and the exclusion check.
    """
    out: list[Violation] = []
    for kind, a, b in (
        ("inputs/locals", circuit.inputs, circuit.locals),
        ("inputs/outputs", circuit.inputs, circuit.outputs),
        ("locals/outputs", circuit.locals, circuit.outputs),
    ):
        overlap = a & b
        if overlap:
            out.append(Violation("overlap", ",".join(sorted(overlap)), f"signal sets {kind} are not disjoint"))

    for s in sorted(circuit.signals):
        if not SIGNAL_NAME_RE.match(s):
            out.append(Violation("bad-name", s, "signal names must match [A-Za-z_][A-Za-z0-9_.]*"))

    declared = circuit.signals
    driven = circuit.driven
    for s in sorted(driven):
        if s not in circuit.initial:
            out.append(Violation("missing-init", s, "driven signal has no initial value"))
    for s in sorted(circuit.initial):
        if s not in driven:
            out.append(Violation("extra-init", s, "initial value for a signal that is not local/output"))

    by_action: dict[tuple[str, int], list[tuple[ProductionRule, frozenset]]] = {}
    for rule in circuit.rules:
        if rule.target not in driven:
            which = "an input" if rule.target in circuit.inputs else "undeclared"
            out.append(Violation("bad-target", rule.target, f"rule targets {which} signal: {rule}"))
        # float and int first: they pass without the slower check on the ABC
        if not (isinstance(rule.delay, (float, int, numbers.Real)) and 0 < rule.delay < float("inf")):
            out.append(Violation("bad-delay", rule.target, f"delay must be positive and finite: {rule}"))
        if rule.value not in (0, 1):
            out.append(Violation("bad-action", rule.target, f"action value must be 0 or 1: {rule}"))
        support = guard_signals(rule.guard)
        for s in sorted(support - declared):
            out.append(Violation("unknown-signal", s, f"guard references undeclared signal in: {rule}"))
        by_action.setdefault((rule.target, rule.value), []).append((rule, support))

    # the values are those of the rules, so sort them as text: an action
    # that is not 0 or 1 may not compare with one that is
    for (target, value), rules in sorted(by_action.items(), key=lambda item: (item[0][0], str(item[0][1]))):
        if len(rules) > 1:
            out.append(Violation("duplicate-rule", target, f"{len(rules)} rules set {target}={value}"))

    # mutual exclusion of up and down guards, over all Boolean assignments
    for target in sorted(driven):
        ups = by_action.get((target, 1), [])
        downs = by_action.get((target, 0), [])
        if not ups or not downs:
            continue
        (up, up_support), (down, down_support) = ups[0], downs[0]
        support = sorted(up_support | down_support)
        if not declared.issuperset(support):
            continue  # already reported above
        j = _first_common_assignment(up.guard, down.guard, support)
        if j is not None:
            last = len(support) - 1
            out.append(
                Violation(
                    "not-exclusive",
                    target,
                    f"up and down guards of {target} are simultaneously true",
                    witness={s: Value.ONE if j >> (last - p) & 1 else Value.ZERO for p, s in enumerate(support)},
                )
            )
    return out


_TABLE_BITS = 12  # a truth table covers at most 2**12 assignments


def _truth(guard: GuardExpr, env: Mapping[str, int], ones: int) -> int:
    """Truth table of a guard, one bit per Boolean assignment: ``env`` maps
    each signal to its own table and ``ones`` is the table of constant 1.
    On Boolean values Kleene complement, min and max are not, and and or."""
    if isinstance(guard, SignalRef):
        return env[guard.name]
    if isinstance(guard, Not):
        return ones ^ _truth(guard.child, env, ones)
    if isinstance(guard, And):
        table = ones
        for c in guard.children:
            table &= _truth(c, env, ones)
        return table
    if isinstance(guard, Or):
        table = 0
        for c in guard.children:
            table |= _truth(c, env, ones)
        return table
    raise TypeError(f"not a guard expression: {guard!r}")


def _first_common_assignment(a: GuardExpr, b: GuardExpr, support: list[str]) -> int | None:
    """Index, in ``itertools.product((0, 1), repeat=len(support))`` order,
    of the first assignment under which guards a and b are both 1, or None.

    In assignment j, ``support[p]`` has bit ``len(support) - 1 - p`` of j.
    Both guards are walked once per truth table: a table holds the
    assignments of the last (at most ``_TABLE_BITS``) signals of the support
    for one fixed assignment of the others, and tables are taken in
    ascending order of j, so only supports wider than ``_TABLE_BITS`` take
    more than one."""
    k = len(support)
    low = min(k, _TABLE_BITS)
    ones = (1 << (1 << low)) - 1
    env = {}
    for q in range(low):  # support[k - 1 - q] is bit q of j
        half = 1 << q
        env[support[k - 1 - q]] = ones // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    high = support[: k - low]
    for block in range(1 << len(high)):
        for p, s in enumerate(high):
            env[s] = ones if block >> (len(high) - 1 - p) & 1 else 0
        both = _truth(a, env, ones) & _truth(b, env, ones)
        if both:
            return (block << low) | ((both & -both).bit_length() - 1)
    return None


# --- signal traces ----------------------------------------------------------


@dataclass(frozen=True)
class SignalTrace:
    """Piecewise-constant value over time, left-closed right-open segments.

    ``transitions`` holds (time, new_value) pairs with strictly increasing
    times; the value at a transition time is the new value.
    """

    initial: Value
    transitions: tuple[tuple[float, Value], ...] = ()
    horizon: float = float("inf")

    def value_at(self, t: float) -> Value:
        return trace_value_at(self, t)


def make_trace(initial: Value, transitions=(), horizon: float = float("inf")) -> SignalTrace:
    """Build a trace, checking finite monotone times and real value changes."""
    prev_t = 0.0
    prev_v = initial
    norm: list[tuple[float, Value]] = []
    for t, v in transitions:
        t = float(t)
        v = v if isinstance(v, Value) else Value(v)
        if not prev_t < t < float("inf"):
            raise ValueError(f"transition times must be finite, strictly increasing and positive (got {t})")
        if v == prev_v:
            raise ValueError(f"transition at {t} does not change the value ({v})")
        if t > horizon:
            raise ValueError(f"transition at {t} beyond horizon {horizon}")
        norm.append((t, v))
        prev_t, prev_v = t, v
    return SignalTrace(initial, tuple(norm), horizon)


def trace_value_at(trace: SignalTrace, t: float) -> Value:
    """Value of the segment containing t; at a transition time, the new value."""
    if not 0.0 <= t <= trace.horizon:
        raise ValueError(f"time {t} outside trace domain [0, {trace.horizon}]")
    idx = bisect.bisect_right(trace.transitions, t, key=lambda pair: pair[0])
    return trace.transitions[idx - 1][1] if idx else trace.initial


InputTraces = Mapping[str, SignalTrace]


def check_input_traces(circuit: Circuit, inputs: InputTraces, horizon: float) -> None:
    """Inputs must cover exactly the circuit's input set up to the horizon."""
    missing = sorted(circuit.inputs - set(inputs))
    if missing:
        raise ValueError(f"missing input traces for: {', '.join(missing)}")
    extra = sorted(set(inputs) - circuit.inputs)
    if extra:
        raise ValueError(f"traces given for non-input signals: {', '.join(extra)}")
    for name, trace in inputs.items():
        if trace.horizon < horizon:
            raise ValueError(f"input trace for {name!r} ends at {trace.horizon}, before horizon {horizon}")
