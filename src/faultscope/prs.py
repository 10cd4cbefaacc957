"""Core domain model: ternary signal values, guards, production rules, circuits.

A circuit is a set of guarded Boolean assignments ("production rules") of the
form ``G -> s=b [d]``: when the guard G holds for d time units, signal s is
driven to the bit b.  Signals carry one of three values: 0, 1, or X, where X
stands for a potentially non-binary waveform (glitch, oscillation,
metastability).  Guards evaluate under Kleene semantics with X treated as 1/2:
``not a == 1-a``, ``a and b == min(a,b)``, ``a or b == max(a,b)``.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Union


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
        return f"!{_wrap(self.child, atom_only=True)}"


@dataclass(frozen=True)
class And:
    children: tuple["GuardExpr", ...]

    def __init__(self, *children: "GuardExpr"):
        if len(children) < 2:
            raise ValueError("And needs at least two children")
        object.__setattr__(self, "children", tuple(children))

    def __str__(self) -> str:
        return " & ".join(_wrap(c, in_and=True) for c in self.children)


@dataclass(frozen=True)
class Or:
    children: tuple["GuardExpr", ...]

    def __init__(self, *children: "GuardExpr"):
        if len(children) < 2:
            raise ValueError("Or needs at least two children")
        object.__setattr__(self, "children", tuple(children))

    def __str__(self) -> str:
        return " | ".join(str(c) for c in self.children)


GuardExpr = Union[SignalRef, Not, And, Or]


def _wrap(expr: GuardExpr, in_and: bool = False, atom_only: bool = False) -> str:
    if isinstance(expr, Or) or (atom_only and isinstance(expr, And)):
        return f"({expr})"
    if in_and and isinstance(expr, Or):
        return f"({expr})"
    return str(expr)


def guard_signals(expr: GuardExpr) -> frozenset:
    """Set of signal names referenced by a guard."""
    if isinstance(expr, SignalRef):
        return frozenset((expr.name,))
    if isinstance(expr, Not):
        return guard_signals(expr.child)
    out = frozenset()
    for c in expr.children:
        out |= guard_signals(c)
    return out


def eval_guard(guard: GuardExpr, assignment: Mapping[str, Value]) -> Value:
    """Evaluate a guard under the Kleene min/max/complement algebra.

    Raises KeyError-derived structural errors for unreferenced signals.
    """
    if isinstance(guard, SignalRef):
        try:
            return assignment[guard.name]
        except KeyError:
            raise LookupError(f"guard references undeclared signal {guard.name!r}") from None
    if isinstance(guard, Not):
        return Value(1.0 - eval_guard(guard.child, assignment).value)
    if isinstance(guard, And):
        return Value(min(eval_guard(c, assignment).value for c in guard.children))
    if isinstance(guard, Or):
        return Value(max(eval_guard(c, assignment).value for c in guard.children))
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
        return f"{self.guard} -> {self.target} = {self.value} [{self.delay!r}]"


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
        # up-rule first) so structurally equal circuits compare equal
        object.__setattr__(self, "rules", tuple(sorted(rules, key=lambda r: (r.target, -r.value, str(r.guard)))))
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.locals == other.locals
            and self.outputs == other.outputs
            and self.initial == other.initial
            and self.rules == other.rules
            and self.name == other.name
        )

    def __getstate__(self):
        # drop the memoized compiled form: it holds closures
        return {k: v for k, v in self.__dict__.items() if k != "_compiled_form"}

    def __setstate__(self, state):
        self.__dict__.update(state)

    @property
    def driven(self) -> frozenset:
        return self.locals | self.outputs

    @property
    def signals(self) -> frozenset:
        return self.inputs | self.locals | self.outputs

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


def validate_circuit(circuit: Circuit) -> list[Violation]:
    """Check all structural circuit invariants; empty result means ok.

    Mutual exclusion of a signal's up/down guards is checked by exhaustive
    enumeration of Boolean assignments over the signals the two guards
    reference (guard supports are small in practice).
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

    by_action: dict[tuple[str, int], list[ProductionRule]] = {}
    for rule in circuit.rules:
        if rule.target not in driven:
            which = "an input" if rule.target in circuit.inputs else "undeclared"
            out.append(Violation("bad-target", rule.target, f"rule targets {which} signal: {rule}"))
        if not rule.delay > 0:
            out.append(Violation("bad-delay", rule.target, f"delay must be positive: {rule}"))
        if rule.value not in (0, 1):
            out.append(Violation("bad-action", rule.target, f"action value must be 0 or 1: {rule}"))
        for s in sorted(guard_signals(rule.guard)):
            if s not in declared:
                out.append(Violation("unknown-signal", s, f"guard references undeclared signal in: {rule}"))
        by_action.setdefault((rule.target, rule.value), []).append(rule)

    for (target, value), rules in sorted(by_action.items()):
        if len(rules) > 1:
            out.append(Violation("duplicate-rule", target, f"{len(rules)} rules set {target}={value}"))

    # mutual exclusion of up and down guards, over all Boolean assignments
    for target in sorted(driven):
        ups = by_action.get((target, 1), [])
        downs = by_action.get((target, 0), [])
        if not ups or not downs:
            continue
        up, down = ups[0], downs[0]
        support = sorted(guard_signals(up.guard) | guard_signals(down.guard))
        if any(s not in declared for s in support):
            continue  # already reported above
        for bits in itertools.product((Value.ZERO, Value.ONE), repeat=len(support)):
            assignment = dict(zip(support, bits))
            if eval_guard(up.guard, assignment) is Value.ONE and eval_guard(down.guard, assignment) is Value.ONE:
                out.append(
                    Violation(
                        "not-exclusive",
                        target,
                        f"up and down guards of {target} are simultaneously true",
                        witness=assignment,
                    )
                )
                break
    return out


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

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.transitions)


def make_trace(initial: Value, transitions=(), horizon: float = float("inf")) -> SignalTrace:
    """Build a trace, checking monotone times and real value changes."""
    prev_t = 0.0
    prev_v = initial
    norm: list[tuple[float, Value]] = []
    for t, v in transitions:
        t = float(t)
        v = v if isinstance(v, Value) else Value(v)
        if t <= prev_t:
            raise ValueError(f"transition times must be strictly increasing and positive (got {t})")
        if v == prev_v:
            raise ValueError(f"transition at {t} does not change the value ({v})")
        if t > horizon:
            raise ValueError(f"transition at {t} beyond horizon {horizon}")
        norm.append((t, v))
        prev_t, prev_v = t, v
    return SignalTrace(initial, tuple(norm), horizon)


def trace_value_at(trace: SignalTrace, t: float) -> Value:
    """Value of the segment containing t; at a transition time, the new value."""
    if t < 0.0 or t > trace.horizon:
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
