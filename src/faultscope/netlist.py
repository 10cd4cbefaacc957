"""Concrete syntax: circuit DSL, input-trace CSV, and report JSON.

The netlist format is line oriented::

    circuit <name>
    inputs  a b ...          # optional
    locals  x y ...          # optional
    outputs o ...
    init x = 0|1|X           # one per driven signal
    rule <expr> -> s = 0|1 [<delay>]
    monitor m1 m2 ...        # optional

Guard expressions use ``!``, ``&``, ``|`` and parentheses, with the usual
precedence (NOT over AND over OR); ``#`` starts a comment.  Serialization is
canonical (sorted declarations, per-target rules with the up-rule first), so
parse and serialize round-trip structurally.

Malformed text raises ``NetlistError`` with its line, and for a stray
character its 1-based column in that line.  Well-formed text for
an invalid circuit or monitor line raises ``prs.CircuitInvalid``: parsing
compiles the circuit (``sim._compiled``), which validates it once and keeps
the compiled form that later runs of the circuit reuse.
"""

from __future__ import annotations

import json
import math
import re
import string

from .analysis import SensitivityReport, SensitivityWindow
from .prs import (
    And,
    Circuit,
    CircuitInvalid,
    GuardExpr,
    Not,
    Or,
    ProductionRule,
    SIGNAL_NAME_RE,
    SignalRef,
    SignalTrace,
    Value,
    make_trace,
    monitor_violations,
)
from .sim import _compiled

NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?\Z")


class NetlistError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: {message}")


# --- guard expression parsing -------------------------------------------------

# a rule's tokens: a signal name, a number, "->" or an operator character.
# split() on this pattern returns them between the text no token matches,
# which is whitespace unless the rule holds a stray character
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_.]*|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|->|[!&|()=\[\]])")
_NAME_START = frozenset(string.ascii_letters + "_")  # a name token's first character


def _tokens(text: str, line: int, column: int) -> list[str]:
    """The tokens of ``text``, which starts at 1-based ``column`` of its
    line, from one regex pass; a stray character raises with its column."""
    parts = _TOKEN_RE.split(text)
    if "".join(parts[::2]).strip():
        for i, part in enumerate(parts):
            stray = "" if i % 2 else part.lstrip()
            if stray:
                raise NetlistError(f"stray character {stray[0]!r}", line, column + len(part) - len(stray))
            column += len(part)
    return parts[1::2]


class _GuardParser:
    """Recursive descent over a guard's tokens: NOT binds tighter than AND,
    AND tighter than OR.  One parser reads every guard of a netlist and
    makes one ``SignalRef`` per signal name."""

    def __init__(self):
        self.refs: dict[str, SignalRef] = {}

    def parse(self, tokens: list[str], line: int) -> GuardExpr:
        tokens.append(None)  # the end of the expression
        self.tokens, self.pos, self.line = tokens, 0, line
        expr = self.or_expr()
        if tokens[self.pos] is not None:
            raise NetlistError(f"unexpected {tokens[self.pos]!r} after expression", line)
        return expr

    def or_expr(self) -> GuardExpr:
        parts = [self.and_expr()]
        while self.tokens[self.pos] == "|":
            self.pos += 1
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def and_expr(self) -> GuardExpr:
        parts = [self.unary()]
        while self.tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(*parts)

    def unary(self) -> GuardExpr:
        tok = self.tokens[self.pos]
        if tok is None:
            raise NetlistError("unexpected end of expression", self.line)
        self.pos += 1
        if tok == "!":
            return Not(self.unary())
        if tok == "(":
            inner = self.or_expr()
            got = self.tokens[self.pos]
            if got != ")":
                raise NetlistError(f"expected ')', got {got!r}", self.line)
            self.pos += 1
            return inner
        if tok[0] not in _NAME_START:
            raise NetlistError(f"expected signal name, got {tok!r}", self.line)
        ref = self.refs.get(tok)
        if ref is None:
            ref = self.refs[tok] = SignalRef(tok)
        return ref


def parse_circuit(text: str) -> tuple[Circuit, frozenset]:
    """Parse and validate; returns the circuit and its monitored set.

    A rule line is tokenized by one regex pass (``_tokens``) and its guard
    parsed from the tokens; each other line is split into words.  The
    circuit is then compiled (``sim._compiled``), which validates it and
    builds every guard function before this returns.  A ``NetlistError``
    names the first malformed line, and for a stray character its 1-based
    column in that line.
    """
    name = None
    sections: dict[str, list[str]] = {}  # inputs, locals, outputs, monitor
    inits: dict[str, Value] = {}
    rules: list[ProductionRule] = []
    parser = _GuardParser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if name is None:
            words = line.split()
            if head != "circuit" or len(words) != 2:
                raise NetlistError("netlist must start with 'circuit <name>'", lineno)
            if not SIGNAL_NAME_RE.match(words[1]):
                raise NetlistError(f"bad circuit name {words[1]!r}", lineno)
            name = words[1]
            circuit_line = lineno
        elif head == "rule":
            # the text after "rule" starts 4 characters into the stripped line
            toks = _tokens(line[4:], lineno, len(raw) - len(raw.lstrip()) + 5)
            try:
                arrow = toks.index("->")
            except ValueError:
                raise NetlistError("rule needs '->'", lineno) from None
            guard = parser.parse(toks[:arrow], lineno)
            rest = toks[arrow + 1:]
            if len(rest) != 6 or rest[1] != "=" or rest[3] != "[" or rest[5] != "]":
                raise NetlistError("expected '<target> = 0|1 [<delay>]' after '->'", lineno)
            target, bit, delay_tok = rest[0], rest[2], rest[4]
            if target[0] not in _NAME_START:
                raise NetlistError(f"bad target name {target!r}", lineno)
            if bit not in ("0", "1"):
                raise NetlistError(f"rule action must be 0 or 1, got {bit!r}", lineno)
            if not NUMBER_RE.match(delay_tok):
                raise NetlistError(f"bad delay {delay_tok!r}", lineno)
            delay = float(delay_tok)
            if not delay > 0:
                raise NetlistError(f"delay must be positive, got {delay_tok}", lineno)
            rules.append(ProductionRule(guard, target, int(bit), delay))
        elif head in ("inputs", "locals", "outputs", "monitor"):
            if head in sections:
                raise NetlistError(f"duplicate {head!r} declaration", lineno)
            words = line.split()
            for n in words[1:]:
                if not SIGNAL_NAME_RE.match(n):
                    raise NetlistError(f"bad signal name {n!r}", lineno)
            sections[head] = words[1:]
        elif head == "init":
            words = line.split()
            if len(words) != 4 or words[2] != "=":
                raise NetlistError("expected 'init <signal> = 0|1|X'", lineno)
            signal, value = words[1], words[3]
            if not SIGNAL_NAME_RE.match(signal):
                raise NetlistError(f"bad signal name {signal!r}", lineno)
            if value not in ("0", "1", "X"):
                raise NetlistError(f"bad initial value {value!r} (expected 0, 1 or X)", lineno)
            if signal in inits:
                raise NetlistError(f"duplicate init for {signal!r}", lineno)
            inits[signal] = Value.from_text(value)
        else:
            raise NetlistError(f"unknown declaration {head!r}", lineno)
    if name is None:
        raise NetlistError("empty netlist", 1)
    if not sections.get("outputs"):
        raise NetlistError("netlist declares no outputs", circuit_line)
    circuit = Circuit(
        inputs=sections.get("inputs", ()),
        locals=sections.get("locals", ()),
        outputs=sections["outputs"],
        initial=inits,
        rules=rules,
        name=name,
    )
    monitored = frozenset(sections.get("monitor", ()))
    unknown = monitor_violations(circuit, monitored)
    try:
        _compiled(circuit)
    except CircuitInvalid as exc:
        raise CircuitInvalid(exc.violations + unknown) from None
    if unknown:
        raise CircuitInvalid(unknown)
    return circuit, monitored


def _fmt_num(x: float) -> str:
    return repr(float(x))


def serialize_circuit(circuit: Circuit, monitored=()) -> str:
    """Canonical netlist text: sorted declarations, up-rule before down-rule."""
    out = [f"circuit {circuit.name}"]
    if circuit.inputs:
        out.append("inputs " + " ".join(sorted(circuit.inputs)))
    if circuit.locals:
        out.append("locals " + " ".join(sorted(circuit.locals)))
    out.append("outputs " + " ".join(sorted(circuit.outputs)))
    for name in sorted(circuit.initial):
        out.append(f"init {name} = {circuit.initial[name]}")
    for rule in circuit.rules:
        out.append(f"rule {rule.guard} -> {rule.target} = {rule.value} [{_fmt_num(rule.delay)}]")
    if monitored:
        out.append("monitor " + " ".join(sorted(monitored)))
    return "\n".join(out) + "\n"


# --- input trace CSV -----------------------------------------------------------


def parse_traces(text: str) -> dict[str, SignalTrace]:
    """CSV with header ``signal,time,value``; each signal starts at time 0."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1)]
    rows = [(lineno, ln) for lineno, ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0][1].replace(" ", "") != "signal,time,value":
        raise NetlistError("trace CSV must start with header 'signal,time,value'", rows[0][0] if rows else 1)
    per_signal: dict[str, list[tuple[float, Value]]] = {}
    for lineno, row in rows[1:]:
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != 3:
            raise NetlistError(f"expected 'signal,time,value', got {row!r}", lineno)
        name, time_s, value_s = parts
        if not SIGNAL_NAME_RE.match(name):
            raise NetlistError(f"bad signal name {name!r}", lineno)
        try:
            t = float(time_s)
        except ValueError:
            raise NetlistError(f"bad time {time_s!r}", lineno) from None
        if not math.isfinite(t):
            raise NetlistError(f"time must be finite, got {time_s!r}", lineno)
        try:
            v = Value.from_text(value_s)
        except ValueError:
            raise NetlistError(f"unknown value {value_s!r} (expected 0, 1 or X)", lineno) from None
        steps = per_signal.setdefault(name, [])
        if not steps and t != 0.0:
            raise NetlistError(f"trace for {name!r} must start with a time-0 row", lineno)
        if steps and t <= steps[-1][0]:
            raise NetlistError(f"trace for {name!r} has unsorted or duplicate time {t}", lineno)
        if steps and v == steps[-1][1]:
            raise NetlistError(f"trace for {name!r} does not change its value ({v}) at time {t}", lineno)
        steps.append((t, v))
    return {name: make_trace(steps[0][1], steps[1:]) for name, steps in per_signal.items()}


def serialize_traces(traces: dict[str, SignalTrace]) -> str:
    out = ["signal,time,value"]
    for name in sorted(traces):
        trace = traces[name]
        out.append(f"{name},0,{trace.initial}")
        for t, v in trace.transitions:
            out.append(f"{name},{_fmt_num(t)},{v}")
    return "\n".join(out) + "\n"


# --- report JSON -----------------------------------------------------------------


def report_to_dict(report: SensitivityReport) -> dict:
    return {
        "config": {
            "T": report.horizon,
            "epsilon": report.epsilon,
            "gamma": report.gamma,
            "delta": report.delta,
            "settle": report.settle,
            "monitored": list(report.monitored),
            "injected": list(report.injected),
            "fault_kind": report.fault_kind,
        },
        "p_fail": report.p_fail,
        "p_per_signal": {s: report.p_per_signal[s] for s in sorted(report.p_per_signal)},
        "windows": [{"signal": w.signal, "start": w.start, "end": w.end} for w in report.windows],
        "simulations": report.simulations,
    }


def write_report(report: SensitivityReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def read_report(text: str) -> SensitivityReport:
    obj = json.loads(text)
    cfg = obj["config"]
    windows = tuple(SensitivityWindow(w["signal"], w["start"], w["end"]) for w in obj["windows"])
    return SensitivityReport(
        horizon=cfg["T"],
        epsilon=cfg["epsilon"],
        gamma=cfg["gamma"],
        delta=cfg["delta"],
        settle=cfg["settle"],
        monitored=tuple(cfg["monitored"]),
        injected=tuple(cfg["injected"]),
        fault_kind=cfg["fault_kind"],
        windows=windows,
        p_fail=obj["p_fail"],
        p_per_signal=dict(obj["p_per_signal"]),
        simulations=obj["simulations"],
    )


def recompute_p_fail(obj: dict) -> float:
    """Failure probability implied by a report dict's own windows."""
    total = math.fsum(w["end"] - w["start"] for w in obj["windows"])
    n = len(obj["config"]["injected"])
    T = obj["config"]["T"]
    return total / (n * T) if n and T > 0 else 0.0
