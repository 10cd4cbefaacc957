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
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .analysis import SensitivityReport, SensitivityWindow
from .prs import (
    And,
    Circuit,
    GuardExpr,
    Not,
    Or,
    ProductionRule,
    SignalRef,
    SignalTrace,
    Value,
    make_trace,
    validate_circuit,
)

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?\Z")


class NetlistError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: {message}")


class NetlistSemanticError(ValueError):
    """Well-formed text describing an invalid circuit."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass
class NetlistDocument:
    name: str
    inputs: list[str] = field(default_factory=list)
    locals: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    inits: dict = field(default_factory=dict)
    rules: list[ProductionRule] = field(default_factory=list)
    monitored: list[str] = field(default_factory=list)
    spans: dict = field(default_factory=dict)  # element key -> line number

    def to_circuit(self) -> Circuit:
        return Circuit(
            inputs=self.inputs,
            locals=self.locals,
            outputs=self.outputs,
            initial=self.inits,
            rules=self.rules,
            name=self.name,
        )


# --- guard expression parsing -------------------------------------------------


class _ExprParser:
    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise NetlistError(f"expected {tok!r}, got {got!r}", self.line)

    def parse(self) -> GuardExpr:
        expr = self.or_expr()
        if self.peek() is not None:
            raise NetlistError(f"unexpected {self.peek()!r} after expression", self.line)
        return expr

    def or_expr(self) -> GuardExpr:
        parts = [self.and_expr()]
        while self.peek() == "|":
            self.take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def and_expr(self) -> GuardExpr:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(*parts)

    def unary(self) -> GuardExpr:
        tok = self.peek()
        if tok is None:
            raise NetlistError("unexpected end of expression", self.line)
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            inner = self.or_expr()
            self.expect(")")
            return inner
        self.take()
        if not IDENT_RE.match(tok):
            raise NetlistError(f"expected signal name, got {tok!r}", self.line)
        return SignalRef(tok)


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|->|[!&|()=\[\]]|\S")


def _tokens(text: str, line: int) -> list[str]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        if tok not in ("->", "!", "&", "|", "(", ")", "=", "[", "]") and not IDENT_RE.match(tok) and not NUMBER_RE.match(tok):
            raise NetlistError(f"stray character {tok!r}", line, m.start() + 1)
        out.append(tok)
    return out


def parse_netlist(text: str) -> NetlistDocument:
    doc = None
    seen_sections = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if doc is None:
            if head != "circuit" or len(words) != 2:
                raise NetlistError("netlist must start with 'circuit <name>'", lineno)
            if not IDENT_RE.match(words[1]):
                raise NetlistError(f"bad circuit name {words[1]!r}", lineno)
            doc = NetlistDocument(name=words[1])
            doc.spans["circuit"] = lineno
            continue
        if head in ("inputs", "locals", "outputs", "monitor"):
            if head in seen_sections:
                raise NetlistError(f"duplicate {head!r} declaration", lineno)
            seen_sections.add(head)
            names = words[1:]
            for n in names:
                if not IDENT_RE.match(n):
                    raise NetlistError(f"bad signal name {n!r}", lineno)
            if head == "monitor":
                doc.monitored = names
            else:
                setattr(doc, head, names)
            doc.spans[head] = lineno
        elif head == "init":
            if len(words) != 4 or words[2] != "=":
                raise NetlistError("expected 'init <signal> = 0|1|X'", lineno)
            name, value = words[1], words[3]
            if not IDENT_RE.match(name):
                raise NetlistError(f"bad signal name {name!r}", lineno)
            if value not in ("0", "1", "X"):
                raise NetlistError(f"bad initial value {value!r} (expected 0, 1 or X)", lineno)
            if name in doc.inits:
                raise NetlistError(f"duplicate init for {name!r}", lineno)
            doc.inits[name] = Value.from_text(value)
            doc.spans[("init", name)] = lineno
        elif head == "rule":
            toks = _tokens(line[len("rule"):], lineno)
            try:
                arrow = toks.index("->")
            except ValueError:
                raise NetlistError("rule needs '->'", lineno) from None
            guard = _ExprParser(toks[:arrow], lineno).parse()
            rest = toks[arrow + 1:]
            if len(rest) != 6 or rest[1] != "=" or rest[3] != "[" or rest[5] != "]":
                raise NetlistError("expected '<target> = 0|1 [<delay>]' after '->'", lineno)
            target, bit, delay_tok = rest[0], rest[2], rest[4]
            if not IDENT_RE.match(target):
                raise NetlistError(f"bad target name {target!r}", lineno)
            if bit not in ("0", "1"):
                raise NetlistError(f"rule action must be 0 or 1, got {bit!r}", lineno)
            if not NUMBER_RE.match(delay_tok):
                raise NetlistError(f"bad delay {delay_tok!r}", lineno)
            delay = float(delay_tok)
            if not delay > 0:
                raise NetlistError(f"delay must be positive, got {delay_tok}", lineno)
            rule = ProductionRule(guard, target, int(bit), delay)
            doc.rules.append(rule)
            doc.spans[("rule", len(doc.rules) - 1)] = lineno
        else:
            raise NetlistError(f"unknown declaration {head!r}", lineno)
    if doc is None:
        raise NetlistError("empty netlist", 1)
    if not doc.outputs:
        raise NetlistError("netlist declares no outputs", doc.spans.get("circuit", 1))
    return doc


def parse_circuit(text: str) -> tuple[Circuit, frozenset]:
    """Parse and validate; returns the circuit and its monitored set."""
    doc = parse_netlist(text)
    circuit = doc.to_circuit()
    violations = validate_circuit(circuit)
    unknown_monitor = [m for m in doc.monitored if m not in circuit.signals]
    if unknown_monitor:
        from .prs import Violation

        violations = violations + [
            Violation("unknown-signal", m, "monitor names an undeclared signal") for m in unknown_monitor
        ]
    if violations:
        raise NetlistSemanticError(violations)
    return circuit, frozenset(doc.monitored)


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
    for rule in sorted(circuit.rules, key=lambda r: (r.target, -r.value)):
        out.append(f"rule {rule.guard} -> {rule.target} = {rule.value} [{_fmt_num(rule.delay)}]")
    if monitored:
        out.append("monitor " + " ".join(sorted(monitored)))
    return "\n".join(out) + "\n"


# --- input trace CSV -----------------------------------------------------------


def parse_traces(text: str) -> dict[str, SignalTrace]:
    """CSV with header ``signal,time,value``; each signal starts at time 0."""
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0].replace(" ", "") != "signal,time,value":
        raise ValueError("trace CSV must start with header 'signal,time,value'")
    per_signal: dict[str, list[tuple[float, Value]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'signal,time,value', got {row!r}")
        name, time_s, value_s = parts
        if not IDENT_RE.match(name):
            raise ValueError(f"line {lineno}: bad signal name {name!r}")
        try:
            t = float(time_s)
        except ValueError:
            raise ValueError(f"line {lineno}: bad time {time_s!r}") from None
        try:
            v = Value.from_text(value_s)
        except ValueError:
            raise ValueError(f"line {lineno}: unknown value {value_s!r} (expected 0, 1 or X)") from None
        per_signal.setdefault(name, []).append((t, v))
    traces = {}
    for name, rows_ in per_signal.items():
        t0, v0 = rows_[0]
        if t0 != 0.0:
            raise ValueError(f"trace for {name!r} must start with a time-0 row")
        prev = 0.0
        for t, _ in rows_[1:]:
            if t <= prev:
                raise ValueError(f"trace for {name!r} has unsorted or duplicate time {t}")
            prev = t
        traces[name] = make_trace(v0, rows_[1:])
    return traces


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
    windows = tuple(
        SensitivityWindow(w["signal"], w["start"], w["end"], cfg["delta"]) for w in obj["windows"]
    )
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
