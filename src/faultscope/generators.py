"""Constructors for the benchmark circuits: gates, Muller pipelines and rings,
and multi-bit dual-rail pipelines with completion detection.

All generators return autonomous circuits (no external inputs): sources and
sinks are built from the same gate primitives, so a generated netlist can be
executed without separate input traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prs import And, Circuit, Not, Or, ProductionRule, SignalRef, Value
from .sim import Execution


class GenerationError(ValueError):
    pass


# Initialization calibration: the source inverter starts low, so the source
# fires its first token one source delay after start-up.  This reproduces the
# published failure probability of the 3-stage pipeline to within the width
# of two boundary probe pulses.
_SOURCE_INITIAL = Value.ZERO


# --- gate primitives ---------------------------------------------------------


def _gate(pins: tuple[str, ...], out: str, delay: float, up, down) -> list[ProductionRule]:
    """Up-rule then down-rule driving out; ``up`` and ``down`` build the
    guards from one SignalRef per pin."""
    names = (*pins, out)
    if len(set(names)) != len(names):
        if len(pins) == 1:
            raise GenerationError(f"combinational self-loop rejected: inverter {pins[0]} -> {out}")
        raise GenerationError(f"gate pins must be distinct signals, got {names}")
    if delay <= 0:
        raise GenerationError(f"delay must be positive, got {delay}")
    refs = [SignalRef(p) for p in pins]
    return [ProductionRule(up(*refs), out, 1, delay), ProductionRule(down(*refs), out, 0, delay)]


def _nor(a, b):
    return And(Not(a), Not(b))


def gate_inverter(inp: str, out: str, delay: float) -> list[ProductionRule]:
    """Inverter: drives out to the complement of inp after the delay."""
    up, down = _gate((inp,), out, delay, Not, lambda a: a)
    return [down, up]


def gate_mce(a: str, b: str, out: str, delay: float) -> list[ProductionRule]:
    """Muller C-element: output follows matching inputs, holds otherwise."""
    return _gate((a, b), out, delay, And, _nor)


def gate_or(a: str, b: str, out: str, delay: float) -> list[ProductionRule]:
    return _gate((a, b), out, delay, Or, _nor)


def gate_and(a: str, b: str, out: str, delay: float) -> list[ProductionRule]:
    return _gate((a, b), out, delay, And, lambda a, b: Or(Not(a), Not(b)))


# --- linear Muller pipeline --------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    stages: int = 3
    inv_delay: float = 1.0
    mce_delay: float = 5.0
    source_delay: float = 4.0
    sink_delay: float = 4.0

    def check(self) -> None:
        if self.stages < 1:
            raise GenerationError(f"need at least one stage, got {self.stages}")
        for name in ("inv_delay", "mce_delay", "source_delay", "sink_delay"):
            if getattr(self, name) <= 0:
                raise GenerationError(f"{name} must be positive")


def linear_pipeline(spec: PipelineSpec) -> tuple[Circuit, frozenset]:
    """Linear Muller pipeline with a source inverter driving stage 1 and a
    sink inverter acknowledging the last stage.

    Stage i is an MCE with inputs (data, enable) and output c_i; data comes
    from c_{i-1} (stage 1: from the source output src), the enable en_i is the
    inverted output of stage i+1 (last stage: its own inverted output, via the
    sink inverter).  Returns the circuit and the default monitored set
    {c1, c_n}: the signals facing source and sink.
    """
    spec.check()
    n = spec.stages
    rules: list[ProductionRule] = []
    initial: dict[str, Value] = {}

    c = [f"c{i}" for i in range(1, n + 1)]
    en = [f"en{i}" for i in range(1, n + 1)]

    rules += gate_inverter(c[0], "src", spec.source_delay)
    initial["src"] = _SOURCE_INITIAL
    for i in range(n):
        data = "src" if i == 0 else c[i - 1]
        rules += gate_mce(data, en[i], c[i], spec.mce_delay)
        initial[c[i]] = Value.ZERO
        if i < n - 1:
            rules += gate_inverter(c[i + 1], en[i], spec.inv_delay)
        else:
            rules += gate_inverter(c[i], en[i], spec.sink_delay)
        initial[en[i]] = Value.ONE

    circuit = Circuit(
        inputs=(),
        locals=set(initial) - {c[0], c[-1]},
        outputs={c[0], c[-1]},
        initial=initial,
        rules=rules,
        name=f"linear{n}",
    )
    return circuit, frozenset({c[0], c[-1]})


# --- Muller pipeline ring ----------------------------------------------------


@dataclass(frozen=True)
class RingSpec:
    stages: int
    tokens: int = 1
    inv_delay: float = 1.0
    mce_delay: float = 5.0

    def check(self) -> None:
        if self.stages < 3:
            raise GenerationError(f"a ring needs at least 3 stages, got {self.stages}")
        if self.tokens < 1:
            raise GenerationError(f"need at least one token, got {self.tokens}")
        if self.stages - 2 * self.tokens < 1:
            raise GenerationError(
                f"no bubble: {self.stages} stages cannot hold {self.tokens} tokens "
                f"(each token occupies two stages and at least one bubble is required)"
            )
        for name in ("inv_delay", "mce_delay"):
            if getattr(self, name) <= 0:
                raise GenerationError(f"{name} must be positive")


def token_positions(stages: int, tokens: int) -> list[int]:
    """Equally spaced start positions for the data tokens (0-based stages)."""
    return [(j * stages) // tokens for j in range(tokens)]


def ring_pipeline(spec: RingSpec) -> tuple[Circuit, frozenset]:
    """Muller pipeline closed into a ring.

    MCE_i takes (c_{i-1}, en_i) where en_i inverts c_{i+1} (indices wrap).
    Occupancy: each token is a data phase (1) on one stage with its spacer (0)
    on the following stage; tokens are spread equally around the ring and the
    remaining stages are bubbles (0).  Monitored set {c1}.
    """
    spec.check()
    n = spec.stages
    rules: list[ProductionRule] = []
    initial: dict[str, Value] = {}

    c = [f"c{i}" for i in range(1, n + 1)]
    en = [f"en{i}" for i in range(1, n + 1)]

    data_at = set(token_positions(n, spec.tokens))
    for i in range(n):
        rules += gate_mce(c[(i - 1) % n], en[i], c[i], spec.mce_delay)
        rules += gate_inverter(c[(i + 1) % n], en[i], spec.inv_delay)
        initial[c[i]] = Value.ONE if i in data_at else Value.ZERO
    for i in range(n):
        initial[en[i]] = Value.ZERO if (i + 1) % n in data_at else Value.ONE

    circuit = Circuit(
        inputs=(),
        locals=set(initial) - {c[0]},
        outputs={c[0]},
        initial=initial,
        rules=rules,
        name=f"ring{n}t{spec.tokens}",
    )
    return circuit, frozenset({c[0]})


# --- multi-bit dual-rail pipeline ---------------------------------------------


@dataclass(frozen=True)
class MultiBitSpec:
    bits: int = 1
    stages: int = 3
    inv_delay: float = 1.0
    mce_delay: float = 5.0
    source_delay: float = 4.0
    sink_delay: float = 4.0

    def check(self) -> None:
        if self.bits < 1:
            raise GenerationError(f"need at least one bit, got {self.bits}")
        if self.stages < 1:
            raise GenerationError(f"need at least one stage, got {self.stages}")
        for name in ("inv_delay", "mce_delay", "source_delay", "sink_delay"):
            if getattr(self, name) <= 0:
                raise GenerationError(f"{name} must be positive")


def _mce_tree(leaves: list[str], prefix: str, root: str, delay: float, rules, initial) -> None:
    """Minimum-depth binary MCE tree over the per-bit validity signals, ties
    broken left; the final combine drives the root."""
    nodes = list(leaves)
    level = 0
    while len(nodes) > 1:
        nxt_level = []
        for k in range(0, len(nodes) - 1, 2):
            out = root if len(nodes) == 2 else f"{prefix}.m{level}_{k // 2}"
            rules += gate_mce(nodes[k], nodes[k + 1], out, delay)
            initial[out] = Value.ZERO
            nxt_level.append(out)
        if len(nodes) % 2:
            nxt_level.append(nodes[-1])
        nodes = nxt_level
        level += 1


def multibit_linear_pipeline(spec: MultiBitSpec) -> tuple[Circuit, frozenset]:
    """Dual-rail pipeline: per stage and bit two MCE latches sharing the stage
    enable; per stage a completion detector (OR per bit, combined by an MCE
    tree) whose inversion acknowledges the previous stage.

    The source emits alternating data/spacer codewords with a rotating one-hot
    data pattern, driven by a small toggle counter clocked by the handshake
    phase; the sink is the last stage's inverted completion, as in the 1-bit
    pipeline.  Monitored set: first and last stages' completion outputs.
    """
    spec.check()
    b, n = spec.bits, spec.stages
    rules: list[ProductionRule] = []
    initial: dict[str, Value] = {}

    def rails(stage: int) -> list[tuple[str, str]]:
        return [(f"c{stage}.b{k}.t", f"c{stage}.b{k}.f") for k in range(b)]

    # source phase mirrors the 1-bit source inverter: high means "emit data"
    ph = "src.ph"
    rules += gate_inverter(_cd_name(1), ph, spec.source_delay)
    initial[ph] = _SOURCE_INITIAL

    sel = _rotation_counter(b, ph, spec.inv_delay, rules, initial)

    # source rails: during the data phase drive the selected rail pattern,
    # during the spacer phase return every rail to zero
    for k in range(b):
        t_rail, f_rail = f"src.b{k}.t", f"src.b{k}.f"
        if sel is None:
            rules.append(ProductionRule(SignalRef(ph), t_rail, 1, spec.inv_delay))
        else:
            rules.append(ProductionRule(And(SignalRef(ph), SignalRef(sel[k])), t_rail, 1, spec.inv_delay))
            rules.append(ProductionRule(And(SignalRef(ph), Not(SignalRef(sel[k]))), f_rail, 1, spec.inv_delay))
            rules.append(ProductionRule(Not(SignalRef(ph)), f_rail, 0, spec.inv_delay))
        rules.append(ProductionRule(Not(SignalRef(ph)), t_rail, 0, spec.inv_delay))
        initial[t_rail] = Value.ZERO
        initial[f_rail] = Value.ZERO

    # pipeline stages with per-stage completion detection
    for i in range(1, n + 1):
        prev = [(f"src.b{k}.t", f"src.b{k}.f") for k in range(b)] if i == 1 else rails(i - 1)
        enable = f"en{i}"
        ors = []
        for k, (t_rail, f_rail) in enumerate(rails(i)):
            pt, pf = prev[k]
            rules += gate_mce(pt, enable, t_rail, spec.mce_delay)
            rules += gate_mce(pf, enable, f_rail, spec.mce_delay)
            initial[t_rail] = Value.ZERO
            initial[f_rail] = Value.ZERO
            # single bit: the completion detector is just this OR gate
            or_out = _cd_name(i) if b == 1 else f"cd{i}.o{k}"
            rules += gate_or(t_rail, f_rail, or_out, spec.inv_delay)
            initial[or_out] = Value.ZERO
            ors.append(or_out)
        if b > 1:
            _mce_tree(ors, f"cd{i}", _cd_name(i), spec.inv_delay, rules, initial)
        # enable: inverted completion of the next stage; last stage is
        # acknowledged by the sink inverter on its own completion
        if i > 1:
            rules += gate_inverter(_cd_name(i), f"en{i - 1}", spec.inv_delay)
            initial[f"en{i - 1}"] = Value.ONE
    rules += gate_inverter(_cd_name(n), f"en{n}", spec.sink_delay)
    initial[f"en{n}"] = Value.ONE

    monitored = frozenset({_cd_name(1), _cd_name(n)})
    circuit = Circuit(
        inputs=(),
        locals=set(initial) - monitored,
        outputs=monitored,
        initial=initial,
        rules=rules,
        name=f"multibit{b}x{n}",
    )
    return circuit, monitored


def _cd_name(stage: int) -> str:
    return f"cd{stage}"


def _rotation_counter(bits: int, clk: str, delay: float, rules, initial):
    """Master-slave toggle chain plus one-hot decode for the data rotation.

    Each toggle captures the complement of its state while its clock is high
    and transfers it while low, so the count advances once per handshake
    cycle and the decoded selection is stable during every data phase.
    Returns the list of select signal names, or None for a single bit.
    """
    if bits == 1:
        return None
    width = max(1, (bits - 1).bit_length())
    qs = []
    level_clk = clk
    for j in range(width):
        q, m = f"src.q{j}", f"src.m{j}"
        rules.append(ProductionRule(And(SignalRef(level_clk), Not(SignalRef(q))), m, 1, delay))
        rules.append(ProductionRule(And(SignalRef(level_clk), SignalRef(q)), m, 0, delay))
        rules.append(ProductionRule(And(Not(SignalRef(level_clk)), SignalRef(m)), q, 1, delay))
        rules.append(ProductionRule(And(Not(SignalRef(level_clk)), Not(SignalRef(m))), q, 0, delay))
        # consistent with a low clock at start-up: slave q transparent to m
        initial[q] = Value.ZERO
        initial[m] = Value.ZERO
        qs.append(q)
        level_clk = q
    sels = []
    for k in range(bits):
        name = f"src.sel{k}"
        lits = [SignalRef(q) if (k >> j) & 1 else Not(SignalRef(q)) for j, q in enumerate(qs)]
        neg = [Not(SignalRef(q)) if (k >> j) & 1 else SignalRef(q) for j, q in enumerate(qs)]
        up = lits[0] if len(lits) == 1 else And(*lits)
        down = neg[0] if len(neg) == 1 else Or(*neg)
        rules.append(ProductionRule(up, name, 1, delay))
        rules.append(ProductionRule(down, name, 0, delay))
        initial[name] = Value.ONE if k == 0 else Value.ZERO
        sels.append(name)
    return sels


# --- measurements -------------------------------------------------------------


def measure_throughput(execution: Execution, signal: str, inv_delay: float) -> float:
    """Tokens per inverter delay passing the signal: a 4-phase token is one
    rising plus one falling transition."""
    trace = execution.traces[signal]
    if execution.horizon <= 0:
        return 0.0
    tokens = len(trace.transitions) / 2.0
    return tokens / (execution.horizon / inv_delay)
