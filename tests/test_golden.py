"""Golden outputs that pin the kernel's canonical order, not only its verdicts.

Equal-time changes are recorded in the order the five-step loop makes them,
and unstable cancellations in the order of their fixpoint passes: ascending
rule id, a rule dirtied mid-pass with a higher id visited in the same pass,
one with a lower id in the next.  A kernel rewrite must reproduce these
event lists and report bytes exactly.
"""

import hashlib

from faultscope import And, Circuit, Not, ProductionRule, SignalRef, SimConfig, Value, cli, execute, make_trace
from faultscope.analysis import analyze
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    multibit_linear_pipeline,
    ring_pipeline,
)
from faultscope.netlist import serialize_circuit, write_report


def _pass_order_circuit():
    """b+ and c+ wait on input i, a+ on !b & k.  When i turns X at t=2 the
    pass over the pending rules cancels b+, which dirties a+ (a lower id,
    so left to the next pass), then c+; a+ is canceled last."""
    return Circuit(
        inputs={"i", "k"},
        locals={"a", "b"},
        outputs={"c"},
        initial={"a": Value.ZERO, "b": Value.ZERO, "c": Value.ZERO},
        rules=[
            ProductionRule(And(Not(SignalRef("b")), SignalRef("k")), "a", 1, 5.0),
            ProductionRule(And(SignalRef("b"), SignalRef("k")), "a", 0, 5.0),
            ProductionRule(SignalRef("i"), "b", 1, 3.0),
            ProductionRule(SignalRef("i"), "c", 1, 3.0),
        ],
        name="passorder",
    )


def test_unstable_cancellation_pass_order():
    inputs = {
        "i": make_trace(Value.ZERO, [(1.0, Value.ONE), (2.0, Value.X), (3.0, Value.ONE)]),
        "k": make_trace(Value.ZERO, [(1.0, Value.ONE)]),
    }
    ex = execute(_pass_order_circuit(), inputs, SimConfig(15.0, 0.1))
    got = [(e.time, e.signal, str(e.value), e.cause) for e in ex.events]
    assert got == [
        (1.0, "i", "1", "in"),
        (1.0, "k", "1", "in"),
        (2.0, "i", "X", "in"),
        (2.0, "b", "X", "unstable b+"),
        (2.0, "c", "X", "unstable c+"),
        (2.0, "a", "X", "unstable a+"),
        (3.0, "i", "1", "in"),
        (6.0, "b", "1", "b+"),
        (6.0, "c", "1", "c+"),
        (11.0, "a", "0", "a-"),
    ]


def test_self_loop_event_order():
    """o+ reads its own target: the rule is both a reader and a driver of o,
    and at t=21.5 its pending action is canceled when en falls."""
    circuit = Circuit(
        inputs={"en"},
        locals=set(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[
            ProductionRule(And(SignalRef("en"), Not(SignalRef("o"))), "o", 1, 2.0),
            ProductionRule(SignalRef("o"), "o", 0, 3.0),
        ],
        name="selfloop",
    )
    steps = [(1.0, Value.ONE), (10.5, Value.X), (11.0, Value.ONE), (21.5, Value.ZERO)]
    ex = execute(circuit, {"en": make_trace(Value.ZERO, steps)}, SimConfig(30.0, 0.1))
    got = [(e.time, e.signal, str(e.value), e.cause) for e in ex.events]
    assert got == [
        (1.0, "en", "1", "in"),
        (3.0, "o", "1", "o+"),
        (6.0, "o", "0", "o-"),
        (8.0, "o", "1", "o+"),
        (10.5, "en", "X", "in"),
        (11.0, "en", "1", "in"),
        (11.0, "o", "0", "o-"),
        (13.0, "o", "1", "o+"),
        (16.0, "o", "0", "o-"),
        (18.0, "o", "1", "o+"),
        (21.0, "o", "0", "o-"),
        (21.5, "en", "0", "in"),
        (21.5, "o", "X", "unstable o+"),
    ]


def _report_digest(circuit, monitored, horizon):
    report = analyze(circuit, {}, monitored, gamma=0.1, delta=0.05, config=SimConfig(horizon, 0.1))
    text = write_report(report)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), report


def test_linear3_report_bytes():
    digest, report = _report_digest(*linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), 32.0)
    assert (report.p_fail, len(report.windows), report.simulations) == (0.5425, 37, 150)
    assert digest == "67bb755bf00ce355363bf420b71510c6de6f6719f81bc548c1035d3c02b91a95"


def test_mb1_report_bytes():
    digest, report = _report_digest(*multibit_linear_pipeline(MultiBitSpec(1, 2, 1, 5, 4, 4)), 30.0)
    assert (report.p_fail, len(report.windows), report.simulations) == (0.6426244212962963, 76, 279)
    assert digest == "cc5438a9f51db9e51c0088308d48c121746c63552cd4df58f9af74d083fbcceb"


def _execute_digest(circuit, horizon):
    """Event count and sha256 of the events of a fault-free execution, one
    line per event: time, signal, value and cause."""
    ex = execute(circuit, {}, SimConfig(horizon, 0.1))
    text = "\n".join(f"{e.time!r} {e.signal} {e.value} {e.cause}" for e in ex.events)
    return len(ex.events), hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_mb4_execute_events():
    """Four bits switch in step: up to six changes at one time."""
    circuit, _ = multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4))
    assert _execute_digest(circuit, 500.0) == (
        1546,
        "1b6645d6173c297546e30f1cbf4e8abe6937a6b9e28c099515a5879054f2fb1a",
    )


def test_ring20_execute_events():
    """Nine tokens on twenty stages: two changes at each of 66 times."""
    circuit, _ = ring_pipeline(RingSpec(20, 9, 1, 5))
    assert _execute_digest(circuit, 200.0) == (
        132,
        "90b7dd72d3c72318a33962bbadbc1c62e2266cb32bf0f3cd24a5873f2cd2e046",
    )


def test_linear3_inject_svg_bytes(tmp_path, capsys):
    """The picture of the run the verdict is taken from: inject --out-svg
    on linear-3, c2@10:0.1 at T=32."""
    circuit, svg = tmp_path / "lin3.prs", tmp_path / "fault.svg"
    circuit.write_text(serialize_circuit(*linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))))
    argv = ["inject", "--circuit", str(circuit), "--at", "c2@10:0.1", "--until", "32", "--out-svg", str(svg)]
    assert cli.main(argv) == 0 and capsys.readouterr().out == "SUSCEPTIBLE\n"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "bd3d18e7749d018c46dd05a2f5da4346d49297511b61f4552f315d1b93966142"
    )
