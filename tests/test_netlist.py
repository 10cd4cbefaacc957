"""DSL parsing/serialization, trace CSV, report JSON, and SVG rendering."""

import json
import warnings

import pytest

from faultscope import Circuit, Not, ProductionRule, SignalRef, SimConfig, Value, execute, make_trace
from faultscope.analysis import analyze, make_transient
from faultscope.generators import MultiBitSpec, PipelineSpec, RingSpec, linear_pipeline, multibit_linear_pipeline, ring_pipeline
from faultscope.netlist import (
    NetlistError,
    NetlistSemanticError,
    parse_circuit,
    parse_traces,
    read_report,
    recompute_p_fail,
    report_to_dict,
    serialize_circuit,
    serialize_traces,
    write_report,
)
from faultscope.waveform import render_waveform

INVERTER_TEXT = """\
circuit inv
inputs i
outputs o
init o = 1
rule i -> o = 0 [1.0]
rule !i -> o = 1 [1.0]
"""


def inverter():
    return Circuit(
        inputs={"i"},
        locals=set(),
        outputs={"o"},
        initial={"o": Value.ONE},
        rules=[
            ProductionRule(SignalRef("i"), "o", 0, 1.0),
            ProductionRule(Not(SignalRef("i")), "o", 1, 1.0),
        ],
        name="inv",
    )


def test_parse_inverter():
    circuit, monitored = parse_circuit(INVERTER_TEXT)
    assert circuit == inverter()
    assert monitored == frozenset()


def test_parse_comments_and_monitor():
    text = INVERTER_TEXT + "# trailing comment\nmonitor o\n"
    circuit, monitored = parse_circuit(text)
    assert monitored == frozenset({"o"})


def test_rule_targeting_input_is_semantic_error():
    text = "circuit bad\ninputs i\noutputs o\ninit o = 0\nrule o -> i = 1 [1.0]\n"
    with pytest.raises(NetlistSemanticError):
        parse_circuit(text)


def test_missing_init_is_semantic_error():
    text = "circuit bad\ninputs i\noutputs o\nrule i -> o = 1 [1.0]\nrule !i -> o = 0 [1.0]\n"
    with pytest.raises(NetlistSemanticError):
        parse_circuit(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("outputs o\n", "circuit"),
        ("circuit c\noutputs o\ninit o = 2\n", "initial value"),
        ("circuit c\noutputs o\ninit o = 0\nrule o = 1 [1.0]\n", "->"),
        ("circuit c\noutputs o\ninit o = 0\nrule x -> o = 1 [0]\n", "delay"),
        ("circuit c\noutputs o\ninit o = 0\nrule x -> o = 3 [1.0]\n", "0 or 1"),
        ("circuit c\noutputs o\ninit o = 0\nrule (x -> o = 1 [1.0]\n", "expected"),
        ("circuit c\nwibble o\n", "unknown declaration"),
        ("", "empty"),
    ],
)
def test_parse_errors_carry_line_info(text, fragment):
    with pytest.raises(NetlistError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_guard_precedence():
    text = "circuit c\ninputs a b d\noutputs o\ninit o = 0\nrule a | b & !d -> o = 1 [1.0]\nrule !a & !b -> o = 0 [1.0]\n"
    circuit, _ = parse_circuit(text)
    up = next(r for r in circuit.rules if r.value == 1)
    from faultscope import And, Or

    assert isinstance(up.guard, Or)
    assert isinstance(up.guard.children[1], And)


def test_roundtrip_inverter():
    circuit = inverter()
    text = serialize_circuit(circuit, {"o"})
    parsed, monitored = parse_circuit(text)
    assert parsed == circuit
    assert monitored == frozenset({"o"})
    assert serialize_circuit(parsed, monitored) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)),
        lambda: linear_pipeline(PipelineSpec(5, 2, 3, 1, 7)),
        lambda: ring_pipeline(RingSpec(6, 2, 1, 5)),
        lambda: multibit_linear_pipeline(MultiBitSpec(2, 2, 1, 5, 4, 4)),
        lambda: multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4)),
    ],
)
def test_roundtrip_generated(build):
    circuit, monitored = build()
    text = serialize_circuit(circuit, monitored)
    parsed, parsed_mon = parse_circuit(text)
    assert parsed == circuit
    assert parsed_mon == monitored


# --- traces ------------------------------------------------------------------


def test_parse_traces_input_a():
    traces = parse_traces("signal,time,value\ni,0,0\ni,1,1\n")
    assert traces["i"].initial is Value.ZERO
    assert traces["i"].transitions == ((1.0, Value.ONE),)


def test_parse_traces_input_c():
    traces = parse_traces("signal,time,value\ni,0,0\ni,1,X\ni,1.5,0\n")
    assert traces["i"].transitions == ((1.0, Value.X), (1.5, Value.ZERO))


def test_parse_traces_unknown_value():
    with pytest.raises(ValueError, match="unknown value"):
        parse_traces("signal,time,value\ni,0,0\ni,2,2\n")


def test_parse_traces_missing_time_zero():
    with pytest.raises(ValueError, match="time-0"):
        parse_traces("signal,time,value\ni,1,1\n")


def test_parse_traces_unsorted():
    with pytest.raises(ValueError, match="unsorted"):
        parse_traces("signal,time,value\ni,0,0\ni,2,1\ni,1,0\n")


def test_parse_traces_needs_header():
    with pytest.raises(ValueError, match="header"):
        parse_traces("i,0,0\n")


def test_traces_roundtrip():
    traces = {"i": make_trace(Value.ZERO, [(1.0, Value.X), (1.5, Value.ZERO)])}
    assert parse_traces(serialize_traces(traces))["i"].transitions == traces["i"].transitions


# --- report JSON -----------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return analyze(circuit, {}, monitored, 0.1, 0.01, SimConfig(32.0, 0.1))


def test_report_schema(report):
    obj = json.loads(write_report(report))
    assert set(obj) == {"config", "p_fail", "p_per_signal", "windows", "simulations"}
    assert set(obj["config"]) == {"T", "epsilon", "gamma", "delta", "settle", "monitored", "injected", "fault_kind"}
    assert obj["config"]["settle"] == report.settle
    assert obj["p_fail"] == report.p_fail
    assert all(set(w) == {"signal", "start", "end"} for w in obj["windows"])


def test_report_self_consistent(report):
    obj = json.loads(write_report(report))
    assert abs(recompute_p_fail(obj) - obj["p_fail"]) <= 1e-12


def test_report_roundtrip(report):
    again = read_report(write_report(report))
    assert again.p_fail == report.p_fail
    assert again.windows == report.windows
    assert again.p_per_signal == dict(report.p_per_signal)
    assert again.settle == report.settle
    assert write_report(again) == write_report(report)


def test_report_monitored_probability_one_when_included():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = analyze(circuit, {}, monitored, 0.1, 0.05, SimConfig(32.0, 0.1), include_monitored=True)
    obj = report_to_dict(rep)
    for m in monitored:
        assert obj["p_per_signal"][m] == 1.0


def test_empty_report_zero():
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    rep = analyze(circuit, {}, {"c1", "c3"}, 0.1, 0.05, SimConfig(0.5, 0.1), injection_set={"en2"})
    obj = report_to_dict(rep)
    assert obj["windows"] == [] and obj["p_fail"] == 0.0


# --- SVG ---------------------------------------------------------------------------


def test_svg_marks_x_interval_red():
    circuit = inverter()
    ex = execute(
        circuit,
        {"i": make_trace(Value.ZERO, [(1.0, Value.ONE), (1.5, Value.ZERO)])},
        SimConfig(4.0, 0.1),
    )
    svg = render_waveform(ex)
    assert svg.startswith("<svg") or svg.startswith("<?xml") or svg.startswith('<svg')
    assert svg.count('fill="#e63329"') == 1  # exactly one X interval: o in [1.5, 2.5)


def test_svg_fault_free_pipeline_has_no_red():
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    ex = execute(circuit, {}, SimConfig(32.0, 0.1))
    assert 'fill="#e63329"' not in render_waveform(ex)


def test_svg_windows_shaded(report):
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    ex = execute(circuit, {}, SimConfig(32.0, 0.1))
    svg = render_waveform(ex, report.windows, monitored)
    assert svg.count('fill="#4f81ff"') == len(report.windows)


def test_svg_deterministic(report):
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    ex = execute(circuit, {}, SimConfig(32.0, 0.1))
    a = render_waveform(ex, report.windows, monitored)
    b = render_waveform(ex, report.windows, monitored)
    assert a == b


def test_svg_renders_glitched_trace():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    base = execute(circuit, {}, SimConfig(32.0, 0.1))
    faulty = execute(circuit, {}, SimConfig(32.0, 0.1), make_transient("c2", 10.0, 0.1, "xpulse", base))
    svg = render_waveform(faulty, monitored=monitored)
    assert 'fill="#e63329"' in svg
    assert "c1 *" in svg and "c3 *" in svg
