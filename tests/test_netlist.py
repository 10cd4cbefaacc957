"""DSL parsing/serialization, trace CSV, report JSON, and SVG rendering."""

import json
import re
import sys

import pytest

from faultscope import And, Circuit, CircuitInvalid, Not, Or, ProductionRule, SignalRef, SimConfig, Value, execute, make_trace, prs, sim
from faultscope.analysis import analyze, make_transient
from faultscope.generators import MultiBitSpec, PipelineSpec, RingSpec, linear_pipeline, multibit_linear_pipeline, ring_pipeline
from faultscope.netlist import (
    NetlistError,
    NetlistError,
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
    with pytest.raises(CircuitInvalid):
        parse_circuit(text)


def test_missing_init_is_semantic_error():
    text = "circuit bad\ninputs i\noutputs o\nrule i -> o = 1 [1.0]\nrule !i -> o = 0 [1.0]\n"
    with pytest.raises(CircuitInvalid):
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


_HEAD = "circuit c\noutputs o\ninit o = 0\n"

# malformed netlists: (text, message, line, column); the column is the stray
# character's 1-based column in its raw line, and 0 for every other error
MALFORMED = [
    ("\n# c\ncircuit c\ninputs i\n", "line 3: netlist declares no outputs", 3, 0),
    ("circuit c\noutputs\n", "line 1: netlist declares no outputs", 1, 0),
    ("circuit c\noutputs o\noutputs p\n", "line 3: duplicate 'outputs' declaration", 3, 0),
    ("circuit c\noutputs o\nlocals 9a\n", "line 3: bad signal name '9a'", 3, 0),
    ("circuit c\noutputs o\ninit o = 0\ninit o = 1\n", "line 4: duplicate init for 'o'", 4, 0),
    (_HEAD + "rule x $ y -> o = 1 [1.0]\n", "line 4: stray character '$'", 4, 8),
    (_HEAD + "rule x -> o = 1 [1e]\n", "line 4: expected '<target> = 0|1 [<delay>]' after '->'", 4, 0),
    ("outputs o\n", "line 1: netlist must start with 'circuit <name>'", 1, 0),
    ("circuit c\noutputs o\ninit o = 2\n", "line 3: bad initial value '2' (expected 0, 1 or X)", 3, 0),
    (_HEAD + "rule o = 1 [1.0]\n", "line 4: rule needs '->'", 4, 0),
    (_HEAD + "rule x -> o = 1 [0]\n", "line 4: delay must be positive, got 0", 4, 0),
    (_HEAD + "rule x -> o = 3 [1.0]\n", "line 4: rule action must be 0 or 1, got '3'", 4, 0),
    (_HEAD + "rule x -> o = X [1.0]\n", "line 4: rule action must be 0 or 1, got 'X'", 4, 0),
    ("circuit c\nwibble o\n", "line 2: unknown declaration 'wibble'", 2, 0),
    ("", "line 1: empty netlist", 1, 0),
    # a stray character at the start and at the end of a guard, after
    # leading whitespace, and where a token's prefix is one
    (_HEAD + "rule $x -> o = 1 [1.0]\n", "line 4: stray character '$'", 4, 6),
    (_HEAD + "rule x & y; -> o = 1 [1.0]\n", "line 4: stray character ';'", 4, 11),
    (_HEAD + "   rule a & b -> o = 1 [1.0] ;\n", "line 4: stray character ';'", 4, 30),
    (_HEAD + "\trule x -> o = 1 [1.0] , # note\n", "line 4: stray character ','", 4, 24),
    (_HEAD + "rule x - > o = 1 [1.0]\n", "line 4: stray character '-'", 4, 8),
    (_HEAD + "rule . -> o = 1 [1.0]\n", "line 4: stray character '.'", 4, 6),
    (_HEAD + "rule x -> o = 1 [.]\n", "line 4: stray character '.'", 4, 18),
    (_HEAD + "rule x -> o = 1 [-1]\n", "line 4: stray character '-'", 4, 18),
    # tokens in the wrong place
    (_HEAD + "rule 1e -> o = 1 [1.0]\n", "line 4: expected signal name, got '1'", 4, 0),
    (_HEAD + "rule x y -> o = 1 [1.0]\n", "line 4: unexpected 'y' after expression", 4, 0),
    (_HEAD + "rule x & -> o = 1 [1.0]\n", "line 4: unexpected end of expression", 4, 0),
    (_HEAD + "rule -> o = 1 [1.0]\n", "line 4: unexpected end of expression", 4, 0),
    (_HEAD + "rule x -> 5 = 1 [1.0]\n", "line 4: bad target name '5'", 4, 0),
    (_HEAD + "rule x -> o = 1 [x]\n", "line 4: bad delay 'x'", 4, 0),
    (_HEAD + "rule x -> o = 1 [1.0] ]\n", "line 4: expected '<target> = 0|1 [<delay>]' after '->'", 4, 0),
    # unbalanced parentheses
    (_HEAD + "rule (x -> o = 1 [1.0]\n", "line 4: expected ')', got None", 4, 0),
    (_HEAD + "rule ((x) -> o = 1 [1.0]\n", "line 4: expected ')', got None", 4, 0),
    (_HEAD + "rule x) -> o = 1 [1.0]\n", "line 4: unexpected ')' after expression", 4, 0),
    (_HEAD + "rule (x)) -> o = 1 [1.0]\n", "line 4: unexpected ')' after expression", 4, 0),
]


@pytest.mark.parametrize("text,message,line,column", MALFORMED, ids=[f"{c[0]}-{c[1]}" for c in MALFORMED])
def test_parse_error_messages_pinned(text, message, line, column):
    with pytest.raises(NetlistError) as err:
        parse_circuit(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.column) == (line, column)


def test_unknown_monitor_follows_circuit_violations():
    text = "circuit c\ninputs i\noutputs o\nrule i -> o = 0 [1.0]\nmonitor q\n"
    with pytest.raises(CircuitInvalid) as err:
        parse_circuit(text)
    assert str(err.value) == (
        "missing-init on o: driven signal has no initial value; "
        "unknown-signal on q: monitor names an undeclared signal"
    )


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


def _count_walks(monkeypatch, walks, key, *functions):
    """Count in ``walks[key]`` the outermost calls of the recursive guard
    walkers ``(owner, name)``: one per walk of a guard tree, whichever of
    them it starts in.  A walker is replaced on its owner and under every
    faultscope module attribute bound to it."""
    depth = [0]

    def counting(fn):
        def counted(*args, **kwargs):
            walks[key] += not depth[0]
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    walks[key] = 0
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "faultscope"]
    for owner, name in functions:
        fn = getattr(owner, name)
        counted = counting(fn)
        monkeypatch.setattr(owner, name, counted)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_parse_walks_each_guard_once_per_purpose(monkeypatch):
    """Parsing mb8 walks each of its 254 guards once for its support, once
    for its truth table in the exclusion check and once for its shape
    source, and renders no guard as text: valid rules are ordered without
    it.  A walk that comes back shows here, since verdicts and bytes would
    not show it."""
    text = serialize_circuit(*multibit_linear_pipeline(MultiBitSpec(8, 3, 1, 5, 4, 4)))
    walks: dict[str, int] = {}
    _count_walks(monkeypatch, walks, "support", (prs, "guard_signals"))
    _count_walks(monkeypatch, walks, "truth table", (prs, "_truth"))
    _count_walks(monkeypatch, walks, "kleene", (prs, "_kleene"))
    _count_walks(monkeypatch, walks, "shape source", (sim, "_guard_source"))
    _count_walks(monkeypatch, walks, "text", *((cls, "__str__") for cls in (SignalRef, Not, And, Or)))
    circuit, _ = parse_circuit(text)
    assert len(circuit.rules) == 254
    assert walks == {"support": 254, "truth table": 254, "kleene": 0, "shape source": 254, "text": 0}


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


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_parse_traces_non_finite_time(time):
    with pytest.raises(NetlistError, match="line 4: time must be finite"):
        parse_traces(f"signal,time,value\na,0,0\na,5,1\na,{time},0\n")


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
    return analyze(circuit, {}, monitored, 0.1, 0.01, SimConfig(32.0, 0.1))


def test_report_schema(report):
    obj = json.loads(write_report(report))
    assert set(obj) == {"config", "p_fail", "p_per_signal", "windows", "postfix_violations", "simulations"}
    assert set(obj["config"]) == {"T", "epsilon", "gamma", "delta", "settle", "monitored", "injected", "fault_kind"}
    assert obj["config"]["settle"] == report.settle
    assert obj["p_fail"] == report.p_fail
    assert all(set(w) == {"signal", "start", "end"} for w in obj["windows"] + obj["postfix_violations"])


def test_report_self_consistent(report):
    obj = json.loads(write_report(report))
    assert abs(recompute_p_fail(obj) - obj["p_fail"]) <= 1e-12


def test_report_roundtrip(report):
    again = read_report(write_report(report))
    assert again.p_fail == report.p_fail
    assert again.windows == report.windows
    assert again.postfix_violations == report.postfix_violations
    assert again.p_per_signal == dict(report.p_per_signal)
    assert again.settle == report.settle
    assert write_report(again) == write_report(report)


def test_report_monitored_probability_one_when_included():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    rep = analyze(circuit, {}, monitored, 0.1, 0.05, SimConfig(32.0, 0.1), injection_set=circuit.signals)
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


@pytest.mark.parametrize("horizon", [5e-9, 1e-10])
def test_svg_time_axis_ends_at_the_horizon(horizon):
    """The axis runs from 0 to T, with no tick past T, also where T is far
    below the rounding slack a fixed tolerance would allow."""
    o = SignalRef("o")
    circuit = Circuit(
        inputs=set(),
        locals=set(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(Not(o), "o", 1, 1.0), ProductionRule(o, "o", 0, 1.0)],
    )
    svg = render_waveform(execute(circuit, {}, SimConfig(horizon, 0.1)))
    labels = [float(x) for x in re.findall(r'text-anchor="middle">([^<]*)</text>', svg)]
    assert labels[0] == 0.0
    assert labels[-1] == pytest.approx(horizon) and labels[-1] <= horizon


def test_svg_grid_step_of_ten():
    """The grid steps by the least of 1, 2, 5 and 10 times a power of ten
    that is at least a tenth of T: at T=80 none of 1, 2 and 5 is, and the
    step is 10."""
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    svg = render_waveform(execute(circuit, {}, SimConfig(80.0, 0.1)))
    labels = [float(x) for x in re.findall(r'text-anchor="middle">([^<]*)</text>', svg)]
    assert labels == [10.0 * k for k in range(9)]


def test_svg_renders_glitched_trace():
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    base = execute(circuit, {}, SimConfig(32.0, 0.1))
    faulty = execute(circuit, {}, SimConfig(32.0, 0.1), make_transient("c2", 10.0, 0.1, "xpulse", base))
    svg = render_waveform(faulty, monitored=monitored)
    assert 'fill="#e63329"' in svg
    assert "c1 *" in svg and "c3 *" in svg
