"""Command-line behavior: exit codes, outputs, determinism across --jobs."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from faultscope import CircuitInvalid, SimConfig, analysis, cli, netlist, prs, sim
from faultscope.cli import main
from faultscope.generators import PipelineSpec, linear_pipeline
from faultscope.waveform import WAVE_H, X_FILL

INVERTER = """\
circuit inv
inputs i
outputs o
init o = 1
rule i -> o = 0 [1.0]
rule !i -> o = 1 [1.0]
monitor o
"""

TRACE_B = "signal,time,value\ni,0,0\ni,1,1\ni,1.5,0\n"

# an inverter into an AND gate: an input-driven circuit with three injection
# signals, where j low masks faults on a and i
GATE = """\
circuit gate
inputs i j
locals a
outputs o
init a = 1
init o = 0
rule i -> a = 0 [1.0]
rule !i -> a = 1 [1.0]
rule a & j -> o = 1 [1.0]
rule !a | !j -> o = 0 [1.0]
monitor o
"""

TRACE_GATE = "signal,time,value\ni,0,0\ni,3,1\ni,7,0\nj,0,0\nj,5,1\nj,10,0\n"


@pytest.fixture()
def inv_file(tmp_path):
    path = tmp_path / "inv.prs"
    path.write_text(INVERTER)
    return str(path)


@pytest.fixture()
def lin3_file(tmp_path):
    out = tmp_path / "lin3.prs"
    assert main(["generate", "linear", "3", "1", "5", "4", "4", "--out", str(out)]) == 0
    return str(out)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(inv_file, capsys):
    code, out, _ = run(capsys, "validate", "--circuit", inv_file)
    assert code == 0 and out.strip() == "ok"


def test_validate_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.prs"
    bad.write_text("circuit x\noutputs o\ninit o = 5\n")
    code, _, err = run(capsys, "validate", "--circuit", str(bad))
    assert code == 1 and "line 3" in err


def test_validate_semantic_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.prs"
    bad.write_text("circuit x\ninputs a\noutputs s\ninit s = 0\nrule a -> s = 1 [1]\nrule a -> s = 0 [1]\n")
    code, _, err = run(capsys, "validate", "--circuit", str(bad))
    assert code == 2 and "not-exclusive" in err


def test_validate_missing_init_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.prs"
    bad.write_text("circuit x\ninputs a\noutputs s\nrule a -> s = 1 [1]\n")
    code, _, _ = run(capsys, "validate", "--circuit", str(bad))
    assert code == 2


def test_usage_error_exit_1(capsys):
    assert main(["simulate"]) == 1


def test_simulate_reproduces_trace_b(inv_file, tmp_path, capsys):
    traces = tmp_path / "b.csv"
    traces.write_text(TRACE_B)
    out_json = tmp_path / "ev.json"
    code, _, _ = run(
        capsys, "simulate", "--circuit", inv_file, "--traces", str(traces),
        "--until", "4", "--epsilon", "0.1", "--out-json", str(out_json),
    )
    assert code == 0
    events = json.loads(out_json.read_text())["events"]
    o_events = [(e["time"], e["value"]) for e in events if e["signal"] == "o"]
    assert o_events == [(1.5, "X"), (2.5, "1")]


def test_simulate_zero_horizon(inv_file, tmp_path, capsys):
    traces = tmp_path / "b.csv"
    traces.write_text(TRACE_B)
    code, out, _ = run(capsys, "simulate", "--circuit", inv_file, "--traces", str(traces), "--until", "0")
    assert code == 0 and out.startswith("0 events")


def test_inject_landmarks(lin3_file, capsys):
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", "c2@10:0.1", "--until", "32")
    assert code == 0 and out.strip() == "SUSCEPTIBLE"
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", "c2@22:0.1", "--until", "32")
    assert code == 0 and out.strip() == "MASKED"


def test_inject_near_horizon_agrees_with_analyze(lin3_file, capsys):
    # X from this pulse reaches c3 after T; analyze reports en2 [31, 32)
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", "en2@31.5:0.1", "--until", "32")
    assert code == 0 and out.strip() == "SUSCEPTIBLE"


@pytest.mark.parametrize("monitor, p_fail", [("c1,c3", "0.5425"), ("c3", "0.6177083333333333")])
def test_analyze_monitor_flag(lin3_file, capsys, monitor, p_fail):
    # c1,c3 is the netlist's own monitor line, so it gives the same P(fail)
    code, out, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--monitor", monitor)
    assert code == 0 and out == f"P(fail) = {p_fail}\n"


def test_inject_monitor_flag(lin3_file, capsys):
    argv = ["inject", "--circuit", lin3_file, "--until", "32", "--monitor", "c3", "--at", "c2@10:0.1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "SUSCEPTIBLE\n"


@pytest.mark.parametrize("command", [["analyze"], ["inject", "--at", "c2@10:0.1"]])
def test_no_monitored_signals_exit_1(lin3_file, tmp_path, capsys, command):
    # neither a monitor line in the netlist nor --monitor
    path = tmp_path / "nomonitor.prs"
    with open(lin3_file, encoding="utf-8") as fh:
        path.write_text("".join(line for line in fh if not line.startswith("monitor")))
    code, _, err = run(capsys, *command, "--circuit", str(path), "--until", "32")
    assert code == 1 and err.startswith("error: no monitored signals")


def test_missing_circuit_file_exit_3(tmp_path, capsys):
    missing = tmp_path / "missing.prs"
    code, _, err = run(capsys, "validate", "--circuit", str(missing))
    assert code == 3 and err.startswith("error: ") and "missing.prs" in err


def test_inject_past_horizon_exit_3(lin3_file, capsys):
    # a pulse starts in [0, T): one that starts before T and ends after it
    # is probed as analyze probes it, and lies in analyze's en2 window [31, 32)
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", "en2@31.95:0.1", "--until", "32")
    assert code == 0 and out == "SUSCEPTIBLE\n"
    code, out, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "en2@32:0.1", "--until", "32")
    assert code == 3 and out == "" and err == "error: pulse start must be in [0, 32.0), got 32.0\n"


# pulses that end past T get analyze's verdict: c2 at 35.0 lies in analyze's
# window [35.0, 35.05) at T=35.05, and c2 at 1 in its window [0, 4) at γ=40
@pytest.mark.parametrize(
    "at, until, verdict",
    [
        ("c2@31.95:0.1", "32", "MASKED"),
        ("c2@1:40", "32", "SUSCEPTIBLE"),
        ("c2@35:0.1", "35.05", "SUSCEPTIBLE"),
        ("c2@31.999999:0.1", "32", "MASKED"),
    ],
)
def test_inject_pulse_that_ends_past_T(lin3_file, capsys, at, until, verdict):
    code, out, err = run(capsys, "inject", "--circuit", lin3_file, "--at", at, "--until", until)
    assert code == 0 and out == verdict + "\n" and err == ""


# the model's pulse rule: a start in [0, T), a positive, finite width and a
# signal of the circuit; anything else exits 3 before a verdict (a NaN start
# or width and an unknown signal have their own tests)
@pytest.mark.parametrize("at", ["c2@-1:0.1", "c2@32:0.1", "c2@40:0.1", "c2@inf:0.1", "c2@10:0", "c2@10:-0.1", "c2@10:inf"])
def test_inject_outside_the_pulse_rule_exit_3(lin3_file, capsys, at):
    code, out, err = run(capsys, "inject", "--circuit", lin3_file, "--at", at, "--until", "32")
    assert code == 3 and out == "" and err.startswith("error: pulse ")


def test_inject_svg_of_a_pulse_past_the_settle_window(lin3_file, tmp_path, capsys):
    # c2@1:80 ends at 81, past T + settle = 67: the run ends before the
    # restore event, which execute is not handed, so it warns of nothing
    svg = tmp_path / "long.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "inject", "--circuit", lin3_file, "--at", "c2@1:80", "--until", "32", "--out-svg", str(svg)
        )
    assert code == 0 and out == "SUSCEPTIBLE\n" and err == ""
    text = svg.read_text()
    assert text.startswith("<svg") and _x_on_monitored(text)


def test_inject_unknown_signal_exit_3(lin3_file, capsys):
    code, _, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "zz@10:0.1", "--until", "32")
    assert code == 3 and "zz" in err


UNKNOWN_MONITOR = "unknown-signal on nosuch: monitor names an undeclared signal"


def test_unknown_monitor_same_error_everywhere(inv_file, tmp_path, capsys):
    """--monitor, the netlist monitor line and the library name an unknown
    monitored signal with one text, and the CLI exits 2 for both."""
    code, _, err = run(capsys, "analyze", "--circuit", inv_file, "--monitor", "nosuch")
    assert code == 2 and err == f"invalid circuit: {UNKNOWN_MONITOR}\n"
    bad = tmp_path / "bad.prs"
    bad.write_text(INVERTER.replace("monitor o", "monitor nosuch"))
    code, _, err = run(capsys, "validate", "--circuit", str(bad))
    assert code == 2 and err == f"invalid circuit: {UNKNOWN_MONITOR}\n"
    circuit, _ = netlist.parse_circuit(INVERTER)
    traces = netlist.parse_traces(TRACE_B)
    with pytest.raises(CircuitInvalid) as exc:
        analysis.is_susceptible(circuit, traces, {"nosuch"}, analysis.Glitch("i", 1.0, 0.1), SimConfig(4.0, 0.1))
    assert str(exc.value) == UNKNOWN_MONITOR


@pytest.mark.parametrize("then", ["execute", "analyze", "simulate"])
def test_parsed_circuit_is_validated_once(lin3_file, monkeypatch, capsys, then):
    calls = []

    def counted(circuit):
        calls.append(circuit)
        return prs.validate_circuit(circuit)

    for mod in (netlist, sim):
        monkeypatch.setattr(mod, "validate_circuit", counted, raising=False)
    if then == "simulate":
        assert run(capsys, "simulate", "--circuit", lin3_file, "--until", "32")[0] == 0
    else:
        with open(lin3_file, encoding="utf-8") as fh:
            circuit, monitored = netlist.parse_circuit(fh.read())
        if then == "execute":
            sim.execute(circuit, {}, SimConfig(32.0, 0.1))
        else:
            analysis.analyze(circuit, {}, monitored, config=SimConfig(32.0, 0.1))
    assert len(calls) == 1


def _x_on_monitored(svg: str) -> bool:
    """Whether the lane of some monitored signal (label marked " *") has an
    X interval drawn in it."""
    labels = re.findall(r'<text x="[^"]*" y="([^"]*)" text-anchor="end">[^<]* \*</text>', svg)
    x_rects = re.findall(rf'<rect x="[^"]*" y="([^"]*)" width="[^"]*" height="[^"]*" fill="{X_FILL}"', svg)
    return any(float(y) - WAVE_H in {float(r) for r in x_rects} for y in labels)


# the second pulse reaches a monitored signal only after T; the pinned
# bytes are those the pulse read from a full fault-free execution gave
INJECT_SVG_SHA256 = {
    "c2@10:0.1": "bd3d18e7749d018c46dd05a2f5da4346d49297511b61f4552f315d1b93966142",
    "en2@31.5:0.1": "b73048d5cf62becbf84231bce186ef6ff9b9410008885947a65805caeff2009e",
}


@pytest.mark.parametrize("at", sorted(INJECT_SVG_SHA256))
def test_inject_svg(lin3_file, tmp_path, capsys, at):
    svg = tmp_path / "fault.svg"
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", at, "--until", "32", "--out-svg", str(svg))
    assert code == 0 and out.strip() == "SUSCEPTIBLE"
    text = svg.read_text()
    assert text.startswith("<svg")
    # the picture shows the run the verdict came from
    assert _x_on_monitored(text)
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == INJECT_SVG_SHA256[at]


# the drawing the inject benchmark makes (the 4-bit pipeline at T=500), and
# an analysis drawing with windows and monitored labels (linear-3 at T=32)
SIMULATE_MB4_SVG_SHA256 = "40de406719d21541b96b77dc0c1d9a4f8afd7fd8afa2d14cc4e9a7b9c638123c"
ANALYZE_LIN3_SVG_SHA256 = "52ccf8fc3053f473e45e293333d49b022ceb6c9516e2e3ad29e1ce62269c2fdc"


def test_simulate_svg_of_mb4(tmp_path, capsys):
    prs, svg = tmp_path / "mb4.prs", tmp_path / "mb4.svg"
    assert main(["generate", "multibit", "4", "3", "1", "5", "4", "4", "--out", str(prs)]) == 0
    code, out, _ = run(capsys, "simulate", "--circuit", str(prs), "--until", "500", "--out-svg", str(svg))
    assert code == 0 and out == "1546 events until T=500\n"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == SIMULATE_MB4_SVG_SHA256


def test_analyze_svg_of_lin3(lin3_file, tmp_path, capsys):
    svg = tmp_path / "lin3.svg"
    code, out, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--out-svg", str(svg))
    assert code == 0 and out == "P(fail) = 0.5425\n"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == ANALYZE_LIN3_SVG_SHA256


# a non-finite horizon, pulse time, pulse width, gamma or grid step, or a
# zero grid step, fails loudly: no hang, no P(fail), no verdict
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--until", "nan"],
        ["simulate", "--until", "inf"],
        ["inject", "--at", "c2@10:0.1", "--until", "nan"],
        ["analyze", "--until", "nan"],
        ["inject", "--at", "c2@nan:0.1", "--until", "32"],
        ["inject", "--at", "c2@10:nan", "--until", "32"],
        ["analyze", "--gamma", "inf", "--until", "32"],
        ["analyze", "--naive-step", "inf", "--until", "32"],
        ["analyze", "--naive-step", "0", "--until", "32"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_finite_times_exit_3(lin3_file, capsys, argv):
    code, out, err = run(capsys, argv[0], "--circuit", lin3_file, *argv[1:])
    assert code == 3 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_trace_row_with_non_finite_time_rejected(inv_file, tmp_path, capsys, time):
    # before, the row was dropped without a word
    traces = tmp_path / "bad.csv"
    traces.write_text(f"signal,time,value\ni,0,0\ni,5,1\ni,{time},0\n")
    code, out, err = run(capsys, "simulate", "--circuit", inv_file, "--traces", str(traces), "--until", "10")
    assert code == 1 and out == "" and "line 4" in err and "finite" in err


@pytest.mark.parametrize(
    "rows,message",
    [
        ("i,0,0\n", "line 1: trace CSV must start with header 'signal,time,value'"),
        ("signal,time,value\ni,5,1\n", "line 2: trace for 'i' must start with a time-0 row"),
        ("signal,time,value\ni,0,0\ni,5,1\ni,3,0\n", "line 4: trace for 'i' has unsorted or duplicate time 3.0"),
        (
            "# comment\nsignal,time,value\n\ni,0,0\ni,5,1\ni,5,0\n",
            "line 6: trace for 'i' has unsorted or duplicate time 5.0",
        ),
        ("signal,time,value\ni,0,0\ni,5,0\n", "line 3: trace for 'i' does not change its value (0) at time 5.0"),
        ("signal,time,value\ni,0\n", "line 2: expected 'signal,time,value', got 'i,0'"),
        ("signal,time,value\n1i,0,0\n", "line 2: bad signal name '1i'"),
        ("signal,time,value\ni,abc,0\n", "line 2: bad time 'abc'"),
    ],
    ids=["header", "time-0", "unsorted", "duplicate", "no-change", "row", "name", "time"],
)
def test_whole_trace_errors_exit_1_with_line(inv_file, tmp_path, capsys, rows, message):
    # before, the whole-trace errors exited 3 with no line number
    traces = tmp_path / "bad.csv"
    traces.write_text(rows)
    code, out, err = run(capsys, "simulate", "--circuit", inv_file, "--traces", str(traces), "--until", "10")
    assert (code, out, err) == (1, "", f"parse error: {message}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("circuit 1bad\noutputs o\n", "line 1: bad circuit name '1bad'"),
        ("circuit c\noutputs o\ninit o 1\n", "line 3: expected 'init <signal> = 0|1|X'"),
        ("circuit c\noutputs o\ninit 1o = 1\n", "line 3: bad signal name '1o'"),
    ],
    ids=["circuit-name", "init-line", "init-name"],
)
def test_netlist_errors_exit_1_with_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.prs"
    bad.write_text(text)
    assert run(capsys, "validate", "--circuit", str(bad)) == (1, "", f"parse error: {message}\n")


@pytest.mark.parametrize("at", ["c2@10:0.1", "c2@22:0.1", "en2@31.5:0.1"])
def test_inject_flip_agrees_with_library(lin3_file, capsys, at):
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", at, "--until", "32", "--kind", "flip")
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    signal, rest = at.split("@")
    start, width = map(float, rest.split(":"))
    glitch = analysis.Glitch(signal, start, width, analysis.FLIP_PULSE)
    hit = analysis.is_susceptible(circuit, {}, monitored, glitch, SimConfig(32.0, 0.1))
    assert code == 0 and out.strip() == ("SUSCEPTIBLE" if hit else "MASKED")


def test_inject_on_monitored(lin3_file, capsys):
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", "c1@7:0.1", "--until", "32")
    assert out.strip() == "SUSCEPTIBLE"


def test_inject_bad_at_syntax(lin3_file, capsys):
    code, _, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "c2/10", "--until", "32")
    assert code == 1 and "SIGNAL@TIME:WIDTH" in err


# rejected as simulate rejects epsilon 5 (d_min is 1), not hung or reported
@pytest.mark.parametrize(
    "flags",
    [
        ("--delta", "0"),
        ("--gamma", "0"),
        ("--epsilon", "5"),
        ("--epsilon", "5", "--jobs", "2"),
        ("--naive-step", "0.5", "--gamma", "0"),
        ("--naive-step", "0.5", "--epsilon", "5"),
    ],
)
def test_analyze_bad_parameters_exit_3(lin3_file, capsys, flags):
    code, out, err = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", *flags)
    assert code == 3 and out == "" and err


def test_inject_and_simulate_bad_epsilon_exit_3(lin3_file, capsys):
    code, out, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "c2@10:0.1", "--until", "32", "--epsilon", "5")
    assert code == 3 and out == "" and "epsilon" in err
    code, out, err = run(capsys, "simulate", "--circuit", lin3_file, "--until", "32", "--epsilon", "5")
    assert code == 3 and out == "" and "epsilon" in err


def test_analyze_prints_p_fail(lin3_file, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    svg = tmp_path / "rep.svg"
    code, out, _ = run(
        capsys, "analyze", "--circuit", lin3_file, "--until", "32",
        "--out-json", str(rep), "--out-svg", str(svg),
    )
    assert code == 0
    assert abs(float(out.split("=")[1]) - 0.54375) <= 0.01
    obj = json.loads(rep.read_text())
    assert obj["config"]["T"] == 32.0
    assert svg.read_text().startswith("<svg")


def test_analyze_lists_prefix_regions_in_the_report(lin3_file, tmp_path):
    """The installed command puts the prefix-shaped regions into the report
    and prints only the P(fail) line, with nothing on stderr."""
    src = os.path.dirname(os.path.dirname(analysis.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    rep = tmp_path / "rep.json"
    done = subprocess.run(
        [sys.executable, "-m", "faultscope", "analyze", "--circuit", lin3_file, "--until", "32", "--out-json", str(rep)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "P(fail) = 0.5425\n", "")
    assert json.loads(rep.read_text())["postfix_violations"] == [
        {"signal": "c2", "start": 19.0, "end": 20.0},
        {"signal": "c2", "start": 30.0, "end": 31.0},
    ]


def test_sweep_output_does_not_depend_on_jobs():
    """``--jobs 2`` prints what ``--jobs 1`` does, and neither writes to
    stderr."""
    src = os.path.dirname(os.path.dirname(analysis.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["sweep", "--generator", "linear", "--set", "stages=3", "--sweep", "source_delay=4,4.0", "--until", "32"]
    one, two = (
        subprocess.run(
            [sys.executable, "-m", "faultscope", *argv, "--jobs", jobs],
            env=env, capture_output=True, text=True, timeout=120,
        )
        for jobs in ("1", "2")
    )
    assert (one.returncode, one.stdout, one.stderr) == (0, "source_delay,p_fail\n4,0.5425\n4,0.5425\n", "")
    assert (two.returncode, two.stdout, two.stderr) == (one.returncode, one.stdout, one.stderr)


def test_analyze_naive_step_agrees(lin3_file, capsys):
    _, out_b, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32")
    _, out_n, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--naive-step", "0.25")
    pb = float(out_b.split("=")[1])
    pn = float(out_n.splitlines()[0].split("=")[1])
    assert abs(pb - pn) <= 0.05


def test_analyze_weights_uniform(lin3_file, tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("src = 1\nc2 = 1\nen1 = 1\nen2 = 1\nen3 = 1\n")
    code, out, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--weights", str(wfile))
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 2
    assert abs(float(lines[0].split("=")[1]) - float(lines[1].split("=")[1])) < 1e-9


@pytest.mark.parametrize("w", ["nan", "inf"])
def test_analyze_non_finite_weight_exit_3(lin3_file, tmp_path, capsys, w):
    wfile = tmp_path / "w.txt"
    wfile.write_text(f"src = 1\nc2 = {w}\nen1 = 1\nen2 = 1\nen3 = 1\n")
    code, out, err = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--weights", str(wfile))
    assert code == 3 and "weighted" not in out and "finite" in err


UNIFORM_WEIGHTS = "src = 1\nc2 = 1\nen1 = 1\nen2 = 1\nen3 = 1\n"


@pytest.mark.parametrize(
    "weights,flags,why",
    [
        ("src = 1\n", [], "weights missing for: c2, en1, en2, en3"),
        (UNIFORM_WEIGHTS.replace("c2 = 1", "c2 = -1"), [], "nonnegative and finite"),
        ("src = 0\nc2 = 0\nen1 = 0\nen2 = 0\nen3 = 0\n", [], "total weight is zero"),
        ("src 1\n", [], "expected 'signal = weight'"),
        # the monitored c1 and c3 are injected too, and have no weight
        (UNIFORM_WEIGHTS, ["--include-monitored"], "weights missing for: c1, c3"),
        (UNIFORM_WEIGHTS.replace("c2 = 1", "c2 = abc"), [], "weights line 2: weight 'abc' is not a number"),
        (UNIFORM_WEIGHTS + "# no name\n= 4\n", [], "weights line 7: expected 'signal = weight'"),
        (UNIFORM_WEIGHTS + "en3 = 9\n", [], "weights line 6: 'en3' has a weight already"),
        ("nosuch = 7\n" + UNIFORM_WEIGHTS, [], "weights line 1: 'nosuch' is not a signal of the circuit"),
    ],
    ids=[
        "missing",
        "negative",
        "zero-total",
        "syntax",
        "monitored-injected",
        "not-a-number",
        "no-name",
        "repeated",
        "not-a-signal",
    ],
)
def test_analyze_bad_weights_fail_before_the_analysis(lin3_file, tmp_path, capsys, weights, flags, why):
    """A weights file that does not fit the injection set exits 3 before the
    analysis runs: nothing on stdout, no report and no picture written."""
    wfile = tmp_path / "w.txt"
    wfile.write_text(weights)
    rep, svg = tmp_path / "r.json", tmp_path / "r.svg"
    argv = ["--weights", str(wfile), "--out-json", str(rep), "--out-svg", str(svg), *flags]
    code, out, err = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", *argv)
    assert code == 3 and out == "" and why in err
    assert not rep.exists() and not svg.exists()


def test_generate_outputs_monitor_line(capsys):
    code, out, _ = run(capsys, "generate", "linear", "3")
    assert code == 0 and "monitor c1 c3" in out


def test_generate_ring_no_bubble_exit_2(capsys):
    code, _, err = run(capsys, "generate", "ring", "4", "2")
    assert code == 2 and "bubble" in err


def test_generate_ring_too_few_stages_exit_2(capsys):
    code, _, err = run(capsys, "generate", "ring", "2")
    assert code == 2 and err == "invalid circuit: a ring needs at least 3 stages, got 2\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ring", "20", "1", "0", "5"], "inv_delay must be positive"),
        (["multibit", "2", "0"], "need at least one stage, got 0"),
        (["multibit", "2", "3", "1", "0"], "mce_delay must be positive"),
    ],
)
def test_generate_bad_spec_exit_2(capsys, argv, message):
    assert run(capsys, "generate", *argv) == (2, "", f"invalid circuit: {message}\n")


def test_generate_multibit_odd_bit_count(tmp_path, capsys):
    # 3 bits: each completion tree pairs two bits and carries the third up a level
    path = tmp_path / "mb3.prs"
    assert main(["generate", "multibit", "3", "3", "1", "5", "4", "4", "--out", str(path)]) == 0
    assert run(capsys, "validate", "--circuit", str(path)) == (0, "ok\n", "")
    assert run(capsys, "simulate", "--circuit", str(path), "--until", "100") == (0, "218 events until T=100\n", "")


def test_generate_multibit_single_bit(capsys):
    code, out, _ = run(capsys, "generate", "multibit", "1")
    assert code == 0 and "cd1" in out


def test_generate_unknown_param_count(capsys):
    code, _, _ = run(capsys, "generate", "linear", "3", "1", "5", "4", "4", "9")
    assert code == 1


@pytest.mark.parametrize("tokens", ["1.5", "abc", "inf"])
def test_generate_int_field_rejects_non_integer(capsys, tokens):
    code, out, err = run(capsys, "generate", "ring", "8", tokens)
    assert code == 1 and out == "" and f"ring parameter 'tokens' must be an integer, got {tokens}" in err


def test_float_field_rejects_non_number(tmp_path, capsys):
    spec = tmp_path / "delay.spec"
    spec.write_text("generator = linear\ninv_delay = abc\n[sweep.stages]\nvalues = 3\n")
    message = "error: linear parameter 'inv_delay' must be a number, got abc\n"
    for argv in (
        ["generate", "linear", "3", "abc"],
        ["sweep", "--generator", "linear", "--set", "inv_delay=abc", "--sweep", "stages=3", "--until", "10"],
        ["sweep", "--spec", str(spec)],
    ):
        assert run(capsys, *argv) == (1, "", message), argv


def test_generate_int_field_accepts_integral_decimal(capsys):
    assert run(capsys, "generate", "ring", "8", "2.0") == run(capsys, "generate", "ring", "8", "2")


def test_sweep_int_field_rejects_fraction(capsys):
    """A fractional swept value for an int field is a usage error before any
    point is analyzed; it used to run the 1-token ring for both rows."""
    for argv in (["--set", "stages=8", "--sweep", "tokens=1,1.5"], ["--set", "stages=8.5", "--sweep", "tokens=1"]):
        code, out, err = run(capsys, "sweep", "--generator", "ring", *argv, "--until", "20")
        assert code == 1 and out == "" and "must be an integer" in err, argv


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--set", "stages", "--sweep", "tokens=1"], "--set expects PARAM=VALUE, got 'stages'"),
        (["--set", "stages=8", "--sweep", "tokens"], "--sweep expects PARAM=VALUE, got 'tokens'"),
    ],
    ids=["set", "sweep"],
)
def test_sweep_flag_without_equals_is_usage_error(capsys, argv, message):
    # before, these exited 3 with Python's unpacking error
    code, out, err = run(capsys, "sweep", "--generator", "ring", *argv, "--until", "20")
    assert code == 1 and out == "" and message in err


def test_sweep_csv_deterministic_across_jobs(tmp_path, capsys):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep{jobs}.csv"
        code = main([
            "sweep", "--generator", "linear", "--set", "stages=3",
            "--sweep", "source_delay=1,4", "--sweep", "sink_delay=4",
            "--until", "40", "--delta", "0.05", "--jobs", jobs, "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.splitlines()[0] == "source_delay,sink_delay,p_fail"
    assert len(text.strip().splitlines()) == 3


def test_sweep_spec_file(tmp_path, capsys):
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "generator = ring\nstages = 6\nT = 60\ndelta = 0.05\n"
        "[sweep.tokens]\nvalues = 1 2\n"
    )
    out = tmp_path / "ring.csv"
    code = main(["sweep", "--spec", str(spec), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tokens,p_fail,throughput"
    assert len(lines) == 3


def test_sweep_single_point_equals_analyze(lin3_file, tmp_path, capsys):
    out = tmp_path / "one.csv"
    code = main([
        "sweep", "--generator", "linear", "--set", "stages=3", "--sweep", "source_delay=4",
        "--until", "32", "--delta", "0.01", "--out", str(out),
    ])
    assert code == 0
    p_sweep = float(out.read_text().strip().splitlines()[1].split(",")[1])
    _, out_a, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32")
    assert p_sweep == float(out_a.split("=")[1])


def test_analyze_jobs_deterministic(lin3_file, tmp_path, capsys, monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", CountingPool)
    gate = tmp_path / "gate.prs"
    gate.write_text(GATE)
    traces = tmp_path / "gate.csv"
    traces.write_text(TRACE_GATE)
    cases = {
        "lin3": [lin3_file, "--until", "32"],
        "traces": [str(gate), "--traces", str(traces), "--until", "12"],
    }
    for name, argv in cases.items():
        reports = []
        for jobs in ("1", "2"):
            rep = tmp_path / f"{name}{jobs}.json"
            code = main(["analyze", "--circuit", *argv, "--jobs", jobs, "--out-json", str(rep)])
            assert code == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1], name
    # both --jobs 2 analyses ran on a pool, the one with --traces included
    assert len(pools) == 2


def test_sweep_pool_has_at_most_one_worker_per_point(tmp_path, capsys, monkeypatch):
    """A pool forks all its workers at the first task, so the sweep asks for
    no more workers than it has points, and runs one point in-process."""
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    flags = ["sweep", "--generator", "linear", "--set", "stages=3", "--until", "20", "--delta", "0.1"]
    outs = []
    for points, jobs in (("4", "3"), ("4,5", "3"), ("4,5", "1")):
        code, out, _ = run(capsys, *flags, "--sweep", f"source_delay={points}", "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert pools == [2]
    assert outs[1] == outs[2]


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    out = capsys.readouterr().out
    for default in (SimConfig.horizon, SimConfig.epsilon, analysis.DEFAULT_GAMMA, analysis.DEFAULT_DELTA):
        assert f"(default {default})" in out


def test_presets_parse():
    import pathlib

    from faultscope.cli import parse_sweep_spec

    for path in sorted(pathlib.Path(__file__).parent.parent.glob("presets/*.spec")):
        spec = parse_sweep_spec(path.read_text())
        assert spec["generator"] in ("linear", "ring", "multibit")
        assert 1 <= len(spec["sweeps"]) <= 2
        assert all(s["values"] for s in spec["sweeps"])


def test_jobs_env_default(monkeypatch, capsys):
    monkeypatch.setenv("FAULTSCOPE_JOBS", "3")
    from faultscope.cli import build_parser

    args = build_parser().parse_args(["analyze", "--circuit", "x"])
    assert args.jobs == 3


@pytest.mark.parametrize("command", [
    ["analyze", "--circuit", "x.prs"],
    ["sweep", "--generator", "linear", "--sweep", "stages=3"],
])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_must_be_positive_integer(capsys, command, jobs):
    code, _, err = run(capsys, *command, "--jobs", jobs)
    assert code == 1 and "positive integer" in err


def test_jobs_env_must_be_positive_integer(monkeypatch, capsys):
    monkeypatch.setenv("FAULTSCOPE_JOBS", "abc")
    code, _, err = run(capsys, "analyze", "--circuit", "x.prs")
    assert code == 1 and "FAULTSCOPE_JOBS" in err


# --- sweep ranges -----------------------------------------------------------------

DECIMAL_RANGE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0]


def test_sweep_range_is_exact_and_inclusive():
    from faultscope.cli import _parse_sweep_values

    assert _parse_sweep_values("1:2:0.1") == DECIMAL_RANGE
    assert _parse_sweep_values("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]
    assert _parse_sweep_values("2:2:1") == [2.0]


def test_spec_range_matches_flag_range():
    from faultscope.cli import parse_sweep_spec

    spec = parse_sweep_spec("generator = linear\n[sweep.source_delay]\nfrom = 1\nto = 2\nstep = 0.1\n")
    assert spec["sweeps"] == [{"name": "source_delay", "values": DECIMAL_RANGE}]


def _spec_file(tmp_path, sweep_lines):
    path = tmp_path / "range.spec"
    path.write_text("generator = linear\nT = 10\n[sweep.stages]\n" + sweep_lines)
    return str(path)


def test_empty_range_is_usage_error(tmp_path, capsys):
    spec = _spec_file(tmp_path, "from = 3\nto = 1\nstep = 1\n")
    flags = ["--generator", "linear", "--until", "10", "--sweep"]
    for argv in ([*flags, "stages=3:1:1"], [*flags, "stages="], ["--spec", spec]):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 1 and "has no values" in err and out == "", argv


def test_sweep_count_checked_for_spec_file(tmp_path, capsys):
    path = tmp_path / "none.spec"
    path.write_text("generator = linear\nstages = 3\n")
    code, _, err = run(capsys, "sweep", "--spec", str(path))
    assert code == 1 and "one or two swept parameters" in err


def test_sweeping_a_parameter_twice_is_usage_error(tmp_path, capsys):
    """Two sweeps of one parameter used to print a header naming it twice
    and rows whose first value was overridden by the second."""
    spec = tmp_path / "twice.spec"
    spec.write_text("generator = ring\nstages = 6\n[sweep.tokens]\nvalues = 1 2\n[sweep.tokens]\nvalues = 1 2\n")
    flags = ["--generator", "ring", "--set", "stages=6", "--sweep", "tokens=1,2", "--sweep", "tokens=1,2"]
    for argv in (flags, ["--spec", str(spec)]):
        code, out, err = run(capsys, "sweep", *argv, "--until", "20")
        assert (code, out, err) == (1, "", "error: sweep parameter 'tokens' is swept twice\n"), argv


def test_parameter_both_set_and_swept_is_usage_error(tmp_path, capsys):
    """A parameter given a fixed value and swept used to run the sweep with
    the fixed value silently dropped, one row per swept value."""
    spec = tmp_path / "both.spec"
    spec.write_text("generator = linear\nstages = 3\n[sweep.stages]\nvalues = 2\n")
    flags = ["--generator", "linear", "--set", "stages=3", "--sweep", "stages=2"]
    for argv in (flags, ["--spec", str(spec)]):
        code, out, err = run(capsys, "sweep", *argv, "--until", "10")
        assert (code, out, err) == (1, "", "error: sweep parameter 'stages' is both set and swept\n"), argv


@pytest.mark.parametrize(
    "text,message",
    [
        ("generator = linear\n[sweep stages]\n", "line 2: expected [sweep.<param>] section"),
        ("generator = linear\nstages 3\n", "line 2: expected key = value"),
        ("generator = linear\n[sweep.stages]\nvalue = 1 2\n", "line 3: unknown sweep key 'value'"),
        ("generator = linear\n[sweep.stages]\nfrom = 1\nto = 3\n", "sweep 'stages' needs values or from/to/step"),
        ("stages = 3\n[sweep.T]\nvalues = 10\n", "sweep spec needs a generator"),
        ("generator = linear\nT = abc\n[sweep.stages]\nvalues = 3\n", "line 2: expected a number, got 'abc'"),
        ("generator = linear\n[sweep.stages]\nvalues = 1,x\n", "line 3: expected a number, got 'x'"),
        ("generator = linear\n[sweep.stages]\nvalues = 1:3\n", "line 3: expected FROM:TO:STEP, got '1:3'"),
        ("generator = linear\n[sweep.stages]\nfrom = 1\nto = three\nstep = 1\n",
         "line 4: expected a number, got 'three'"),
        ("generator = linear\nsource_delay = 3\nsource_delay = 4\n[sweep.stages]\nvalues = 3\n",
         "line 3: key 'source_delay' is set twice"),
        ("generator = linear\n[sweep.stages]\nvalues = 3\nvalues = 4\n", "line 4: key 'values' is set twice"),
        ("generator = linear\n[sweep.stages]\nfrom = 1\nto = 3\nfrom = 2\nstep = 1\n",
         "line 5: key 'from' is set twice"),
        ("generator = linear\n[sweep.stages]\nvalues = 2\nfrom = 3\nto = 4\nstep = 1\n",
         "line 4: sweep 'stages' sets both values and from/to/step"),
        ("generator = linear\n[sweep.stages]\nto = 4\nvalues = 2\n",
         "line 4: sweep 'stages' sets both values and from/to/step"),
        ("generator = linear\n[sweep.stages]\nvalues = 2\n[sweep.T]\nvalues = 10\nstep = 1\n",
         "line 6: sweep 'T' sets both values and from/to/step"),
    ],
    ids=[
        "section", "no-equals", "sweep-key", "no-values", "no-generator", "T", "values", "range", "to",
        "repeated-param", "repeated-values", "repeated-from", "values-then-range", "range-then-values",
        "values-and-step",
    ],
)
def test_sweep_spec_errors(tmp_path, capsys, text, message):
    """A malformed spec file is a parse error: exit 1."""
    from faultscope.cli import parse_sweep_spec

    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        parse_sweep_spec(text)
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    assert run(capsys, "sweep", "--spec", str(spec)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--generator", "linear"], "sweep needs --spec FILE, or --generator plus at least one --sweep"),
        (["--generator", "linear", "--set", "nosuch=1", "--sweep", "stages=3"],
         "unknown linear parameter 'nosuch' (expected stages, inv_delay, mce_delay, source_delay, sink_delay)"),
        (["--generator", "linear", "--sweep", "stages=1:3:0"], "sweep step must be positive in 1:3:0"),
        (["--generator", "linear", "--sweep", "stages=3:1:-1"], "sweep step must be positive in 3:1:-1"),
        (["--generator", "linear", "--sweep", "stages=1,x"], "expected a number, got 'x'"),
        (["--generator", "linear", "--sweep", "stages=1:3"], "expected FROM:TO:STEP, got '1:3'"),
        (["--generator", "linear", "--set", "source_delay=3", "--set", "source_delay=4", "--sweep", "stages=3"],
         "--set sets 'source_delay' twice"),
        (["--generator", "ring", "--sweep", "tokens=1,2"], "missing ring parameter 'stages'"),
    ],
    ids=[
        "no-source", "unknown-parameter", "zero-step", "negative-step", "not-a-number", "not-a-range", "repeated-set",
        "missing-parameter",
    ],
)
def test_sweep_usage_errors(capsys, argv, message):
    assert run(capsys, "sweep", *argv, "--until", "10") == (1, "", f"error: {message}\n")


def test_generate_missing_parameter(tmp_path, capsys):
    """A generator parameter with no default must be given, on the command
    line or in a spec file."""
    spec = tmp_path / "ring.spec"
    spec.write_text("generator = ring\n[sweep.tokens]\nvalues = 1\n")
    for argv in (["generate", "ring"], ["sweep", "--spec", str(spec), "--until", "10"]):
        assert run(capsys, *argv) == (1, "", "error: missing ring parameter 'stages'\n"), argv


def test_sweep_checks_every_point_before_the_first_analysis(capsys, monkeypatch):
    """A point its generator rejects fails the sweep before any point is
    analyzed, wherever it lies in the grid."""
    calls = 0
    analyze = analysis.analyze

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return analyze(*args, **kwargs)

    monkeypatch.setattr(analysis, "analyze", counted)
    argv = ["sweep", "--generator", "ring", "--set", "stages=20", "--sweep", "tokens=1,10", "--until", "2000"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "no bubble" in err
    assert calls == 0


def test_sweep_unknown_generator_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "gen.spec"
    spec.write_text("generator = nosuch\n[sweep.stages]\nvalues = 3\n")
    assert run(capsys, "sweep", "--spec", str(spec)) == (1, "", "error: unknown generator 'nosuch'\n")


@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_non_finite_range_exits_3(tmp_path, capsys, bound):
    code, _, err = run(capsys, "sweep", "--generator", "linear", "--sweep", f"stages=1:{bound}:1", "--until", "10")
    assert code == 3 and bound in err
    spec = _spec_file(tmp_path, f"from = 1\nto = {bound}\nstep = 1\n")
    code, _, err = run(capsys, "sweep", "--spec", spec)
    assert code == 3 and bound in err


# sha256 of the generated netlists, default and non-default parameters
GENERATED_SHA256 = {
    ("linear",): "fa72ae4ab6bbf27b2c983a288e46646820500889e1b1fadfdc07441352cba11c",
    ("linear", "4", "0.5"): "161368f717c574d1b390cc52d73114a884ffb407e0ac1b7e3e66fbb3e476b320",
    ("ring", "7"): "03288a9f15bd48314cc04c94f3e28466c40851d982405abc64b328146526b8f8",
    ("ring", "12", "3"): "203a6ef3382a40f9c29bec7432a5119c87b59c8d1703f27b2acda0b77e6587c2",
    ("multibit",): "14d5990add3e3dd0e3986f756830eaecc1b9339cdc6c8e15c77918e52677bd71",
    ("multibit", "4", "2", "1", "5", "4", "4"): "ce87a13636f3c724ce7534b66b429abd60cdea3c45999d77862582ff03a05cb7",
}


@pytest.mark.parametrize("argv", sorted(GENERATED_SHA256))
def test_generate_bytes_pinned(capsys, argv):
    code, out, _ = run(capsys, "generate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATED_SHA256[argv]
