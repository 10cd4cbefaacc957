"""Command-line behavior: exit codes, outputs, determinism across --jobs."""

import json
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from faultscope import analysis
from faultscope.cli import main
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


def test_inject_past_horizon_exit_3(lin3_file, capsys):
    code, out, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "en2@31.95:0.1", "--until", "32")
    assert code == 3 and out == "" and "not within" in err


def test_inject_unknown_signal_exit_3(lin3_file, capsys):
    code, _, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "zz@10:0.1", "--until", "32")
    assert code == 3 and "zz" in err


def _x_on_monitored(svg: str) -> bool:
    """Whether the lane of some monitored signal (label marked " *") has an
    X interval drawn in it."""
    labels = re.findall(r'<text x="[^"]*" y="([^"]*)" text-anchor="end">[^<]* \*</text>', svg)
    x_rects = re.findall(rf'<rect x="[^"]*" y="([^"]*)" width="[^"]*" height="[^"]*" fill="{X_FILL}"', svg)
    return any(float(y) - WAVE_H in {float(r) for r in x_rects} for y in labels)


# the second pulse reaches a monitored signal only after T
@pytest.mark.parametrize("at", ["c2@10:0.1", "en2@31.5:0.1"])
def test_inject_svg(lin3_file, tmp_path, capsys, at):
    svg = tmp_path / "fault.svg"
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", at, "--until", "32", "--out-svg", str(svg))
    assert code == 0 and out.strip() == "SUSCEPTIBLE"
    text = svg.read_text()
    assert text.startswith("<svg")
    # the picture shows the run the verdict came from
    assert _x_on_monitored(text)


def test_inject_on_monitored(lin3_file, capsys):
    code, out, _ = run(capsys, "inject", "--circuit", lin3_file, "--at", "c1@7:0.1", "--until", "32")
    assert out.strip() == "SUSCEPTIBLE"


def test_inject_bad_at_syntax(lin3_file, capsys):
    code, _, err = run(capsys, "inject", "--circuit", lin3_file, "--at", "c2/10", "--until", "32")
    assert code == 1 and "SIGNAL@TIME:WIDTH" in err


def test_analyze_prints_p_fail(lin3_file, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    svg = tmp_path / "rep.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(
            capsys, "analyze", "--circuit", lin3_file, "--until", "32",
            "--out-json", str(rep), "--out-svg", str(svg),
        )
    assert code == 0
    assert abs(float(out.split("=")[1]) - 0.54375) <= 0.01
    obj = json.loads(rep.read_text())
    assert obj["config"]["T"] == 32.0
    assert svg.read_text().startswith("<svg")


def test_analyze_naive_step_agrees(lin3_file, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, out_b, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32")
        _, out_n, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--naive-step", "0.25")
    pb = float(out_b.split("=")[1])
    pn = float(out_n.splitlines()[0].split("=")[1])
    assert abs(pb - pn) <= 0.05


def test_analyze_weights_uniform(lin3_file, tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("src = 1\nc2 = 1\nen1 = 1\nen2 = 1\nen3 = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(capsys, "analyze", "--circuit", lin3_file, "--until", "32", "--weights", str(wfile))
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 2
    assert abs(float(lines[0].split("=")[1]) - float(lines[1].split("=")[1])) < 1e-9


def test_generate_outputs_monitor_line(capsys):
    code, out, _ = run(capsys, "generate", "linear", "3")
    assert code == 0 and "monitor c1 c3" in out


def test_generate_ring_no_bubble_exit_2(capsys):
    code, _, err = run(capsys, "generate", "ring", "4", "2")
    assert code == 2 and "bubble" in err


def test_generate_multibit_single_bit(capsys):
    code, out, _ = run(capsys, "generate", "multibit", "1")
    assert code == 0 and "cd1" in out


def test_generate_unknown_param_count(capsys):
    code, _, _ = run(capsys, "generate", "linear", "3", "1", "5", "4", "4", "9")
    assert code == 1


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["analyze", "--circuit", *argv, "--jobs", jobs, "--out-json", str(rep)])
            assert code == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1], name
    # both --jobs 2 analyses ran on a pool, the one with --traces included
    assert len(pools) == 2


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    out = capsys.readouterr().out
    assert "0.1" in out and "0.01" in out


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
