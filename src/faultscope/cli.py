"""Command-line interface: validate, simulate, inject, analyze, generate, sweep.

Exit codes: 0 success, 1 usage or parse error, 2 semantic/validation error,
3 runtime failure.  All commands are deterministic for fixed flags, including
any ``--jobs`` setting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import analysis, netlist, waveform
from .sim import CircuitInvalid, SimConfig, execute
from .generators import (
    GenerationError,
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    measure_throughput,
    multibit_linear_pipeline,
    ring_pipeline,
)

DEFAULT_EPSILON = analysis.DEFAULT_EPSILON
DEFAULT_GAMMA = analysis.DEFAULT_GAMMA
DEFAULT_DELTA = analysis.DEFAULT_DELTA


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jobs_default() -> int:
    try:
        return max(1, int(os.environ.get("FAULTSCOPE_JOBS", "1")))
    except ValueError:
        return 1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_circuit(path: str):
    return netlist.parse_circuit(_read(path))


def _load_traces(path: str | None):
    return netlist.parse_traces(_read(path)) if path else {}


def _monitor_set(arg, declared, circuit):
    if arg:
        names = [n for n in arg.split(",") if n]
        unknown = sorted(set(names) - circuit.signals)
        if unknown:
            raise CircuitInvalid(
                [f"monitor names unknown signals: {', '.join(unknown)}"]
            )
        return frozenset(names)
    if declared:
        return frozenset(declared)
    raise UsageError("no monitored signals: pass --monitor or add a 'monitor' line to the netlist")


# --- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    netlist.parse_circuit(_read(args.circuit))
    print("ok")
    return 0


def cmd_simulate(args) -> int:
    circuit, _ = _load_circuit(args.circuit)
    traces = _load_traces(args.traces)
    config = SimConfig(horizon=args.until, epsilon=args.epsilon)
    execution = execute(circuit, traces, config)
    if args.out_svg:
        _write(args.out_svg, waveform.render_waveform(execution))
    if args.out_json:
        obj = {
            "horizon": execution.horizon,
            "events": [
                {"time": e.time, "signal": e.signal, "value": str(e.value), "cause": e.cause}
                for e in execution.events
            ],
        }
        _write(args.out_json, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    print(f"{len(execution.events)} events until T={args.until:g}")
    return 0


def _parse_at(text: str):
    try:
        signal, rest = text.split("@", 1)
        time_s, width_s = rest.split(":", 1)
        return signal, float(time_s), float(width_s)
    except ValueError:
        raise UsageError(f"--at expects SIGNAL@TIME:WIDTH, got {text!r}") from None


def cmd_inject(args) -> int:
    circuit, declared = _load_circuit(args.circuit)
    traces = _load_traces(args.traces)
    monitored = _monitor_set(args.monitor, declared, circuit)
    signal, at, width = _parse_at(args.at)
    config = SimConfig(horizon=args.until, epsilon=args.epsilon)
    glitch = analysis.Glitch(signal, at, width, args.kind)
    hit = analysis.is_susceptible(circuit, traces, monitored, glitch, config)
    if args.out_svg:
        faulty = analysis.faulty_execution(circuit, traces, glitch, config)
        _write(args.out_svg, waveform.render_waveform(faulty, monitored=monitored))
    print("SUSCEPTIBLE" if hit else "MASKED")
    return 0


def cmd_analyze(args) -> int:
    circuit, declared = _load_circuit(args.circuit)
    traces = _load_traces(args.traces)
    monitored = _monitor_set(args.monitor, declared, circuit)
    config = SimConfig(horizon=args.until, epsilon=args.epsilon)
    common = dict(
        gamma=args.gamma,
        config=config,
        include_monitored=args.include_monitored,
    )
    if args.naive_step:
        report = analysis.analyze_naive(circuit, traces, monitored, step=args.naive_step, **common)
    else:
        report = analysis.analyze(circuit, traces, monitored, delta=args.delta, jobs=args.jobs, **common)
    if args.out_json:
        _write(args.out_json, netlist.write_report(report))
    if args.out_svg:
        execution = execute(circuit, traces, config)
        _write(args.out_svg, waveform.render_waveform(execution, report.windows, monitored))
    print(f"P(fail) = {report.p_fail!r}")
    if args.weights:
        weights = _parse_weights(_read(args.weights))
        print(f"P(fail, weighted) = {analysis.p_fail_weighted(report, weights)!r}")
    return 0


def _parse_weights(text: str) -> dict:
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"weights line {lineno}: expected 'signal = weight'")
        name, value = (p.strip() for p in line.split("=", 1))
        weights[name] = float(value)
    return weights


_GENERATORS = {
    "linear": (PipelineSpec, linear_pipeline, ("stages", "inv_delay", "mce_delay", "source_delay", "sink_delay")),
    "ring": (RingSpec, ring_pipeline, ("stages", "tokens", "inv_delay", "mce_delay")),
    "multibit": (MultiBitSpec, multibit_linear_pipeline, ("bits", "stages", "inv_delay", "mce_delay", "source_delay", "sink_delay")),
}


def _build_generated(kind: str, params: dict):
    spec_cls, fn, fields = _GENERATORS[kind]
    kwargs = {}
    for name, value in params.items():
        if name not in fields:
            raise UsageError(f"unknown {kind} parameter {name!r} (expected {', '.join(fields)})")
        kwargs[name] = int(value) if name in ("stages", "tokens", "bits") else float(value)
    return fn(spec_cls(**kwargs))


def cmd_generate(args) -> int:
    _, _, fields = _GENERATORS[args.kind]
    if len(args.params) > len(fields):
        raise UsageError(f"{args.kind} takes at most {len(fields)} positional parameters ({', '.join(fields)})")
    params = dict(zip(fields, args.params))
    circuit, monitored = _build_generated(args.kind, params)
    text = netlist.serialize_circuit(circuit, monitored)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# --- sweep ------------------------------------------------------------------------


def _parse_sweep_values(text: str):
    text = text.strip()
    if ":" in text:
        lo, hi, step = (float(p) for p in text.split(":"))
        if step <= 0:
            raise UsageError(f"sweep step must be positive in {text!r}")
        out = []
        v = lo
        while v <= hi + 1e-9:
            out.append(v)
            v += step
        return out
    return [float(p) for p in text.replace(",", " ").split()]


def parse_sweep_spec(text: str) -> dict:
    """Plain key=value lines with [sweep.<param>] sections."""
    spec = {"params": {}, "sweeps": []}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.endswith("]") and line.startswith("[sweep.")):
                raise ValueError(f"line {lineno}: expected [sweep.<param>] section")
            section = {"name": line[len("[sweep."):-1], "values": None, "from": None, "to": None, "step": None}
            spec["sweeps"].append(section)
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (p.strip() for p in line.split("=", 1))
        if section is None:
            if key in ("generator",):
                spec["generator"] = value
            elif key in ("T", "epsilon", "gamma", "delta"):
                spec[key] = float(value)
            else:
                spec["params"][key] = value
        else:
            if key == "values":
                section["values"] = _parse_sweep_values(value)
            elif key in ("from", "to", "step"):
                section[key] = float(value)
            else:
                raise ValueError(f"line {lineno}: unknown sweep key {key!r}")
    for section in spec["sweeps"]:
        if section["values"] is None:
            if None in (section["from"], section["to"], section["step"]):
                raise ValueError(f"sweep {section['name']!r} needs values or from/to/step")
            section["values"] = _parse_sweep_values(f"{section['from']}:{section['to']}:{section['step']}")
        if not section["values"]:
            raise ValueError(f"sweep {section['name']!r} has no values")
    if "generator" not in spec:
        raise ValueError("sweep spec needs a generator")
    if not 1 <= len(spec["sweeps"]) <= 2:
        raise ValueError("sweep needs one or two swept parameters")
    return spec


def _sweep_point(kind, params, T, epsilon, gamma, delta):
    circuit, monitored = _build_generated(kind, params)
    config = SimConfig(horizon=T, epsilon=epsilon)
    report = analysis.analyze(circuit, {}, monitored, gamma=gamma, delta=delta, config=config)
    row = {"p_fail": report.p_fail}
    if kind == "ring":
        execution = execute(circuit, {}, config)
        row["throughput"] = measure_throughput(execution, "c1", float(params.get("inv_delay", 1.0)))
    return row


def cmd_sweep(args) -> int:
    if args.spec:
        spec = parse_sweep_spec(_read(args.spec))
    else:
        if not args.generator or not args.sweep:
            raise UsageError("sweep needs --spec FILE, or --generator plus at least one --sweep")
        spec = {
            "generator": args.generator,
            "params": dict(kv.split("=", 1) for kv in (args.set or [])),
            "sweeps": [
                {"name": name, "values": _parse_sweep_values(vals)}
                for name, vals in (kv.split("=", 1) for kv in args.sweep)
            ],
            "T": args.until,
            "epsilon": args.epsilon,
            "gamma": args.gamma,
            "delta": args.delta,
        }
    if not 1 <= len(spec["sweeps"]) <= 2:
        raise UsageError("sweep needs one or two swept parameters")
    kind = spec["generator"]
    if kind not in _GENERATORS:
        raise UsageError(f"unknown generator {kind!r}")
    T = spec.get("T", args.until)
    epsilon = spec.get("epsilon", args.epsilon)
    gamma = spec.get("gamma", args.gamma)
    delta = spec.get("delta", args.delta)

    names = [s["name"] for s in spec["sweeps"]]
    grids = [s["values"] for s in spec["sweeps"]]
    points = [(a,) for a in grids[0]] if len(grids) == 1 else [(a, b) for a in grids[0] for b in grids[1]]
    tasks = []
    for point in points:
        params = dict(spec["params"])
        for name, value in zip(names, point):
            params[name] = value
        tasks.append((kind, params, T, epsilon, gamma, delta))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, *zip(*tasks)))
    else:
        rows = [_sweep_point(*task) for task in tasks]

    header = list(names) + ["p_fail"] + (["throughput"] if kind == "ring" else [])
    lines = [",".join(header)]
    for point, row in zip(points, rows):
        cells = [f"{v:g}" for v in point] + [repr(row["p_fail"])]
        if kind == "ring":
            cells.append(repr(row["throughput"]))
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


# --- argument wiring -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="faultscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_sim(p):
        p.add_argument("--until", type=float, default=100.0, help="execution horizon T (default 100)")
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="X propagation delay (default 0.1)")

    p = sub.add_parser("validate", help="parse and validate a netlist")
    p.add_argument("--circuit", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="fault-free execution; optional SVG/JSON dumps")
    p.add_argument("--circuit", required=True)
    p.add_argument("--traces", help="input trace CSV (signal,time,value)")
    common_sim(p)
    p.add_argument("--out-svg")
    p.add_argument("--out-json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("inject", help="inject one pulse and report SUSCEPTIBLE or MASKED")
    p.add_argument("--circuit", required=True)
    p.add_argument("--traces")
    p.add_argument("--at", required=True, metavar="SIGNAL@TIME:WIDTH")
    p.add_argument("--kind", choices=(analysis.X_PULSE, analysis.FLIP_PULSE), default=analysis.X_PULSE)
    p.add_argument("--monitor", help="comma-separated monitored signals (default: netlist monitor line)")
    common_sim(p)
    p.add_argument("--out-svg")
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("analyze", help="sensitivity windows and P(fail) via per-region bisection")
    p.add_argument("--circuit", required=True)
    p.add_argument("--traces")
    common_sim(p)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA, help="pulse width (default 0.1)")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="bisection resolution (default 0.01)")
    p.add_argument("--monitor")
    p.add_argument("--include-monitored", action="store_true", help="also inject at monitored signals")
    p.add_argument("--naive-step", type=float, help="use the grid scan at this step instead of bisection")
    p.add_argument("--weights", help="file of 'signal = weight' lines for a weighted P(fail)")
    p.add_argument("--jobs", type=int, default=_jobs_default())
    p.add_argument("--out-json")
    p.add_argument("--out-svg")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("generate", help="emit a benchmark netlist")
    p.add_argument("kind", choices=tuple(_GENERATORS))
    p.add_argument("params", nargs="*", help="positional generator parameters")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("sweep", help="one analysis per grid point; CSV out")
    p.add_argument("--spec", help="sweep spec file (key=value with [sweep.<param>] sections)")
    p.add_argument("--generator", choices=tuple(_GENERATORS))
    p.add_argument("--set", action="append", metavar="PARAM=VALUE")
    p.add_argument("--sweep", action="append", metavar="PARAM=V1,V2,... or PARAM=FROM:TO:STEP")
    common_sim(p)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--jobs", type=int, default=_jobs_default())
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except netlist.NetlistError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (netlist.NetlistSemanticError, CircuitInvalid, GenerationError) as exc:
        print(f"invalid circuit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
