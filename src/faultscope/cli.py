"""Command-line interface: validate, simulate, inject, analyze, generate, sweep.

Exit codes: 0 success, 1 usage or parse error, 2 semantic/validation error,
3 runtime failure.  All commands are deterministic for fixed flags, including
any ``--jobs`` setting.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import analysis, netlist, waveform
from .prs import CircuitInvalid, monitor_violations
from .sim import SimConfig, execute
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

class UsageError(ValueError):
    """A usage error, or a parse error of a sweep spec file: exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jobs(text: str) -> int:
    """--jobs and FAULTSCOPE_JOBS: a positive integer."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer (--jobs or FAULTSCOPE_JOBS), got {text!r}")
    return jobs


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
        names = frozenset(n for n in arg.split(",") if n)
        unknown = monitor_violations(circuit, names)
        if unknown:
            raise CircuitInvalid(unknown)
        return names
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
    injection_set = circuit.signals if args.include_monitored else None
    weights = None
    if args.weights:
        # a bad weights file fails before the analysis runs or writes anything
        weights = _parse_weights(_read(args.weights), circuit.signals)
        injected = analysis._resolve_injection(circuit, monitored, injection_set)
        analysis.check_weights(injected, weights)
    common = dict(gamma=args.gamma, config=config, injection_set=injection_set)
    if args.naive_step is not None:
        report = analysis.analyze_naive(circuit, traces, monitored, step=args.naive_step, **common)
    else:
        report = analysis.analyze(circuit, traces, monitored, delta=args.delta, jobs=args.jobs, **common)
    if args.out_json:
        _write(args.out_json, netlist.write_report(report))
    if args.out_svg:
        execution = execute(circuit, traces, config)
        _write(args.out_svg, waveform.render_waveform(execution, report.windows, monitored))
    print(f"P(fail) = {report.p_fail!r}")
    if weights is not None:
        print(f"P(fail, weighted) = {analysis.p_fail_weighted(report, weights)!r}")
    return 0


def _parse_weights(text: str, signals: frozenset) -> dict:
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = (p.strip() for p in line.partition("="))
        if not (eq and name):
            raise ValueError(f"weights line {lineno}: expected 'signal = weight'")
        if name not in signals:
            raise ValueError(f"weights line {lineno}: {name!r} is not a signal of the circuit")
        if name in weights:
            raise ValueError(f"weights line {lineno}: {name!r} has a weight already")
        try:
            weights[name] = float(value)
        except ValueError:
            raise ValueError(f"weights line {lineno}: weight {value!r} is not a number") from None
    return weights


# kind -> (spec class, generator, parameter names in positional order)
_GENERATORS = {
    kind: (spec_cls, fn, tuple(f.name for f in dataclasses.fields(spec_cls)))
    for kind, spec_cls, fn in (
        ("linear", PipelineSpec, linear_pipeline),
        ("ring", RingSpec, ring_pipeline),
        ("multibit", MultiBitSpec, multibit_linear_pipeline),
    )
}


def _int_param(kind: str, name: str, value) -> int:
    """An ``int`` generator parameter from its text or swept value; anything
    but an integral value is a usage error."""
    try:
        exact = Fraction(value)
    except (ValueError, OverflowError):  # not a number, inf, nan
        exact = None
    if exact is None or exact.denominator != 1:
        raise UsageError(f"{kind} parameter {name!r} must be an integer, got {value}")
    return int(exact)


def _float_param(kind: str, name: str, value) -> float:
    """A ``float`` generator parameter; text that is not a number is a usage
    error."""
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"{kind} parameter {name!r} must be a number, got {value}") from None


def _generator_spec(kind: str, params: dict):
    """The generator spec built from params, each converted to its field's
    type."""
    spec_cls, _, fields = _GENERATORS[kind]
    types = typing.get_type_hints(spec_cls)
    kwargs = {}
    for name, value in params.items():
        if name not in fields:
            raise UsageError(f"unknown {kind} parameter {name!r} (expected {', '.join(fields)})")
        kwargs[name] = (_int_param if types[name] is int else _float_param)(kind, name, value)
    return spec_cls(**kwargs)


def cmd_generate(args) -> int:
    _, generate, fields = _GENERATORS[args.kind]
    if len(args.params) > len(fields):
        raise UsageError(f"{args.kind} takes at most {len(fields)} positional parameters ({', '.join(fields)})")
    params = dict(zip(fields, args.params))
    circuit, monitored = generate(_generator_spec(args.kind, params))
    text = netlist.serialize_circuit(circuit, monitored)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# --- sweep ------------------------------------------------------------------------


def _number(text: str) -> float:
    """A number of a sweep: the literals float() accepts, so no "1/2"."""
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text.strip()!r}") from None


def _sweep_range(lo: str, to: str, step: str) -> list[float]:
    """lo, lo + step, ... up to and including ``to``.  Each point is computed
    exactly from the decimal texts and rounded to float once."""
    for text in (lo, to, step):
        _number(text)
    lo_q, to_q, step_q = Fraction(lo), Fraction(to), Fraction(step)  # no inf or nan
    if step_q <= 0:
        raise UsageError(f"sweep step must be positive in {lo}:{to}:{step}")
    count = (to_q - lo_q) // step_q + 1 if to_q >= lo_q else 0
    return [float(lo_q + k * step_q) for k in range(count)]


def _parse_sweep_values(text: str) -> list[float]:
    """``FROM:TO:STEP`` or a list separated by commas or spaces."""
    text = text.strip()
    if ":" in text:
        bounds = text.split(":")
        if len(bounds) != 3:
            raise UsageError(f"expected FROM:TO:STEP, got {text!r}")
        return _sweep_range(*bounds)
    return [_number(p) for p in text.replace(",", " ").split()]


def parse_sweep_spec(text: str) -> dict:
    """Plain key=value lines with [sweep.<param>] sections.

    Returns what ``--generator/--set/--sweep`` build too: ``generator``,
    ``params``, ``sweeps`` as ``[{name, values}]``, and any of T, epsilon,
    gamma and delta the file sets.
    """
    spec = {"params": {}, "sweeps": []}
    ranges: list[dict] = []  # per sweep section: its from/to/step texts
    section = None
    keys: set[str] = set()  # the keys set so far in the top part or the section
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.endswith("]") and line.startswith("[sweep.")):
                raise UsageError(f"line {lineno}: expected [sweep.<param>] section")
            section = {"name": line[len("[sweep."):-1], "values": None}
            spec["sweeps"].append(section)
            ranges.append({})
            keys = set()
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected key = value")
        key, value = (p.strip() for p in line.split("=", 1))
        if key in keys:
            raise UsageError(f"line {lineno}: key {key!r} is set twice")
        keys.add(key)
        try:
            if section is None:
                if key == "generator":
                    spec["generator"] = value
                elif key in ("T", "epsilon", "gamma", "delta"):
                    spec[key] = _number(value)
                else:
                    spec["params"][key] = value
            elif key == "values":
                if ranges[-1]:
                    raise UsageError(f"sweep {section['name']!r} sets both values and from/to/step")
                section["values"] = _parse_sweep_values(value)
            elif key in ("from", "to", "step"):
                if section["values"] is not None:
                    raise UsageError(f"sweep {section['name']!r} sets both values and from/to/step")
                _number(value)
                ranges[-1][key] = value
            else:
                raise UsageError(f"unknown sweep key {key!r}")
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from None
    for section, bounds in zip(spec["sweeps"], ranges):
        if section["values"] is None:
            if len(bounds) < 3:
                raise UsageError(f"sweep {section['name']!r} needs values or from/to/step")
            section["values"] = _sweep_range(bounds["from"], bounds["to"], bounds["step"])
    if "generator" not in spec:
        raise UsageError("sweep spec needs a generator")
    return spec


def _sweep_point(kind, spec, T, epsilon, gamma, delta):
    """One grid point's row."""
    circuit, monitored = _GENERATORS[kind][1](spec)
    config = SimConfig(horizon=T, epsilon=epsilon)
    report = analysis.analyze(circuit, {}, monitored, gamma=gamma, delta=delta, config=config)
    row = {"p_fail": report.p_fail}
    if kind == "ring":
        execution = execute(circuit, {}, config)
        row["throughput"] = measure_throughput(execution, "c1", spec.inv_delay)
    return row


def _parse_assignment(flag: str, text: str) -> tuple[str, str]:
    name, eq, value = text.partition("=")
    if not eq:
        raise UsageError(f"{flag} expects PARAM=VALUE, got {text!r}")
    return name, value


def cmd_sweep(args) -> int:
    if args.spec:
        spec = parse_sweep_spec(_read(args.spec))
    elif args.generator and args.sweep:
        params = {}
        for kv in args.set or []:
            name, value = _parse_assignment("--set", kv)
            if name in params:
                raise UsageError(f"--set sets {name!r} twice")
            params[name] = value
        spec = {
            "generator": args.generator,
            "params": params,
            "sweeps": [
                {"name": name, "values": _parse_sweep_values(vals)}
                for name, vals in (_parse_assignment("--sweep", kv) for kv in args.sweep)
            ],
        }
    else:
        raise UsageError("sweep needs --spec FILE, or --generator plus at least one --sweep")
    names = [s["name"] for s in spec["sweeps"]]
    if not 1 <= len(names) <= 2:
        raise UsageError("sweep needs one or two swept parameters")
    if len(set(names)) < len(names):
        raise UsageError(f"sweep parameter {names[0]!r} is swept twice")
    for name in names:
        if name in spec["params"]:
            raise UsageError(f"sweep parameter {name!r} is both set and swept")
    for sweep in spec["sweeps"]:
        if not sweep["values"]:
            raise UsageError(f"sweep {sweep['name']!r} has no values")
    kind = spec["generator"]
    if kind not in _GENERATORS:
        raise UsageError(f"unknown generator {kind!r}")
    T = spec.get("T", args.until)
    epsilon = spec.get("epsilon", args.epsilon)
    gamma = spec.get("gamma", args.gamma)
    delta = spec.get("delta", args.delta)

    points = list(itertools.product(*(s["values"] for s in spec["sweeps"])))
    # every point's parameters are checked before the first analysis runs
    specs = [_generator_spec(kind, {**spec["params"], **dict(zip(names, point))}) for point in points]
    tasks = [(kind, point_spec, T, epsilon, gamma, delta) for point_spec in specs]

    # a pool forks all its workers at the first task: no more than points
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    # argparse runs a string default through the type, so a bad
    # FAULTSCOPE_JOBS is a usage error like a bad --jobs
    jobs_default = os.environ.get("FAULTSCOPE_JOBS", "1")

    def common_sim(p):
        p.add_argument(
            "--until", type=float, default=SimConfig.horizon, help="execution horizon T (default %(default)s)"
        )
        p.add_argument(
            "--epsilon", type=float, default=SimConfig.epsilon, help="X propagation delay (default %(default)s)"
        )

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
    p.add_argument("--gamma", type=float, default=analysis.DEFAULT_GAMMA, help="pulse width (default %(default)s)")
    p.add_argument(
        "--delta", type=float, default=analysis.DEFAULT_DELTA, help="bisection resolution (default %(default)s)"
    )
    p.add_argument("--monitor")
    p.add_argument("--include-monitored", action="store_true", help="also inject at monitored signals")
    p.add_argument("--naive-step", type=float, help="use the grid scan at this step instead of bisection")
    p.add_argument("--weights", help="file of 'signal = weight' lines for a weighted P(fail)")
    p.add_argument("--jobs", type=_jobs, default=jobs_default)
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
    p.add_argument("--gamma", type=float, default=analysis.DEFAULT_GAMMA)
    p.add_argument("--delta", type=float, default=analysis.DEFAULT_DELTA)
    p.add_argument("--jobs", type=_jobs, default=jobs_default)
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
    except (CircuitInvalid, GenerationError) as exc:
        print(f"invalid circuit: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
