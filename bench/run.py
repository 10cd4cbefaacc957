#!/usr/bin/env python3
"""faultscope benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload mb8 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports faultscope from its
``src/`` directory.  Each operation starts when the previous one ends.  The
run sets up the workload's circuits several times, repeats the workload's
operation for about ``--seconds`` seconds, checks every output and prints
one ``name value unit`` line per metric, then a JSON summary as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics, which come from spans (see ``spans.py``).  Untraced runs
sample a host speed gauge (see ``gauge.py``) during every operation and
report their times at the gauge's nominal host speed.  Every run
also writes a record with the metrics, the checks, the report hashes and
the host description to ``bench/_out/``; traced runs write their spans there
too.  ``--smoke`` shrinks every workload so that a run takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from gauge import NOMINAL_S, Gauge
from spans import Recorder

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"

EPSILON, GAMMA, DELTA = 0.1, 0.1, 0.05
# setup_s is the median of the set-ups of a run: SETUP_FIRST before the first
# operation and SETUP_BETWEEN after each one, so that they sample the host's
# speed across the whole run rather than in its first half second
SETUP_FIRST, SETUP_BETWEEN = 5, 2
MIN_OPS = 2  # operations per untraced run, however long they take
# untraced runs time the host speed gauge after a probe or query once this
# many seconds have passed since its last sample (about 3% of the run)
GAUGE_INTERVAL_S = 0.05

# Measured and printed like every other metric, but not listed in
# BENCHMARK.json: on the analysis workloads it rests on one to three
# fault-free executions of 10-20 ms per operation, too few and too short to
# be steady on a shared host.  inject's wall_s and inject_ms gate the same
# record path.
UNGATED = [("events_per_s", "1/s")]

# --- workload definitions ----------------------------------------------------------


@dataclass(frozen=True)
class Pin:
    """Reference result of one analysis, pinned when the benchmark was
    written: P(fail) and its window count."""

    p_fail: float
    windows: int


@dataclass(frozen=True)
class Size:
    bits: int = 0  # multibit pipelines
    stages: int = 3
    tokens: tuple[int, ...] = ()  # ring sweep
    horizon: float = 200.0
    queries: int = 0  # inject
    pins: tuple[Pin, ...] = ()
    events: int = 0  # fault-free events at the horizon (inject)


SIZES = {
    ("mb8", False): Size(bits=8, stages=3, horizon=200.0, pins=(Pin(0.14707009375000005, 3633),)),
    ("mb8", True): Size(bits=1, stages=2, horizon=30.0, pins=(Pin(0.6426244212962963, 76),)),
    ("ring20", False): Size(
        stages=20,
        tokens=(1, 5, 9),
        horizon=200.0,
        pins=(Pin(0.48465384615384616, 2198), Pin(0.5616893028846154, 2397), Pin(0.908283253205128, 2414)),
    ),
    ("ring20", True): Size(
        stages=8,
        tokens=(1, 2, 3),
        horizon=40.0,
        pins=(Pin(0.474, 147), Pin(0.5614010416666666, 166), Pin(0.8072942708333334, 157)),
    ),
    ("inject", False): Size(bits=4, stages=3, horizon=500.0, queries=200, events=1546),
    ("inject", True): Size(bits=1, stages=2, horizon=40.0, queries=20, events=22),
}


# --- per-operation observations -----------------------------------------------------


@dataclass
class OpStats:
    """What the wrapped entry points saw during one operation."""

    reports: list = field(default_factory=list)
    analyze_s: float = 0.0
    execute_s: float = 0.0
    events: int = 0
    probe_sig: list = field(default_factory=list)
    probe_at: array = field(default_factory=lambda: array("d"))
    probe_hit: bytearray = field(default_factory=bytearray)
    probe_analysis: array = field(default_factory=lambda: array("i"))
    probe_s: array = field(default_factory=lambda: array("d"))
    query_s: array = field(default_factory=lambda: array("d"))
    # per probe (inject: per query), the number of gauge samples taken
    # before it ended; untraced runs only
    gauge_at: array = field(default_factory=lambda: array("i"))
    svg_bytes: int = 0
    report_bytes: int = 0
    postfix_violations: int = 0


class Observer:
    """Observation callbacks for the wrapped entry points; ``stats`` is the
    current operation's record."""

    def __init__(self, gauge: Gauge | None = None):
        self.stats = OpStats()
        self.gauge = gauge

    def analyze(self, report, args, kwargs, seconds):
        self.stats.reports.append(report)
        self.stats.analyze_s += seconds

    def execute(self, execution, args, kwargs, seconds):
        self.stats.execute_s += seconds
        self.stats.events += len(execution.events)

    def probe(self, verdict, args, kwargs, seconds):
        s = self.stats
        s.probe_sig.append(args[1])
        s.probe_at.append(args[2])
        s.probe_hit.append(1 if verdict else 0)
        s.probe_analysis.append(len(s.reports))
        s.probe_s.append(seconds)
        self.tick()

    def query(self, verdict, args, kwargs, seconds):
        self.stats.query_s.append(seconds)
        self.tick()

    def tick(self):
        if self.gauge is not None:
            self.stats.gauge_at.append(len(self.gauge.samples))
            self.gauge.tick()

    def render(self, svg, args, kwargs, seconds):
        self.stats.svg_bytes += len(svg)

    def report(self, text, args, kwargs, seconds):
        self.stats.report_bytes += len(text)


def kernel_span_name(args, kwargs):
    return "sim.kernel.probe" if kwargs.get("record", True) is False else "sim.kernel.base"


def install(fs, rec: Recorder, obs: Observer, traced: bool) -> None:
    """Wrap the entry points between faultscope modules; ``traced`` adds the
    three internal names through which the analysis drives the kernel."""
    g, netlist, analysis, sim, waveform, cli, prs = (
        fs.generators, fs.netlist, fs.analysis, fs.sim, fs.waveform, fs.cli, fs.prs,
    )
    for fn in (g.linear_pipeline, g.ring_pipeline, g.multibit_linear_pipeline):
        rec.patch_everywhere(fn, "generators.build")
    for kind, (spec_cls, fn, fields) in list(cli._GENERATORS.items()):
        rec.replace(cli._GENERATORS, kind, (spec_cls, rec.wrap(fn, "generators.build"), fields))
    rec.patch_everywhere(g.measure_throughput, "generators.measure_throughput")
    rec.patch_everywhere(netlist.parse_circuit, "netlist.parse")
    rec.patch_everywhere(netlist.serialize_circuit, "netlist.serialize")
    rec.patch_everywhere(netlist.write_report, "netlist.report_write", obs.report)
    rec.patch_everywhere(sim.execute, "sim.execute", obs.execute)
    rec.patch_everywhere(analysis.analyze, "analysis.analyze", obs.analyze)
    rec.patch_everywhere(analysis.is_susceptible, "analysis.is_susceptible", obs.query)
    rec.patch_everywhere(analysis.value_regions, "analysis.value_regions")
    rec.patch_everywhere(waveform.render_waveform, "waveform.render", obs.render)
    # one verdict of the bisection; its latency is inject_ms on the analysis workloads
    rec.patch(analysis._ProbeContext, "probe", "analysis.probe", obs.probe)
    if traced:
        rec.patch(analysis, "_kernel", kernel_span_name)
        rec.patch(analysis._ProbeContext, "matches", "analysis.converge_check")
        rec.patch_everywhere(prs.validate_circuit, "prs.validate")


# --- workloads ------------------------------------------------------------------------


class Workload:
    """Circuits to set up, one operation to repeat, and the checks on both."""

    def __init__(self, fs, name: str, size: Size, seed: int, workdir: Path):
        self.fs = fs
        self.name = name
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.hashes: list[str] = []
        self.results: list[tuple] = []
        # unwrapped functions, for the work done outside the measured spans
        self.plain = {
            f: getattr(mod, f)
            for mod, names in (
                (fs.netlist, ("serialize_circuit", "write_report", "read_report", "recompute_p_fail")),
                (fs.sim, ("execute",)),
                (fs.analysis, ("value_regions",)),
            )
            for f in names
        }

    # circuits as (label, circuit, monitored)
    def build(self):
        g = self.fs.generators
        s = self.size
        if self.name == "ring20":
            return [(f"ring{s.stages}t{t}", *g.ring_pipeline(g.RingSpec(s.stages, t, 1, 5))) for t in s.tokens]
        spec = g.MultiBitSpec(s.bits, s.stages, 1, 5, 4, 4)
        return [(f"mb{s.bits}", *g.multibit_linear_pipeline(spec))]

    def check(self, ok: bool, what: str) -> None:
        """Count one operation and whether it passed its checks."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def expect(self, ok: bool, what: str) -> bool:
        """One condition of an operation's check; notes what went wrong."""
        if not ok:
            self.notes.append(what)
        return ok

    def setup(self):
        """generator -> serialize -> parse -> compile and validate, per circuit."""
        fs = self.fs
        out = []
        for label, circuit, monitored in self.build():
            text = fs.netlist.serialize_circuit(circuit, monitored)
            parsed, declared = fs.netlist.parse_circuit(text)
            fs.sim.execute(parsed, {}, fs.sim.SimConfig(0.0, EPSILON))
            out.append((label, parsed, declared, text))
        return out

    def verify_setup(self, circuits) -> None:
        for label, parsed, declared, text in circuits:
            again = self.plain["serialize_circuit"](parsed, declared)
            self.check(again == text and declared, f"setup {label}: netlist round trip")

    def prepare(self, circuits) -> None:
        """Write the netlists the CLI reads, draw the queries from the seed and
        find the fault-free value regions that analysis.pairs is counted in."""
        fs = self.fs
        self.circuits = circuits
        self.region_starts = []
        for label, circuit, _, text in circuits:
            (self.workdir / f"{label}.prs").write_text(text, encoding="utf-8")
            execution = self.plain["execute"](circuit, {}, fs.sim.SimConfig(self.size.horizon, EPSILON))
            self.region_starts.append([r.start for r in self.plain["value_regions"](execution)])
        if self.name == "inject":
            _, circuit, monitored, _ = circuits[0]
            rng = random.Random(self.seed)
            targets = sorted(circuit.signals - monitored)
            hi = self.size.horizon - GAMMA
            self.queries = [(rng.choice(targets), rng.uniform(0.0, hi)) for _ in range(self.size.queries)]
            self.first_verdicts = None

    def queries_digest(self):
        """Hash of the seed-drawn (signal, time) queries and their verdicts."""
        if self.name != "inject":
            return None
        text = repr((self.queries, self.first_verdicts))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def cli(self, rec: Recorder, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        span = rec.open("cli")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.fs.cli.main(argv)
        finally:
            rec.close(span)
        return code, out.getvalue()

    def op(self, rec: Recorder) -> None:
        """One user-level operation; its checks run in verify(), untimed."""
        getattr(self, "op_" + self.name)(rec)

    def op_mb8(self, rec):
        label = self.circuits[0][0]
        report = self.workdir / "report.json"
        svg = self.workdir / "windows.svg"
        code, out = self.cli(rec, [
            "analyze", "--circuit", str(self.workdir / f"{label}.prs"), "--until", repr(self.size.horizon),
            "--epsilon", repr(EPSILON), "--gamma", repr(GAMMA), "--delta", repr(DELTA), "--jobs", "1",
            "--out-json", str(report), "--out-svg", str(svg),
        ])
        self.pending = (code, out, report.read_text(encoding="utf-8") if code == 0 else "")

    def op_ring20(self, rec):
        csv = self.workdir / "sweep.csv"
        tokens = ",".join(str(t) for t in self.size.tokens)
        code, out = self.cli(rec, [
            "sweep", "--generator", "ring", "--set", f"stages={self.size.stages}", "--set", "inv_delay=1",
            "--set", "mce_delay=5", "--sweep", f"tokens={tokens}", "--until", repr(self.size.horizon),
            "--epsilon", repr(EPSILON), "--gamma", repr(GAMMA), "--delta", repr(DELTA), "--jobs", "1",
            "--out", str(csv),
        ])
        self.pending = (code, out, csv.read_text(encoding="utf-8") if code == 0 else "")

    def op_inject(self, rec):
        fs = self.fs
        label, circuit, monitored, _ = self.circuits[0]
        config = fs.sim.SimConfig(self.size.horizon, EPSILON)
        verdicts = [
            fs.analysis.is_susceptible(circuit, {}, monitored, fs.analysis.Glitch(sig, at, GAMMA), config)
            for sig, at in self.queries
        ]
        code, out = self.cli(rec, [
            "simulate", "--circuit", str(self.workdir / f"{label}.prs"), "--until", repr(self.size.horizon),
            "--epsilon", repr(EPSILON), "--out-svg", str(self.workdir / "trace.svg"),
        ])
        self.pending = (code, out, verdicts)

    # --- checks ---------------------------------------------------------------------

    def verify(self, stats: OpStats) -> None:
        code, out, product = self.pending
        ran = self.expect(code == 0, f"faultscope exited with {code}: {out.strip()}")
        if self.name == "inject":
            if self.first_verdicts is None:
                self.first_verdicts = product
            for i, (v, first) in enumerate(zip(product, self.first_verdicts)):
                self.check(v == first, f"query {i} {self.queries[i]}: verdict changed between repeats")
            expected = f"{self.size.events} events until T={self.size.horizon:g}"
            self.check(
                ran and self.expect(out.strip() == expected, f"simulate printed {out.strip()!r}, not {expected!r}"),
                "simulate",
            )
            return
        self.check(ran and self.verify_analyses(stats.reports, out, product), f"{self.name} operation")

    def verify_analyses(self, reports, out: str, product: str) -> bool:
        write_report, read_report = self.plain["write_report"], self.plain["read_report"]
        if not self.expect(len(reports) == len(self.size.pins), f"{len(reports)} analyses ran"):
            return False
        ok = True
        for report, pin in zip(reports, self.size.pins):
            text = write_report(report)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest not in self.hashes:
                self.hashes.append(digest)
                self.results.append((report.p_fail, len(report.windows), report.simulations))
            again = read_report(text)
            ok &= self.expect(again == report and write_report(again) == text, "report round trip")
            recomputed = self.plain["recompute_p_fail"](json.loads(text))
            ok &= self.expect(recomputed == report.p_fail, "recomputed P(fail)")
            tol = DELTA * pin.windows / (len(report.injected) * report.horizon)
            ok &= self.expect(
                abs(report.p_fail - pin.p_fail) <= tol,
                f"P(fail) {report.p_fail!r} not within {tol:.6g} of the pinned {pin.p_fail!r}",
            )
        if self.name == "mb8":
            ok &= self.expect(product == write_report(reports[0]), "written report differs")
            ok &= self.expect(out.strip() == f"P(fail) = {reports[0].p_fail!r}", f"analyze printed {out!r}")
        else:
            rows = [line.split(",") for line in product.splitlines()[1:]]
            ok &= self.expect([float(r[1]) for r in rows] == [r.p_fail for r in reports], "sweep CSV P(fail)")
            mid = reports[len(reports) // 2]
            ok &= self.expect(reports[-1].p_fail > mid.p_fail, "ring ordering: P at most tokens > P at middle")
        return ok

    # --- layer counts -----------------------------------------------------------------

    def counts(self, stats: OpStats) -> dict:
        regions = sum(len(self.region_starts[k]) for k in range(len(stats.reports)))
        pairs = set()
        for sig, at, k in zip(stats.probe_sig, stats.probe_at, stats.probe_analysis):
            pairs.add((k, sig, bisect_right(self.region_starts[k], at)))
        n = len(stats.probe_hit)
        return {
            "analysis.regions": regions,
            "analysis.pairs": len(pairs),
            "analysis.probes_per_pair": n / len(pairs) if pairs else 0.0,
            "analysis.susceptible_share": sum(stats.probe_hit) / n if n else 0.0,
            "analysis.postfix_violations": stats.postfix_violations,
            "sim.events": stats.events,
            "waveform.svg_bytes": stats.svg_bytes,
            "netlist.report_bytes": stats.report_bytes,
        }


# --- measurement ------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_op(work: Workload, rec: Recorder, obs: Observer):
    """Time one operation; returns (wall seconds, stats, root span index)."""
    obs.stats = stats = OpStats()
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        root = rec.open("op")
        try:
            work.op(rec)
        finally:
            wall = rec.close(root)
    stats.postfix_violations = sum(
        1 for w in caught if issubclass(w.category, work.fs.analysis.PostfixViolationWarning)
    )
    work.verify(stats)
    return wall, stats, root


def local_latency(latency: array, gauge_at: array, samples: array) -> list[float]:
    """Each latency at the gauge's nominal speed, judged by the gauge samples
    on either side of it: a single probe falls into one speed regime of the
    host, which the operation's mean slowdown would blur."""
    last = len(samples) - 1
    return [x * 2 * NOMINAL_S / (samples[k - 1] + samples[min(k, last)]) for x, k in zip(latency, gauge_at)]


def op_end_to_end(work: Workload, wall: float, stats: OpStats, gauge: Gauge, first: int, gauge_s: float) -> dict:
    """End-to-end figures of one operation, at the gauge's nominal host speed.

    The gauge sampled from index ``first`` on during the operation, which
    took ``gauge_s`` out of its wall time; on the analysis workloads the
    samples run inside ``analyze`` (after a probe), on ``inject`` between
    queries.  Totals are divided by the gauge's mean slowdown over the
    operation, single latencies by the slowdown around each."""
    slow = gauge.slowdown(first)
    if work.name == "inject":
        probes = len(stats.query_s)
        busy = math.fsum(stats.query_s)
        latency = stats.query_s
    else:
        probes = sum(r.simulations for r in stats.reports)
        busy = stats.analyze_s - gauge_s
        latency = stats.probe_s
    latency = local_latency(latency, stats.gauge_at, gauge.samples)
    return {
        "wall_s": (wall - gauge_s) / slow,
        "probes": probes,
        "probes_per_s": probes * slow / busy,
        "inject_ms.p50": 1e3 * percentile(latency, 0.50),
        "inject_ms.p95": 1e3 * percentile(latency, 0.95),
        "events_per_s": stats.events * slow / stats.execute_s,
        "host_slowdown": slow,
        "raw_wall_s": wall - gauge_s,
    }


CALLS, TOTAL, SELF = 0, 1, 2  # columns of Recorder.by_root()


def span_stat(table: dict, name: str, col: int) -> float:
    return table.get(name, (0, 0.0, 0.0))[col]


def layer_times(table: dict, durations: list[float]) -> dict:
    """Per-layer figures of one traced operation."""
    return {
        "sim.kernel.probe_s": span_stat(table, "sim.kernel.probe", SELF),
        "sim.kernel.probe_calls": span_stat(table, "sim.kernel.probe", CALLS),
        "analysis.probe_ms.p50": 1e3 * percentile(durations, 0.50) if durations else 0.0,
        "analysis.probe_ms.p99": 1e3 * percentile(durations, 0.99) if durations else 0.0,
        "analysis.converge_check_s": span_stat(table, "analysis.converge_check", TOTAL),
        "analysis.converge_check_calls": span_stat(table, "analysis.converge_check", CALLS),
        "analysis.self_s": span_stat(table, "analysis.analyze", SELF) + span_stat(table, "analysis.probe", SELF),
        "sim.kernel.base_s": span_stat(table, "sim.kernel.base", TOTAL),
        "sim.execute_s": span_stat(table, "sim.execute", TOTAL),
        "waveform.render_s": span_stat(table, "waveform.render", TOTAL),
        "netlist.report_write_s": span_stat(table, "netlist.report_write", TOTAL),
        "cli.self_s": span_stat(table, "cli", SELF),
    }


def setup_times(table: dict) -> dict:
    """Per-layer figures of one set-up."""
    return {
        "generators.build_s": span_stat(table, "generators.build", TOTAL),
        "netlist.parse_s": span_stat(table, "netlist.parse", SELF),
        "netlist.serialize_s": span_stat(table, "netlist.serialize", TOTAL),
        "prs.validate_s": span_stat(table, "prs.validate", TOTAL),
        "sim.compile_s": span_stat(table, "sim.execute", SELF),
    }


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(fs, spec, args, workdir: Path) -> tuple[dict, Workload, Recorder]:
    work = Workload(fs, args.workload, SIZES[(args.workload, args.smoke)], args.seed, workdir)
    rec = Recorder()
    traced = bool(args.trace)
    # end-to-end times are normalized to the gauge's nominal host speed;
    # per-layer times are left as measured, so that no sample enters a span
    gauge = None if traced else Gauge(GAUGE_INTERVAL_S)
    obs = Observer(gauge)

    install(fs, rec, obs, traced)
    setup_walls: list[float] = []

    def set_up(reps: int):
        for _ in range(reps):
            gc.collect()
            if gauge is not None:
                first = len(gauge.samples)
                gauge.sample()
            root = rec.open("setup")
            circuits = work.setup()
            wall = rec.close(root)
            if gauge is not None:
                # one sample on either side of a set-up of 10-20 ms
                gauge.sample()
                wall /= gauge.slowdown(first)
            setup_walls.append(wall)
            work.verify_setup(circuits)
        return circuits

    try:
        work.prepare(set_up(SETUP_FIRST))
        if not traced:
            rec.clear()

        plain, plain_walls, traced_ops = [], [], []
        start = time.perf_counter()
        while True:
            # closed loop: stop when one more operation (a pair of an untraced
            # and a traced one when tracing) would overrun the time budget
            elapsed = time.perf_counter() - start
            done = len(plain_walls)
            if done >= (1 if traced else MIN_OPS) and elapsed * (done + 1) / done > args.seconds:
                break
            if traced:
                rec.restore()
                install(fs, rec, obs, traced=False)
            else:
                gauge.sample()
                first, spent = len(gauge.samples) - 1, gauge.spent
            wall, stats, _ = run_op(work, rec, obs)
            plain_walls.append(wall)
            if traced:
                rec.restore()
                install(fs, rec, obs, traced=True)
                wall, stats, root = run_op(work, rec, obs)
                traced_ops.append((wall, root, work.counts(stats)))
            else:
                plain.append(op_end_to_end(work, wall, stats, gauge, first, gauge.spent - spent))
                rec.clear()
            set_up(SETUP_BETWEEN)
        measured_s = time.perf_counter() - start
    finally:
        rec.restore()

    if traced:
        table = rec.by_root()
        probe_ms = rec.durations("analysis.probe")
        rows = []
        for _, root, counts in traced_ops:
            row = layer_times(table[root], probe_ms.get(root, []))
            row.update(counts)
            rows.append(row)
        metrics = medians(rows)
        metrics.update(medians([setup_times(t) for r, t in table.items() if rec.names[rec.name[r]] == "setup"]))
        metrics["trace.overhead_s"] = statistics.median(w for w, _, _ in traced_ops) - statistics.median(plain_walls)
        names = spec["per_layer"]
    else:
        metrics = medians(plain)
        metrics["setup_s"] = statistics.median(setup_walls)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = spec["end_to_end"]
    info = {
        "operations": len(plain_walls) + len(traced_ops),
        "measured_s": measured_s,
        "setup_reps": len(setup_walls),
        "op_walls_s": plain_walls,
        "op_metrics": plain,
        "setup_walls_s": setup_walls,
    }
    if not traced:
        # how much slower than the gauge's nominal speed the host ran, and
        # the median wall time as measured, before normalization
        info.update({k: metrics[k] for k in ("host_slowdown", "raw_wall_s")})
        info["gauge_samples"] = len(gauge.samples)
    units = {m["name"]: m["unit"] for m in names}
    if not traced:
        units.update(UNGATED)
    return {"metrics": {n: metrics[n] for n in units}, "units": units, "info": info}, work, rec


# --- entry point ---------------------------------------------------------------------------


def load_package():
    """Import faultscope from this checkout's src/ and nowhere else."""
    src = REPO_DIR / "src"
    if not (src / "faultscope" / "__init__.py").is_file():
        raise SystemExit(f"error: no faultscope sources at {src}")
    sys.path.insert(0, str(src))
    import faultscope
    import faultscope.cli

    if Path(faultscope.__file__).resolve().parent != (src / "faultscope").resolve():
        raise SystemExit(f"error: imported faultscope from {faultscope.__file__}, not from {src}")
    return faultscope


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "cpus": os.cpu_count(),
    }


def parse_args(spec, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny circuits, for testing the benchmark itself")
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((REPO_DIR / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec, argv)
    fs = load_package()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        result, work, rec = measure(fs, spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    failed = work.failed
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {result['units'][name]}")
    print(f"ops_failed_share {failed / work.attempted!r} share")
    info = result["info"]
    print(f"info workload={args.workload} seed={args.seed} operations={info['operations']}")
    if "host_slowdown" in info:
        print(f"info host_slowdown={info['host_slowdown']!r} raw_wall_s={info['raw_wall_s']!r}")
    for i, (digest, (p_fail, windows, sims)) in enumerate(zip(work.hashes, work.results)):
        print(f"info report[{i}] sha256={digest} p_fail={p_fail!r} windows={windows} simulations={sims}")
    for what in work.notes[:20]:
        print(f"check failed: {what}")
    if args.trace:
        # one spans file per workload, replaced by each traced run
        spans_path = OUT_DIR / f"spans-{args.workload}{'-smoke' if args.smoke else ''}.tsv"
        rec.write(spans_path)
        result["info"]["spans"] = str(spans_path.relative_to(REPO_DIR))
    record = {
        "workload": args.workload,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_info(),
        "report_sha256": work.hashes,
        "queries_sha256": work.queries_digest(),
        "checks_attempted": work.attempted,
        "check_notes": work.notes,
        "ops_failed_share": failed / work.attempted,
        **result,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    ungated = dict(UNGATED)
    summary = {
        "correct": failed == 0,
        "attempted": work.attempted,
        "failed": failed,
        "metrics": {
            n: {"value": v, "unit": result["units"][n]} for n, v in result["metrics"].items() if n not in ungated
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
