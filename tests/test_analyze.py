"""Full sensitivity analyses: published value, oracle agreement, weighting."""

import gc
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import faultscope
from faultscope import Circuit, CircuitInvalid, Not, ProductionRule, SignalRef, SimConfig, Value, analysis, execute, make_trace
from faultscope.analysis import (
    FLIP_PULSE,
    Glitch,
    _ProbeContext,
    analyze,
    analyze_naive,
    is_susceptible,
    p_fail_weighted,
    value_regions,
)
from faultscope.generators import MultiBitSpec, PipelineSpec, linear_pipeline, multibit_linear_pipeline
from faultscope.netlist import write_report

CFG = SimConfig(horizon=32.0, epsilon=0.1)

# calibrated and frozen: the published failure probability for this circuit
# is 0.54375; the difference is two pulse-width slivers at region boundaries
P_FAIL_3STAGE_T32 = 0.5425
P_PER_SIGNAL = {
    "c2": 0.8687499999999999,
    "en1": 0.59375,
    "en2": 0.34375,
    "en3": 0.3125,
    "src": 0.59375,
}


@pytest.fixture(scope="module")
def pipeline():
    return linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))


@pytest.fixture(scope="module")
def report(pipeline):
    circuit, monitored = pipeline
    return analyze(circuit, {}, monitored, 0.1, 0.01, CFG)


def test_p_fail_matches_published_value(report):
    assert abs(report.p_fail - 0.54375) <= 0.01


def test_p_fail_pinned(report):
    assert abs(report.p_fail - P_FAIL_3STAGE_T32) <= 1e-6


def test_per_signal_pinned(report):
    assert set(report.p_per_signal) == set(P_PER_SIGNAL)
    for s, p in P_PER_SIGNAL.items():
        assert abs(report.p_per_signal[s] - p) <= 1e-6


def test_injection_set_excludes_monitored_by_default(report):
    assert set(report.injected) == {"src", "c2", "en1", "en2", "en3"}


def test_verdict_near_horizon_agrees_with_analyze(pipeline, report):
    """One definition of susceptible: a pulse at en2@31.5 reaches a monitored
    signal only after T = 32, within the settle time that analyze's probes
    run for, so is_susceptible says so too and the pulse lies in the window."""
    circuit, monitored = pipeline
    assert is_susceptible(circuit, {}, monitored, Glitch("en2", 31.5, 0.1), CFG)
    assert any(w.signal == "en2" and w.start <= 31.5 < w.end for w in report.windows)
    assert report.settle == circuit.size * max(CFG.epsilon, circuit.d_max)


def test_p_fail_formula(report):
    total = math.fsum(w.length for w in report.windows)
    assert report.p_fail == total / (len(report.injected) * report.horizon)


def test_windows_disjoint_and_in_range(report):
    by_sig = {}
    for w in report.windows:
        by_sig.setdefault(w.signal, []).append(w)
    for wins in by_sig.values():
        wins.sort(key=lambda w: w.start)
        for w in wins:
            assert 0.0 <= w.start < w.end <= report.horizon
        for a, b in zip(wins, wins[1:]):
            assert a.end <= b.start


def test_simulation_budget(report, pipeline):
    circuit, _ = pipeline
    regions = value_regions(execute(circuit, {}, CFG))
    budget = len(report.injected) * sum(
        2 + max(0, math.ceil(math.log2(max(r.length, report.delta) / report.delta))) for r in regions
    )
    assert report.simulations <= budget


def test_include_monitored_pins_probability_one(pipeline):
    circuit, monitored = pipeline
    rep = analyze(circuit, {}, monitored, 0.1, 0.05, CFG, injection_set=circuit.signals)
    for m in monitored:
        assert rep.p_per_signal[m] == 1.0
    assert set(rep.injected) == set(circuit.signals)


def test_monitored_shortcut_emits_full_window(pipeline):
    circuit, monitored = pipeline
    rep = analyze(circuit, {}, monitored, 0.1, 0.05, CFG, injection_set=circuit.signals)
    for m in monitored:
        wins = [w for w in rep.windows if w.signal == m]
        assert len(wins) == 1 and (wins[0].start, wins[0].end) == (0.0, CFG.horizon)


def test_naive_grid_agrees_with_bisection(pipeline):
    circuit, monitored = pipeline
    rep_b = analyze(circuit, {}, monitored, 0.1, 0.01, CFG)
    rep_n = analyze_naive(circuit, {}, monitored, 0.1, 0.25, CFG)
    regions = value_regions(execute(circuit, {}, CFG))
    assert abs(rep_n.p_fail - rep_b.p_fail) <= 0.25 * len(regions) / CFG.horizon


def test_naive_simulation_count_formula(pipeline):
    circuit, monitored = pipeline
    rep = analyze_naive(circuit, {}, monitored, 0.1, 0.25, CFG)
    assert rep.simulations == len(rep.injected) * math.ceil(CFG.horizon / 0.25)


def test_repeated_injection_name_probed_once(pipeline):
    """A name given twice in the injection set is one injected signal: it
    used to be probed twice (84 simulations against 42, naive 128 against
    64) and to list each prefix region twice."""
    circuit, monitored = pipeline
    for run, arg in ((analyze, 0.01), (analyze_naive, 0.5)):
        once, twice = (
            run(circuit, {}, monitored, 0.1, arg, CFG, injection_set=names) for names in (["c2"], ["c2", "c2"])
        )
        assert write_report(twice) == write_report(once), run.__name__
        assert once.simulations == {analyze: 42, analyze_naive: 64}[run]


def test_no_path_no_failures():
    # the glitched local drives nothing that reaches the monitored output
    circuit = Circuit(
        inputs={"i"},
        locals={"dead"},
        outputs={"o"},
        initial={"o": Value.ONE, "dead": Value.ZERO},
        rules=[
            ProductionRule(SignalRef("i"), "o", 0, 1.0),
            ProductionRule(Not(SignalRef("i")), "o", 1, 1.0),
            ProductionRule(SignalRef("i"), "dead", 1, 1.0),
            ProductionRule(Not(SignalRef("i")), "dead", 0, 1.0),
        ],
    )
    inputs = {"i": make_trace(Value.ZERO, [(1.0, Value.ONE)])}
    rep = analyze(circuit, inputs, {"o"}, 0.1, 0.05, SimConfig(8.0, 0.1), injection_set={"dead"})
    assert rep.p_fail == 0.0
    assert rep.windows == ()


def test_weighted_uniform_equals_plain(report):
    weights = {s: 1.0 for s in report.injected}
    assert p_fail_weighted(report, weights) == pytest.approx(report.p_fail, abs=1e-12)


def test_weighted_single_signal(report):
    weights = {s: 0.0 for s in report.injected}
    weights["c2"] = 3.0
    assert p_fail_weighted(report, weights) == pytest.approx(report.p_per_signal["c2"])


def test_weighted_hand_computed(report):
    weights = {s: 1.0 for s in report.injected}
    weights["c2"] = 2.0
    expected = (
        2.0 * report.p_per_signal["c2"]
        + sum(report.p_per_signal[s] for s in report.injected if s != "c2")
    ) / (len(report.injected) + 1)
    assert p_fail_weighted(report, weights) == pytest.approx(expected, abs=1e-12)


def test_weighted_errors(report):
    with pytest.raises(ValueError):
        p_fail_weighted(report, {})
    with pytest.raises(ValueError):
        p_fail_weighted(report, {s: 0.0 for s in report.injected})
    bad = {s: 1.0 for s in report.injected}
    bad["c2"] = -1.0
    with pytest.raises(ValueError):
        p_fail_weighted(report, bad)


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
def test_weighted_rejects_non_finite(report, w):
    weights = {s: 1.0 for s in report.injected}
    weights["c2"] = w
    with pytest.raises(ValueError, match="finite"):
        p_fail_weighted(report, weights)


def test_empty_monitored_rejected(pipeline):
    circuit, _ = pipeline
    # on a pool too, the error is the one the serial analysis raises
    for jobs in (1, 2):
        with pytest.raises(ValueError):
            analyze(circuit, {}, frozenset(), 0.1, 0.01, CFG, jobs=jobs)


# epsilon at or above d_min = 1, epsilon zero, a negative horizon
@pytest.mark.parametrize(
    "config", [SimConfig(32.0, 5.0), SimConfig(32.0, 0.0), SimConfig(-1.0, 0.1)], ids=["eps5", "eps0", "T-1"]
)
def test_analyses_reject_what_execute_rejects(pipeline, config):
    circuit, monitored = pipeline
    with pytest.raises(ValueError):
        execute(circuit, {}, config)
    with pytest.raises(ValueError):
        analyze(circuit, {}, monitored, config=config)
    with pytest.raises(ValueError):
        analyze(circuit, {}, monitored, config=config, jobs=2)
    with pytest.raises(ValueError):
        analyze_naive(circuit, {}, monitored, config=config)
    with pytest.raises(ValueError):
        is_susceptible(circuit, {}, monitored, Glitch("c2", 0.0, 0.1), config)


@pytest.mark.parametrize("kwargs", [{"gamma": 0.0}, {"gamma": -0.1}, {"gamma": math.nan}, {"delta": 0.0}, {"delta": -0.01}, {"jobs": 0}])
def test_analyze_rejects_nonpositive_gamma_and_delta(pipeline, kwargs):
    circuit, monitored = pipeline
    with pytest.raises(ValueError, match="must be positive"):
        analyze(circuit, {}, monitored, config=CFG, **kwargs)


@pytest.mark.parametrize("kwargs", [{"gamma": math.inf}, {"delta": math.inf}, {"config": SimConfig(math.nan, 0.1)}, {"config": SimConfig(math.inf, 0.1)}])
def test_analyze_rejects_non_finite(pipeline, kwargs):
    circuit, monitored = pipeline
    with pytest.raises(ValueError, match="finite"):
        analyze(circuit, {}, monitored, **{"config": CFG, **kwargs})


@pytest.mark.parametrize("kwargs", [{"gamma": math.inf}, {"step": math.inf}])
def test_naive_rejects_non_finite_gamma_and_step(pipeline, kwargs):
    circuit, monitored = pipeline
    with pytest.raises(ValueError, match="must be positive and finite"):
        analyze_naive(circuit, {}, monitored, config=CFG, **kwargs)


@pytest.mark.parametrize("at,width", [(math.nan, 0.1), (10.0, math.nan), (10.0, math.inf), (math.inf, 0.1)])
def test_glitch_with_non_finite_time_rejected(pipeline, at, width):
    circuit, monitored = pipeline
    with pytest.raises(ValueError):
        is_susceptible(circuit, {}, monitored, Glitch("c2", at, width), CFG)


@pytest.mark.parametrize("kwargs", [{"gamma": 0.0}, {"step": 0.0}])
def test_naive_rejects_nonpositive_gamma_and_step(pipeline, kwargs):
    circuit, monitored = pipeline
    with pytest.raises(ValueError, match="must be positive"):
        analyze_naive(circuit, {}, monitored, config=CFG, **kwargs)


def test_invalid_circuit_without_rules_rejected_as_execute_does():
    # no rules, so no d_max to size the settle window: the circuit check comes first
    circuit = Circuit(inputs=(), locals=(), outputs={"o"}, initial={}, rules=())
    with pytest.raises(CircuitInvalid):
        execute(circuit, {}, CFG)
    with pytest.raises(CircuitInvalid):
        analyze(circuit, {}, {"o"}, config=CFG)


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of every process pool an analysis starts."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", CountingPool)
    return started


def _missing_init():
    # a library-built chain of two buffers i -> a -> o, with two signals to
    # probe; o is driven but has no initial value
    return Circuit(
        inputs={"i"},
        locals={"a"},
        outputs={"o"},
        initial={"a": Value.ZERO},
        rules=[
            ProductionRule(SignalRef("i"), "a", 1, 1.0),
            ProductionRule(Not(SignalRef("i")), "a", 0, 1.0),
            ProductionRule(SignalRef("a"), "o", 1, 1.0),
            ProductionRule(Not(SignalRef("a")), "o", 0, 1.0),
        ],
    )


@pytest.mark.parametrize(
    "case,text",
    [
        ("missing-init", "missing-init on o: driven signal has no initial value"),
        ("unknown-monitor", "unknown-signal on nosuch: monitor names an undeclared signal"),
    ],
    ids=["missing-init", "unknown-monitor"],
)
def test_query_errors_are_the_same_for_every_jobs(pools, case, text):
    """An invalid query raises in the caller, before any pool starts, with
    the one CircuitInvalid, text and violations, for every jobs."""
    if case == "missing-init":
        circuit, inputs, monitored = _missing_init(), {"i": make_trace(Value.ZERO, horizon=32.0)}, {"o"}
    else:
        circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
        inputs, monitored = {}, monitored | {"nosuch"}
    errors = []
    for jobs in (1, 2):
        with pytest.raises(CircuitInvalid) as info:
            analyze(circuit, inputs, monitored, config=CFG, jobs=jobs)
        errors.append((str(info.value), info.value.violations))
    assert errors[0] == errors[1] and errors[0][0] == text
    assert pools == []


@pytest.mark.parametrize("jobs", [2.0, 1.5, "2", None, True])
def test_analyze_rejects_jobs_that_is_not_an_integer(pools, jobs):
    """A jobs that is not an integer fails before any work starts: no pool
    and no fault-free run."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    with pytest.raises(ValueError, match="jobs must be an integer"):
        analyze(circuit, {}, monitored, config=CFG, jobs=jobs)
    assert pools == [] and "_fault_free_run" not in vars(circuit)


def test_unknown_injection_signal_rejected(pipeline):
    circuit, monitored = pipeline
    for run in (analyze, analyze_naive):
        with pytest.raises(ValueError, match="injection signals not in circuit: nosuch$"):
            run(circuit, {}, monitored, config=CFG, injection_set={"c2", "nosuch"})


@pytest.fixture
def kernel_runs(monkeypatch):
    """The number of kernel runs the analyses start."""
    runs = []
    kernel = analysis._kernel

    def counted(*args, **kwargs):
        runs.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "_kernel", counted)
    return runs


UNKNOWN_MONITOR = (CircuitInvalid, "unknown-signal on nosuch: monitor names an undeclared signal")
UNKNOWN_INJECTION = (ValueError, "injection signals not in circuit: nosuch")


@pytest.mark.parametrize(
    "query,error,text",
    [
        (lambda c, m: is_susceptible(c, {}, m | {"nosuch"}, Glitch("c2", 10.0, 0.1), CFG), *UNKNOWN_MONITOR),
        (lambda c, m: analyze(c, {}, m | {"nosuch"}, config=CFG), *UNKNOWN_MONITOR),
        (lambda c, m: analyze_naive(c, {}, m | {"nosuch"}, config=CFG), *UNKNOWN_MONITOR),
        (lambda c, m: analyze(c, {}, m, config=CFG, injection_set={"nosuch"}), *UNKNOWN_INJECTION),
        (lambda c, m: analyze_naive(c, {}, m, config=CFG, injection_set={"nosuch"}), *UNKNOWN_INJECTION),
    ],
    ids=["is_susceptible-monitor", "analyze-monitor", "analyze_naive-monitor", "analyze-injection", "analyze_naive-injection"],
)
def test_unknown_signal_rejected_before_any_kernel_run(kernel_runs, query, error, text):
    """An unknown monitored or injection signal is rejected before the
    fault-free run is built; it used to cost one fault-free kernel run."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    with pytest.raises(error) as info:
        query(circuit, monitored)
    assert type(info.value) is error and str(info.value) == text
    assert kernel_runs == [] and "_fault_free_run" not in vars(circuit)


def test_invalid_circuit_raises_its_own_violations_before_unknown_signals(kernel_runs):
    circuit, inputs = _missing_init(), {"i": make_trace(Value.ZERO, horizon=32.0)}
    for query in (
        lambda: analyze(circuit, inputs, {"o", "nosuch"}, config=CFG),
        lambda: analyze(circuit, inputs, {"o"}, config=CFG, injection_set={"nosuch"}),
        lambda: is_susceptible(circuit, inputs, {"nosuch"}, Glitch("a", 1.0, 0.1), CFG),
    ):
        with pytest.raises(CircuitInvalid, match="^missing-init on o: driven signal has no initial value$"):
            query()
    assert kernel_runs == []


def test_monitored_may_be_a_one_shot_iterable(pipeline):
    circuit, monitored = pipeline
    report = analyze(circuit, {}, iter(sorted(monitored)), config=CFG)
    assert report.monitored == tuple(sorted(monitored)) and report.p_fail == P_FAIL_3STAGE_T32
    naive = analyze_naive(circuit, {}, iter(sorted(monitored)), step=1.0, config=CFG)
    assert naive.injected == report.injected


# the prefix-shaped regions of linear-3 (γ=0.1): at T=100 the run repeats
# from t2=35 on, so the regions from [41, 42) on replay [30, 31)'s verdicts
PREFIX_REGIONS = {
    (32.0, 0.01): [(19.0, 20.0), (30.0, 31.0)],
    (100.0, 0.05): [(t, t + 1.0) for t in (19.0, 30.0, 41.0, 52.0, 63.0, 74.0, 85.0, 96.0)],
}


@pytest.mark.parametrize("horizon,delta", sorted(PREFIX_REGIONS))
def test_postfix_warnings_are_the_same_for_every_jobs(horizon, delta):
    """Every jobs lists each prefix-shaped region once, in injection and
    then region order; a pool used to lose them all."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    found = [
        analyze(circuit, {}, monitored, 0.1, delta, SimConfig(horizon, 0.1), jobs=jobs).postfix_violations
        for jobs in (1, 2)
    ]
    expected = tuple(("c2", a, b) for a, b in PREFIX_REGIONS[horizon, delta])
    assert found == [expected, expected]


def test_analyze_raises_no_warning():
    """A prefix-shaped region goes into the report, not to ``warnings``."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(circuit, {}, monitored, 0.1, 0.05, SimConfig(100.0, 0.1))
    assert len(report.postfix_violations) == 8


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers share the run only under fork")
def test_fork_workers_share_the_callers_run(pools, monkeypatch, tmp_path):
    """With jobs=3 the caller builds the query's fault-free run before the
    pool starts, and fork-started workers read it: one run is built in all
    the processes together, not one per worker."""
    log = tmp_path / "runs"
    build = analysis._FaultFreeRun.__init__

    def logged(self, *args):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        build(self, *args)

    monkeypatch.setattr(analysis._FaultFreeRun, "__init__", logged)
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    report = analyze(circuit, {}, monitored, 0.1, 0.01, CFG, jobs=3)
    assert len(pools) == 1 and log.read_text().split() == [str(os.getpid())]
    assert report.p_fail == P_FAIL_3STAGE_T32


SPAWN_SCRIPT = """
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from faultscope import SimConfig, analysis
from faultscope.generators import PipelineSpec, linear_pipeline
from faultscope.netlist import write_report

pools = []


class CountingPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        pools.append(multiprocessing.get_start_method())
        super().__init__(*args, **kwargs)


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    analysis.ProcessPoolExecutor = CountingPool
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    config = SimConfig(32.0, 0.1)
    reports = [write_report(analysis.analyze(circuit, {}, monitored, 0.1, 0.01, config, jobs=jobs)) for jobs in (1, 2)]
    print(pools, reports[0] == reports[1])
"""


def test_spawn_workers_write_the_serial_report():
    """Spawn-started workers get the circuit pickled, without its run, and
    rebuild the run; the report they help write is the serial one, byte
    for byte."""
    src = str(Path(faultscope.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.split("\n")[0] == "['spawn'] True"


def test_flip_pulses_probe_the_monitored_signals():
    """Under flip-pulses a monitored signal in the injection set is probed
    like any other, as a flip on it need not drive a monitored signal to X:
    its windows hold no masked grid pulse, and flips on c1 at 9 and 20 are
    masked."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    report = analyze(circuit, {}, monitored, 0.1, 0.01, CFG, injection_set=circuit.signals, fault_kind=FLIP_PULSE)
    assert report.p_per_signal["c1"] == pytest.approx(0.99937, abs=1e-5)
    assert report.p_per_signal["c3"] == pytest.approx(0.75254, abs=1e-5)
    for w in report.windows:
        if w.signal in monitored:
            grid = [k * 0.25 for k in range(128) if w.start <= k * 0.25 < w.end]
            for at in grid:
                assert is_susceptible(circuit, {}, monitored, Glitch(w.signal, at, 0.1, FLIP_PULSE), CFG), (w, at)
    for at in (9.0, 20.0):
        assert not is_susceptible(circuit, {}, monitored, Glitch("c1", at, 0.1, FLIP_PULSE), CFG)


def test_unknown_pulse_kind_rejected_without_probes(pipeline):
    # at T=0, or with only monitored signals injected, no probe runs
    circuit, monitored = pipeline
    with pytest.raises(ValueError, match="unknown pulse kind"):
        analyze(circuit, {}, monitored, config=SimConfig(0.0, 0.1), fault_kind="zap")
    with pytest.raises(ValueError, match="unknown pulse kind"):
        analyze(circuit, {}, monitored, config=CFG, injection_set=monitored, fault_kind="zap")
    with pytest.raises(ValueError, match="unknown pulse kind"):
        is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, 0.1, "zap"), CFG)


def test_kept_run_is_not_pickled():
    """A circuit keeps its last fault-free run but does not pickle it: a
    pickled copy equals the circuit and carries no run, and an analysis on
    a pool of a circuit that answered a query writes the report one without
    a pool writes."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    assert is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, 0.1), CFG)
    copy = pickle.loads(pickle.dumps(circuit))
    assert copy == circuit and "_fault_free_run" not in vars(copy)
    serial = write_report(analyze(circuit, {}, monitored, 0.1, 0.01, CFG))
    assert write_report(analyze(circuit, {}, monitored, 0.1, 0.01, CFG, jobs=2)) == serial


def test_probes_exit_early_on_reconvergence(monkeypatch):
    """A masked probe stops at the first visit, from its pulse's restore on,
    whose state is the fault-free one.  Verdicts and probe counts would not
    show a lost exit, so the convergence checks are counted: on the 3-stage
    pipeline, the 150 probes make 71 checks, and 68 of them match."""
    checks = []
    matches = _ProbeContext.matches

    def counted(self, *args):
        checks.append(matches(self, *args))
        return checks[-1]

    monkeypatch.setattr(_ProbeContext, "matches", counted)
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    report = analyze(circuit, {}, monitored, 0.1, 0.05, CFG)
    assert report.simulations == 150
    assert (len(checks), checks.count(True)) == (71, 68)


def test_kept_run_does_not_keep_its_circuit_alive():
    """The run and the probe context a circuit keeps hold no reference back
    to it, so reference counting alone frees all three."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    verdict = is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, 0.1), CFG)
    kept = vars(circuit)
    assert verdict and "_fault_free_run" in kept and "_probe_context" in kept
    refs = [weakref.ref(x) for x in (circuit, kept["_fault_free_run"], kept["_probe_context"])]
    del kept
    gc.disable()
    try:
        del circuit
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


# --- the probe context is_susceptible keeps ---------------------------------------


def _kept_context(circuit):
    return vars(circuit).get("_probe_context")


@pytest.mark.parametrize(
    "spec, horizon",
    [(PipelineSpec(3, 1, 5, 4, 4), 32.0), (MultiBitSpec(4, 3, 1, 5, 4, 4), 500.0)],
    ids=["lin3", "mb4"],
)
def test_kept_context_gives_a_fresh_contexts_verdicts(spec, horizon):
    """200 seeded queries share one kept context, and each verdict is the
    one a new context gives."""
    circuit, monitored = (linear_pipeline if isinstance(spec, PipelineSpec) else multibit_linear_pipeline)(spec)
    config = SimConfig(horizon, 0.1)
    rng = random.Random(22)
    signals = sorted(circuit.signals - monitored)
    kept, verdicts = None, []
    for _ in range(200):
        glitch = Glitch(rng.choice(signals), rng.uniform(0.0, horizon - 0.1), 0.1)
        verdict = is_susceptible(circuit, {}, monitored, glitch, config)
        kept = kept or _kept_context(circuit)
        assert _kept_context(circuit) is kept
        fresh = _ProbeContext(circuit, {}, config, monitored, glitch.kind)
        assert verdict == fresh.probe(glitch.signal, glitch.at, glitch.width), glitch
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize(
    "spec, horizon, gamma",
    [
        (PipelineSpec(3, 1, 5, 4, 4), 32.0, 0.1),
        (PipelineSpec(3, 1, 5, 4, 4), 35.05, 0.1),
        (MultiBitSpec(4, 3, 1, 5, 4, 4), 100.0, 0.1),
        (PipelineSpec(3, 1, 5, 4, 4), 32.0, 2.0**-48),
    ],
    ids=["lin3/32", "lin3/35.05", "mb4/100", "lin3/32/gamma=2^-48"],
)
def test_is_susceptible_takes_every_pulse_analyze_probes(monkeypatch, spec, horizon, gamma):
    """Every pulse ``analyze`` probes obeys the model's pulse rule, so
    ``is_susceptible`` takes it, and gives it the verdict ``analyze`` got.
    At T=35.05 on linear-3 the last region [35.0, 35.05) is shorter than
    γ, and its pulses end past T.  2^-48 is the smallest γ analyze takes
    at T=32: it is just over half the float spacing below T, so each probed
    pulse still ends after it starts."""
    circuit, monitored = (linear_pipeline if isinstance(spec, PipelineSpec) else multibit_linear_pipeline)(spec)
    config = SimConfig(horizon, 0.1)
    probed = []
    probe = _ProbeContext.probe

    def recorded(self, signal, at, width, memo=None):
        sus = probe(self, signal, at, width, memo=memo)
        probed.append((signal, at, width, sus))
        return sus

    monkeypatch.setattr(_ProbeContext, "probe", recorded)
    analyze(circuit, {}, monitored, gamma=gamma, delta=0.01, config=config)
    monkeypatch.undo()
    assert probed
    for signal, at, width, sus in probed:
        assert is_susceptible(circuit, {}, monitored, Glitch(signal, at, width), config) == sus, (signal, at)
    if horizon == 35.05:
        last = {signal: sus for signal, at, _, sus in probed if at == 35.0}
        assert last == {"c2": True, "en1": True, "en2": True, "en3": False, "src": False}


def test_queries_with_one_config_object_render_it_once(monkeypatch):
    """200 queries with one config object render it for the first run's key
    only: the kept run's own config needs no ``repr``, as ``SimConfig`` is
    frozen."""
    circuit, monitored = multibit_linear_pipeline(MultiBitSpec(4, 3, 1, 5, 4, 4))
    config = SimConfig(500.0, 0.1)
    renders = 0
    render = SimConfig.__repr__

    def counting(self):
        nonlocal renders
        renders += 1
        return render(self)

    monkeypatch.setattr(SimConfig, "__repr__", counting)
    rng = random.Random(22)
    signals = sorted(circuit.signals - monitored)
    for _ in range(200):
        is_susceptible(circuit, {}, monitored, Glitch(rng.choice(signals), rng.uniform(0.0, 499.9), 0.1), config)
    assert renders == 1


def test_kept_context_is_rebuilt_for_another_query():
    """A change of the monitored set, the pulse kind, the horizon (32 is not
    32.0) or the inputs builds a new context, which overlays the run the
    circuit keeps; the same query again keeps it."""
    circuit = Circuit(
        inputs={"i"},
        locals={"a"},
        outputs={"o"},
        initial={"a": Value.ONE, "o": Value.ZERO},
        rules=[
            ProductionRule(SignalRef("i"), "a", 0, 1.0),
            ProductionRule(Not(SignalRef("i")), "a", 1, 1.0),
            ProductionRule(SignalRef("a"), "o", 1, 1.0),
            ProductionRule(Not(SignalRef("a")), "o", 0, 1.0),
        ],
    )
    rise = {"i": make_trace(Value.ZERO, [(4.0, Value.ONE)])}
    fall = {"i": make_trace(Value.ONE, [(4.0, Value.ZERO)])}
    queries = [
        ({"o"}, Glitch("a", 2.0, 0.1), SimConfig(32.0, 0.1), rise),
        ({"o"}, Glitch("a", 2.0, 0.1), SimConfig(32.0, 0.1), rise),
        ({"a", "o"}, Glitch("a", 2.0, 0.1), SimConfig(32.0, 0.1), rise),
        ({"a", "o"}, Glitch("a", 2.0, 0.1, FLIP_PULSE), SimConfig(32.0, 0.1), rise),
        ({"a", "o"}, Glitch("a", 2.0, 0.1, FLIP_PULSE), SimConfig(32, 0.1), rise),
        ({"a", "o"}, Glitch("a", 2.0, 0.1, FLIP_PULSE), SimConfig(32, 0.1), fall),
        ({"o"}, Glitch("a", 2.0, 0.1), SimConfig(32.0, 0.1), rise),
    ]
    contexts = []
    for monitored, glitch, config, inputs in queries:
        is_susceptible(circuit, inputs, monitored, glitch, config)
        ctx = _kept_context(circuit)
        assert ctx.run is vars(circuit)["_fault_free_run"]
        assert (ctx.monitored, ctx.fault_kind, ctx.run.config, ctx.run.key) == (
            sorted(monitored), glitch.kind, config, (repr(config), repr(sorted(inputs.items())))
        )
        contexts.append(ctx)
    assert contexts[1] is contexts[0]
    assert len({id(ctx) for ctx in contexts}) == 6


def test_kept_context_goes_with_its_run():
    """A new fault-free run on the circuit drops the kept context with the
    run it overlays, so the circuit never keeps two runs."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    is_susceptible(circuit, {}, monitored, Glitch("c2", 10.0, 0.1), CFG)
    old = weakref.ref(vars(circuit)["_fault_free_run"])
    analyze(circuit, {}, monitored, 0.1, 0.05, SimConfig(20.0, 0.1))
    assert old() is None and _kept_context(circuit) is None


def test_unknown_monitored_name_raises_on_every_query():
    """An unknown monitored name raises before any kernel run, with or
    without a kept context, and leaves the kept context and run alone."""
    circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    bad = set(monitored) | {"nope"}
    glitch = Glitch("c2", 10.0, 0.1)
    for _ in range(2):
        with pytest.raises(CircuitInvalid, match="nope"):
            is_susceptible(circuit, {}, bad, glitch, CFG)
    assert _kept_context(circuit) is None and "_fault_free_run" not in vars(circuit)
    assert is_susceptible(circuit, {}, monitored, glitch, CFG)
    ctx, run = _kept_context(circuit), vars(circuit)["_fault_free_run"]
    for config in (CFG, SimConfig(40.0, 0.1)):
        with pytest.raises(CircuitInvalid, match="nope"):
            is_susceptible(circuit, {}, bad, glitch, config)
    assert _kept_context(circuit) is ctx and vars(circuit)["_fault_free_run"] is run


def test_analyses_count_their_own_probes_after_queries():
    """``analyze`` and ``analyze_naive`` build their own context, so queries
    made before them on the circuit add nothing to ``simulations``."""
    fresh, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    used, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    for at in (1.0, 10.0, 20.0):
        is_susceptible(used, {}, monitored, Glitch("c2", at, 0.1), CFG)
    assert _kept_context(used).simulations == 3
    for run, probes in (
        (lambda c: analyze(c, {}, monitored, 0.1, 0.05, CFG), 150),
        (lambda c: analyze_naive(c, {}, monitored, 0.1, 1.0, CFG), 5 * 32),
    ):
        assert run(used).simulations == run(fresh).simulations == probes
