"""Invariants the incremental kernel relies on: rule numbering, the guard
value cache, and compiled guards against the Kleene reference."""

import math
import random

from hypothesis import given, strategies as st

from faultscope import And, Circuit, Not, Or, ProductionRule, SignalRef, SimConfig, Value, analysis, eval_guard, execute, make_trace, sim
from faultscope.analysis import _ProbeContext
from faultscope.generators import (
    MultiBitSpec,
    PipelineSpec,
    RingSpec,
    linear_pipeline,
    multibit_linear_pipeline,
    ring_pipeline,
)
from faultscope.netlist import parse_circuit, serialize_circuit
from faultscope.sim import X, _compiled, _kernel, _prepare_inputs, _Seed
from test_golden import _pass_order_circuit
from util import logged_kernel, random_circuit, random_input_traces


def _fresh_guards(circuit, comp, values):
    """Every rule's guard by the reference evaluator, in rule id order."""
    env = {name: Value(values[i]) for i, name in enumerate(comp.names)}
    rule = {(r.target, float(r.value)): r for r in circuit.rules}
    return [
        eval_guard(rule[(comp.names[tgt], bval)].guard, env).value
        for tgt, bval in zip(comp.targets, comp.bvals)
    ]


def test_rule_ids_ascend_with_target():
    """Rule id order is (target, up-rule first) order, so sorting due rule
    ids sorts them by target; each guard has its own profiler file name."""
    rng = random.Random(30)
    for _ in range(50):
        comp = _compiled(random_circuit(rng, max_driven=8))
        keys = [(tgt, -bval) for tgt, bval in zip(comp.targets, comp.bvals)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for rid, fn in enumerate(comp.fns):
            label = comp.names[comp.targets[rid]] + ("+" if comp.bvals[rid] else "-")
            assert comp.labels[rid] == label
            assert fn.__code__.co_filename == f"<guard {label}>"


def test_guard_cache_matches_fresh_guards_at_every_visit():
    """At the end of every visit of a base run with a pulse, the kernel's
    cached guard values equal the guards evaluated afresh, for the run from
    t=0 and for a run resumed from an earlier snapshot."""
    rng = random.Random(31)
    for _ in range(40):
        circuit = random_circuit(rng, max_driven=8)
        T = 30.0
        comp = _compiled(circuit)
        in_initial, in_transitions = _prepare_inputs(comp, random_input_traces(rng, circuit, T, allow_x=True), T)
        sid, at = rng.randrange(comp.n), rng.uniform(0.0, T - 1.0)
        pulse = [(at, sid, 0.5), (at + 0.3, sid, rng.choice((0.0, 1.0)))]
        _, base = logged_kernel(comp, in_transitions, in_initial, T, 0.1, pulse)
        ends = base.visit_times[1:] + [T]
        for i, (snap, end) in enumerate(zip(base.snapshots, ends)):
            # cut just after visit i
            cut = _kernel(comp, in_transitions, in_initial, end, 0.1, pulse)
            assert cut.values == snap.values
            assert cut.gv == _fresh_guards(circuit, comp, cut.values)
            seed = base.snapshots[rng.randrange(i + 1)]
            resumed = _kernel(comp, in_transitions, in_initial, end, 0.1, pulse, seed=seed)
            assert resumed.values == snap.values
            assert resumed.gv == cut.gv


NAMES = ("a", "b", "c", "d")


def wide_guards():
    leaf = st.sampled_from(NAMES).map(SignalRef)
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=4).map(lambda cs: And(*cs)),
            st.lists(sub, min_size=2, max_size=4).map(lambda cs: Or(*cs)),
        ),
        max_leaves=10,
    )


@given(wide_guards(), st.fixed_dictionaries({n: st.sampled_from(list(Value)) for n in NAMES}))
def test_compiled_guard_matches_kleene(guard, env):
    circuit = Circuit(
        inputs=NAMES,
        locals=(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(guard, "o", 1, 1.0)],
    )
    comp = _compiled(circuit)
    values = [env[name].value if name in env else 0.0 for name in comp.names]
    assert comp.fns[0](values) == eval_guard(guard, env).value


def _check_fns_against_kleene(circuit, rng, vectors=40):
    """Every compiled guard against ``eval_guard`` on random ternary vectors."""
    comp = _compiled(circuit)
    for _ in range(vectors):
        values = [rng.choice((0.0, X, 1.0)) for _ in range(comp.n)]
        assert [fn(values) for fn in comp.fns] == _fresh_guards(circuit, comp, values)


def test_guards_of_one_shape_read_their_own_signals():
    """Rules compiled from one shape each read their own signals, and a
    guard that reads a signal twice fills each of its slots."""
    a, b, c, d = map(SignalRef, NAMES)
    circuit = Circuit(
        inputs=NAMES,
        locals=(),
        outputs={"w", "x", "y", "z"},
        initial={s: Value.ZERO for s in "wxyz"},
        rules=[
            ProductionRule(And(a, b), "x", 1, 1.0),
            ProductionRule(And(Not(a), Not(b)), "x", 0, 1.0),
            ProductionRule(And(d, c), "y", 1, 2.0),
            ProductionRule(And(Not(d), Not(c)), "y", 0, 2.0),
            ProductionRule(And(a, Not(a)), "z", 1, 1.0),
            ProductionRule(Or(a, And(a, b)), "w", 1, 1.0),
            ProductionRule(And(Not(a), Not(b)), "w", 0, 1.0),
        ],
    )
    comp = _compiled(circuit)
    rid = {label: i for i, label in enumerate(comp.labels)}
    x_up, y_up = comp.fns[rid["x+"]].__code__, comp.fns[rid["y+"]].__code__
    assert x_up.co_code == y_up.co_code and x_up.co_consts != y_up.co_consts
    assert comp.fns[rid["y+"]]([1.0, 1.0, 0.0, 1.0, 0, 0, 0, 0]) == 0.0  # reads c and d, not a and b
    _check_fns_against_kleene(circuit, random.Random(31))


def test_preset_guards_match_kleene():
    rng = random.Random(32)
    for circuit, _ in (
        multibit_linear_pipeline(MultiBitSpec(8, 3, 1, 5, 4, 4)),
        ring_pipeline(RingSpec(20, 5, 1, 5)),
        linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)),
    ):
        _check_fns_against_kleene(circuit, rng, vectors=10)


def _counting_compile(monkeypatch):
    """Clear the per-process guard and step-4 shapes and record the source
    of every ``compile`` call made by ``sim``."""
    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(sim, "_GUARD_SHAPES", {})
    monkeypatch.setattr(sim, "_STEP4_SHAPES", {})
    monkeypatch.setattr(sim, "compile", counting_compile, raising=False)
    return calls


def test_guards_compile_once_per_shape(monkeypatch):
    """mb8's 254 rules have 23 guard shapes: compiling the circuit calls
    ``compile`` once per shape."""
    circuit, _ = multibit_linear_pipeline(MultiBitSpec(8, 3, 1, 5, 4, 4))
    calls = _counting_compile(monkeypatch)
    comp = sim._Compiled(circuit)
    assert len(comp.fns) == 254
    assert len(calls) == len(set(calls)) == 23


def test_step4_compiles_once_per_fan_out_shape(monkeypatch):
    """mb8's 127 step-4 handlers come from 11 fan-out shapes, each compiled
    once per process, by the first run that makes a visit: not by parsing,
    not by a T=0 run, and not again for a second parse of the netlist,
    which compiles no guard shape either."""
    calls = _counting_compile(monkeypatch)
    text = serialize_circuit(*multibit_linear_pipeline(MultiBitSpec(8, 3, 1, 5, 4, 4)))
    circuit, _ = parse_circuit(text)
    execute(circuit, {}, SimConfig(0.0))
    assert _compiled(circuit).step4 is None
    assert len(calls) == len(set(calls)) == 23  # the guard shapes
    execute(circuit, {}, SimConfig(10.0))
    shapes = [c for c in calls if c.startswith("def step4")]
    assert len(shapes) == len(set(shapes)) == 11
    assert len(calls) == 23 + 11
    again, _ = parse_circuit(text)
    execute(again, {}, SimConfig(0.0))
    execute(again, {}, SimConfig(10.0))
    assert len(calls) == 23 + 11
    comp = _compiled(again)
    assert [h.__code__.co_filename for h in comp.step4] == [f"<step4 {name}>" for name in comp.names]


def test_full_shape_caches_drop_the_oldest(monkeypatch):
    """With room for one shape per cache, each new shape evicts the one
    before it, and two circuits of different shapes, each run twice, give
    the events they give with the caches intact."""
    builds = [lambda: linear_pipeline(PipelineSpec(3, 1, 5, 4, 4)), lambda: ring_pipeline(RingSpec(6, 2, 1, 5))]
    cfg = SimConfig(40.0, 0.1)
    want = [execute(build()[0], {}, cfg).events for build in builds]
    monkeypatch.setattr(sim, "_SHAPES_MAX", 1)
    calls = _counting_compile(monkeypatch)
    for build, events in [*zip(builds, want), *zip(builds, want)]:
        assert execute(build()[0], {}, cfg).events == events
        assert len(sim._GUARD_SHAPES) == len(sim._STEP4_SHAPES) == 1
    assert len(calls) > len(set(calls))  # an evicted shape is compiled again


def test_step4_handlers_of_one_shape_schedule_their_own_readers(monkeypatch):
    """The handlers of a and c share their code, and each evaluates and
    schedules its own readers: x's rules for a, y's for c, with y's delay."""
    monkeypatch.setattr(sim, "_STEP4_SHAPES", {})
    a, b, c, d = map(SignalRef, NAMES)
    circuit = Circuit(
        inputs=NAMES,
        locals=(),
        outputs={"x", "y"},
        initial={"x": Value.ZERO, "y": Value.ZERO},
        rules=[
            ProductionRule(And(a, b), "x", 1, 1.0),
            ProductionRule(And(Not(a), Not(b)), "x", 0, 1.0),
            ProductionRule(And(c, d), "y", 1, 2.0),
            ProductionRule(And(Not(c), Not(d)), "y", 0, 2.0),
        ],
    )
    comp = _compiled(circuit)
    step4 = comp.build_step4()
    ia, ib, ic, ix, iy = (comp.idx[s] for s in "abcxy")
    x_up, y_up = comp.labels.index("x+"), comp.labels.index("y+")
    assert step4[ia].__code__.co_code == step4[ic].__code__.co_code
    assert step4[ia].__code__.co_consts != step4[ic].__code__.co_consts

    values = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]  # a b c d x y: c and d are 1
    gv = [0.0, 0.0, 0.0, 0.0]
    pend, pend_x, queue, times, new_x = {}, {}, {}, [], []
    mask = step4[ic](values, gv, pend, pend_x, queue, times, 3.0, 3.1, new_x, 0)
    assert (pend, mask, queue, times, gv) == ({y_up: 5.0}, 1 << y_up, {5.0: [y_up]}, [5.0], [0.0, 0.0, 1.0, 0.0])
    values[ia], values[ib] = X, 1.0  # a at X and b at 1: x+ at X, an X on x at t_x
    assert step4[ia](values, gv, pend, pend_x, queue, times, 4.0, 4.1, new_x, mask) == mask
    assert (pend_x, new_x, gv) == ({ix: 4.1}, [len(gv) + ix], [X, 0.0, 1.0, 0.0])
    assert iy not in pend_x and list(pend) == [y_up]

def test_visit_times_of_the_queue():
    """A visit for every input time and every due time, those of actions
    canceled before they fall due included (4 and 6: b+, c+ and a+ are
    canceled at 2); a run resumed from a snapshot queues only the actions
    pending in it."""
    circuit = _pass_order_circuit()
    inputs = {
        "i": make_trace(Value.ZERO, [(1.0, Value.ONE), (2.0, Value.X), (3.0, Value.ONE)]),
        "k": make_trace(Value.ZERO, [(1.0, Value.ONE)]),
    }
    comp = _compiled(circuit)
    in_initial, in_transitions = _prepare_inputs(comp, inputs, 15.0)
    _, base = logged_kernel(comp, in_transitions, in_initial, 15.0, 0.1, ())
    assert base.visit_times == [0, 1, 2, 3, 4, 6, 11]
    for at, times in ((1.0, [2, 3, 4, 6, 11]), (2.0, [3, 6, 11])):
        seed = base.snapshots[base.visit_times.index(at)]
        _, resumed = logged_kernel(comp, in_transitions, in_initial, 15.0, 0.1, (), seed=seed)
        assert resumed.visit_times == times


def test_resumed_queue_is_a_private_copy(monkeypatch):
    """Each resume builds its own queue from the seed's template.  Two
    probes on linear-3 at T=32 resume from the snapshot at 15, whose
    template queues an action due at 20.  The first (en2 at 19, width 2)
    appends rule 9 to the bucket at 20 at its visit at 19.  Afterwards the
    template is still the one a fresh seed builds, and the second probe
    (en3 at 19, width 2) gives the verdict and visits of the same probe on
    a fresh circuit.  An entry leaked into a shared bucket would pass as a
    canceled action, so neither verdicts nor visit counts would show it."""
    visits, appended = [], []
    kernel = analysis._kernel

    def counting(*args, **kwargs):
        if kwargs.get("record", True):  # the fault-free run
            return kernel(*args, **kwargs)
        seed, hook = kwargs["seed"], kwargs["after_visit"]
        seed_dues = {*seed.pend.values(), *seed.pend_x.values()}

        def counted(t, values, pend, pend_x):
            visits.append(t)
            appended.extend(
                (rid, due) for rid, due in pend.items() if t < due in seed_dues and seed.pend.get(rid) != due
            )
            return hook(t, values, pend, pend_x)

        kwargs["after_visit"] = counted
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "_kernel", counting)

    def context():  # on a new circuit, so with its own fault-free run
        circuit, monitored = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
        return _ProbeContext(circuit, {}, SimConfig(32.0, 0.1), monitored)

    def probe(ctx, signal):
        visits.clear()
        sus = ctx.probe(signal, 19.0, 2.0)
        return sus, ctx.hit_time, visits[:]

    ctx = context()
    seed = ctx.run.snapshot(math.nextafter(19.0, -math.inf))
    assert seed.time == 15.0
    assert probe(ctx, "en2") == (False, -math.inf, [19.0, 20.0, 21.0])
    assert appended == [(9, 20.0)]
    fns = ctx.run.comp.fns
    assert seed.resume(fns) == _Seed(seed.time, seed.values, seed.pend, seed.pend_x).resume(fns)
    assert probe(ctx, "en3") == probe(context(), "en3") == (False, -math.inf, [19.0, 20.0, 21.0])
