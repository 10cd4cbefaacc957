"""Circuit validation and signal traces."""

import itertools
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from faultscope import (
    And,
    Circuit,
    CircuitInvalid,
    Not,
    Or,
    ProductionRule,
    SignalRef,
    SimConfig,
    Value,
    Violation,
    eval_guard,
    execute,
    guard_signals,
    make_trace,
    trace_value_at,
    validate_circuit,
)
from faultscope import prs
from faultscope.netlist import parse_circuit, serialize_circuit
from faultscope.prs import check_input_traces


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


def test_inverter_is_valid():
    assert validate_circuit(inverter()) == []


def test_same_guard_not_exclusive():
    c = Circuit(
        inputs={"a"},
        locals=set(),
        outputs={"s"},
        initial={"s": Value.ZERO},
        rules=[
            ProductionRule(SignalRef("a"), "s", 1, 1.0),
            ProductionRule(SignalRef("a"), "s", 0, 1.0),
        ],
    )
    kinds = {v.kind for v in validate_circuit(c)}
    assert "not-exclusive" in kinds
    v = next(v for v in validate_circuit(c) if v.kind == "not-exclusive")
    assert v.witness == {"a": Value.ONE}


GUARD_NAMES = ("a", "b", "c", "d")


def _guards(names=GUARD_NAMES):
    return st.recursive(
        st.sampled_from(names).map(SignalRef),
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=3).map(lambda cs: And(*cs)),
            st.lists(sub, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        ),
        max_leaves=6,
    )


def _guard_pairs():
    """Up/down guard pairs: independent ones (often not exclusive), pairs
    over one shared pair of signals, and a guard against its complement
    (exclusive) or against itself and more (not exclusive)."""
    shared = st.sampled_from(GUARD_NAMES).flatmap(lambda n: st.tuples(_guards((n, "d")), _guards((n, "d"))))
    derived = _guards().flatmap(
        lambda g: st.sampled_from([(g, Not(g)), (g, And(g, SignalRef("c"))), (Or(g, SignalRef("a")), g)])
    )
    return st.one_of(st.tuples(_guards(), _guards()), shared, derived)


@given(_guard_pairs(), st.sampled_from([1, 2, 3, prs._TABLE_BITS]))
def test_exclusion_matches_enumeration_through_eval_guard(pair, table_bits):
    """The up/down exclusion check finds a violation exactly when some
    Boolean assignment makes both guards 1, and its witness is the first
    such assignment in product order over the sorted support, also where
    the support is wider than a truth table and takes several."""
    up, down = pair
    circuit = Circuit(
        inputs=GUARD_NAMES,
        locals=(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(up, "o", 1, 1.0), ProductionRule(down, "o", 0, 1.0)],
    )
    support = sorted(guard_signals(up) | guard_signals(down))
    expected = [
        Violation("not-exclusive", "o", "up and down guards of o are simultaneously true", witness=assignment)
        for assignment in (
            dict(zip(support, bits)) for bits in itertools.product((Value.ZERO, Value.ONE), repeat=len(support))
        )
        if eval_guard(up, assignment) is Value.ONE and eval_guard(down, assignment) is Value.ONE
    ][:1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prs, "_TABLE_BITS", table_bits)
        violations = validate_circuit(circuit)
    assert violations == expected
    assert [str(v) for v in violations] == [str(v) for v in expected]
    for v in violations:
        assert list(v.witness) == support and all(type(b) is Value for b in v.witness.values())


def test_exclusion_witness_past_the_first_truth_table(monkeypatch):
    """A 14-signal support takes four 12-bit tables; the only common
    assignment sets every signal to 1, the last one of the last table."""
    names = [f"s{i:02d}" for i in range(14)]
    refs = [SignalRef(n) for n in names]
    circuit = Circuit(
        inputs=names,
        locals=(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(And(*refs[:7]), "o", 1, 1.0), ProductionRule(And(*refs[7:]), "o", 0, 1.0)],
    )
    (violation,) = validate_circuit(circuit)
    assert violation.witness == {n: Value.ONE for n in names}
    monkeypatch.setattr(prs, "_TABLE_BITS", 3)
    assert validate_circuit(circuit) == [violation]


@given(_guards())
def test_guard_text_round_trips(guard):
    """Serialized text parses back to the same guard, also where a guard
    nests an And in an And or an Or in an Or, and serializes again to the
    same text."""
    circuit = Circuit(
        inputs=GUARD_NAMES,
        locals=(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(guard, "o", 1, 1.0), ProductionRule(Not(guard), "o", 0, 1.0)],
    )
    text = serialize_circuit(circuit)
    parsed, _ = parse_circuit(text)
    assert parsed == circuit
    assert serialize_circuit(parsed) == text


def test_nested_guards_of_one_kind_keep_their_parentheses():
    a, b, c = SignalRef("a"), SignalRef("b"), SignalRef("c")
    assert str(And(a, And(b, c))) == "a & (b & c)"
    assert str(Or(Or(a, b), c)) == "(a | b) | c"
    assert str(Or(And(a, b), c)) == "a & b | c"
    assert str(And(Or(a, b), c)) == "(a | b) & c"
    assert str(Not(And(a, b))) == "!(a & b)"


@pytest.mark.parametrize("kind", [And, Or])
def test_one_child_is_not_a_gate(kind):
    with pytest.raises(ValueError, match=f"^{kind.__name__} needs at least two children$"):
        kind(SignalRef("a"))


@pytest.mark.parametrize(
    "guard,name",
    [("a", "a"), (Not("a"), "a"), (And(SignalRef("a"), "b"), "b")],
    ids=["str", "under-not", "under-and"],
)
def test_non_guard_is_a_type_error_everywhere(guard, name):
    """A rule whose guard is not a guard expression fails with one
    TypeError in validation, in execution and in evaluation."""
    c = Circuit(inputs={"a"}, locals=(), outputs={"o"}, initial={"o": Value.ZERO}, rules=[ProductionRule(guard, "o", 1, 1.0)])
    entries = [
        lambda: validate_circuit(c),
        lambda: execute(c, {"a": make_trace(Value.ZERO, horizon=1.0)}, SimConfig(1.0, 0.1)),
        lambda: eval_guard(guard, {"a": Value.ONE, "b": Value.ONE}),
    ]
    for entry in entries:
        with pytest.raises(TypeError, match=f"^not a guard expression: '{name}'$"):
            entry()


def test_exclusion_skips_a_guard_over_an_undeclared_signal():
    """The undeclared signal is reported once, as unknown-signal: the
    exclusion check does not assign it."""
    c = Circuit(
        inputs={"i"},
        locals=(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(SignalRef("ghost"), "o", 1, 1.0), ProductionRule(SignalRef("i"), "o", 0, 1.0)],
    )
    assert [(v.kind, v.subject) for v in validate_circuit(c)] == [("unknown-signal", "ghost")]


def test_zero_delay_rejected():
    """A zero delay, and an infinite one, which analyzed to settle = inf."""
    for delay in (0.0, float("inf")):
        c = Circuit(
            inputs={"i"},
            locals=set(),
            outputs={"o"},
            initial={"o": Value.ZERO},
            rules=[ProductionRule(SignalRef("i"), "o", 1, delay)],
        )
        assert any(v.kind == "bad-delay" for v in validate_circuit(c))


def test_rule_targeting_input_rejected():
    c = Circuit(
        inputs={"i"},
        locals=set(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[ProductionRule(SignalRef("o"), "i", 1, 1.0)],
    )
    assert any(v.kind == "bad-target" for v in validate_circuit(c))


def test_overlapping_sets_rejected():
    c = Circuit(
        inputs={"x"},
        locals={"x"},
        outputs={"o"},
        initial={"x": Value.ZERO, "o": Value.ZERO},
        rules=[ProductionRule(SignalRef("x"), "o", 1, 1.0)],
    )
    assert any(v.kind == "overlap" for v in validate_circuit(c))


def test_missing_and_extra_initials():
    c = Circuit(
        inputs=set(),
        locals={"a"},
        outputs={"o"},
        initial={"o": Value.ZERO, "ghost": Value.ONE},
        rules=[ProductionRule(SignalRef("a"), "o", 1, 1.0), ProductionRule(Not(SignalRef("a")), "o", 0, 1.0)],
    )
    kinds = {v.kind for v in validate_circuit(c)}
    assert "missing-init" in kinds and "extra-init" in kinds


def test_circuit_invalid_survives_pickling():
    """A CircuitInvalid crossing a process boundary keeps its violations,
    and so its text."""
    missing_init = Circuit(inputs={"i"}, locals=set(), outputs={"o"}, initial={}, rules=inverter().rules)
    for violations in (["a b"], validate_circuit(missing_init)):
        err = pickle.loads(pickle.dumps(CircuitInvalid(violations)))
        assert type(err) is CircuitInvalid
        assert err.violations == violations and str(err) == str(CircuitInvalid(violations))
    assert str(err) == "missing-init on o: driven signal has no initial value"


@pytest.mark.parametrize(
    "case,text",
    [
        ("bad-name", "bad-name on o-1: signal names must match [A-Za-z_][A-Za-z0-9_.]*"),
        ("bad-action", "bad-action on o: action value must be 0 or 1: i -> o = 2 [1.0]"),
        ("bad-action-text", "bad-action on o: action value must be 0 or 1: i -> o = '1' [1.0]"),
        ("bad-delay-text", "bad-delay on o: delay must be positive and finite: i -> o = 1 ['1.0']"),
        ("unknown-signal", "unknown-signal on ghost: guard references undeclared signal in: ghost -> o = 1 [1.0]"),
    ],
    ids=["bad-name", "bad-action", "bad-action-text", "bad-delay-text", "unknown-signal"],
)
def test_library_built_circuit_violations(case, text):
    """Each violation on a circuit built in code, with its text; a string
    action or delay is reported, not left to fail in Python's words."""
    out, guard, value, delay = "o", SignalRef("i"), 1, 1.0
    if case == "bad-name":
        out = "o-1"
    elif case == "bad-action":
        value = 2
    elif case == "bad-action-text":
        value = "1"
    elif case == "bad-delay-text":
        delay = "1.0"
    else:
        guard = SignalRef("ghost")
    c = Circuit(inputs={"i"}, locals=set(), outputs={out}, initial={out: Value.ZERO}, rules=[ProductionRule(guard, out, value, delay)])
    assert [str(v) for v in validate_circuit(c)] == [text]
    with pytest.raises(CircuitInvalid, match="^" + re.escape(text) + "$"):
        execute(c, {"i": make_trace(Value.ZERO, horizon=1.0)}, SimConfig(1.0, 0.1))


def test_duplicate_up_rule():
    c = Circuit(
        inputs={"a", "b"},
        locals=set(),
        outputs={"s"},
        initial={"s": Value.ZERO},
        rules=[
            ProductionRule(SignalRef("a"), "s", 1, 1.0),
            ProductionRule(SignalRef("b"), "s", 1, 1.0),
        ],
    )
    assert any(v.kind == "duplicate-rule" for v in validate_circuit(c))


def test_rules_that_set_one_value_are_ordered_by_guard_text():
    """Rules are ordered by target and up-rule first; two rules that set one
    target to one value also by guard text, in any order they were given."""
    a, b = SignalRef("a"), SignalRef("b")
    rules = [
        ProductionRule(b, "s", 1, 1.0),
        ProductionRule(Not(a), "t", 0, 1.0),
        ProductionRule(And(a, b), "s", 0, 1.0),
        ProductionRule(a, "s", 1, 2.0),
        ProductionRule(a, "t", 1, 1.0),
    ]
    for given_rules in (rules, rules[::-1]):
        c = Circuit(inputs={"a", "b"}, locals=set(), outputs={"s", "t"}, initial={}, rules=given_rules)
        assert [str(r) for r in c.rules] == [
            "a -> s = 1 [2.0]",
            "b -> s = 1 [1.0]",
            "a & b -> s = 0 [1.0]",
            "a -> t = 1 [1.0]",
            "!a -> t = 0 [1.0]",
        ]


def test_x_initial_permitted():
    c = Circuit(
        inputs={"i"},
        locals=set(),
        outputs={"o"},
        initial={"o": Value.X},
        rules=[
            ProductionRule(SignalRef("i"), "o", 0, 1.0),
            ProductionRule(Not(SignalRef("i")), "o", 1, 1.0),
        ],
    )
    assert validate_circuit(c) == []


def test_self_loop_guard_permitted():
    c = Circuit(
        inputs={"i"},
        locals=set(),
        outputs={"o"},
        initial={"o": Value.ZERO},
        rules=[
            ProductionRule(And(SignalRef("i"), Not(SignalRef("o"))), "o", 1, 1.0),
            ProductionRule(And(Not(SignalRef("i")), SignalRef("o")), "o", 0, 1.0),
        ],
    )
    assert validate_circuit(c) == []


def test_derived_metrics():
    c = inverter()
    assert c.size == 1
    assert c.d_min == 1.0


# --- traces -----------------------------------------------------------------


def test_trace_left_closed_at_transition():
    tr = make_trace(Value.ZERO, [(1.5, Value.X)])
    assert trace_value_at(tr, 1.5) is Value.X
    assert trace_value_at(tr, 1.4999) is Value.ZERO


def test_trace_inverter_input_b():
    # trace (b): up at 1, back down at 1.5
    tr = make_trace(Value.ZERO, [(1.0, Value.ONE), (1.5, Value.ZERO)])
    assert trace_value_at(tr, 1.2) is Value.ONE


def test_trace_domain_checked():
    tr = make_trace(Value.ZERO, [(1.0, Value.ONE)], horizon=4.0)
    with pytest.raises(ValueError):
        trace_value_at(tr, 4.5)
    with pytest.raises(ValueError):
        trace_value_at(tr, -0.1)


def test_trace_value_at_nan_rejected():
    tr = make_trace(Value.ZERO, [(1.0, Value.ONE)], horizon=4.0)
    with pytest.raises(ValueError, match="outside trace domain"):
        trace_value_at(tr, float("nan"))


def test_trace_times_strictly_increasing():
    with pytest.raises(ValueError):
        make_trace(Value.ZERO, [(1.0, Value.ONE), (1.0, Value.ZERO)])
    with pytest.raises(ValueError):
        make_trace(Value.ZERO, [(2.0, Value.ONE), (1.0, Value.ZERO)])


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_trace_times_finite(t):
    # before, both built a trace, and the kernel dropped the nan transition
    with pytest.raises(ValueError, match="finite"):
        make_trace(Value.ZERO, [(t, Value.ONE)])


def test_trace_transitions_change_value():
    with pytest.raises(ValueError):
        make_trace(Value.ZERO, [(1.0, Value.ZERO)])


def test_trace_consistency_with_transition_list():
    tr = make_trace(Value.ONE, [(1.0, Value.X), (2.5, Value.ZERO), (3.0, Value.ONE)])
    prev = tr.initial
    for t, v in tr.transitions:
        assert trace_value_at(tr, t) is v
        assert trace_value_at(tr, t - 1e-9) is prev
        prev = v


def test_trace_transition_past_its_horizon_rejected():
    with pytest.raises(ValueError, match="transition at 5.0 beyond horizon 4.0"):
        make_trace(Value.ZERO, [(1.0, Value.ONE), (5.0, Value.ZERO)], horizon=4.0)


def test_input_traces_checked_against_the_circuit():
    circuit = inverter()
    trace = make_trace(Value.ZERO, horizon=4.0)
    check_input_traces(circuit, {"i": trace}, 4.0)
    with pytest.raises(ValueError, match="traces given for non-input signals: o"):
        check_input_traces(circuit, {"i": trace, "o": trace}, 4.0)
    with pytest.raises(ValueError, match="input trace for 'i' ends at 4.0, before horizon 6.0"):
        check_input_traces(circuit, {"i": trace}, 6.0)
