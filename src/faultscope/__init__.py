"""faultscope: simulate delayed production rule sets under transient faults.

The package models asynchronous (QDI-style) circuits as production rule sets
with per-rule delays and 3-valued signal semantics, executes them
deterministically, injects X-pulse transient faults, and computes sensitivity
windows and the failure probability P(fail) by per-region bisection.
"""

from .prs import (
    And,
    Circuit,
    CircuitInvalid,
    GuardExpr,
    Not,
    Or,
    ProductionRule,
    SignalRef,
    SignalTrace,
    Value,
    Violation,
    eval_guard,
    guard_signals,
    make_trace,
    trace_value_at,
    validate_circuit,
)
from .sim import (
    Event,
    Execution,
    ExternalEvent,
    SimConfig,
    count_events,
    execute,
)
from .analysis import (
    Glitch,
    PostfixViolationWarning,
    SensitivityReport,
    SensitivityWindow,
    ValueRegion,
    analyze,
    analyze_naive,
    is_susceptible,
    make_transient,
    p_fail_weighted,
    value_regions,
)

__all__ = [
    "Glitch",
    "PostfixViolationWarning",
    "SensitivityReport",
    "SensitivityWindow",
    "ValueRegion",
    "analyze",
    "analyze_naive",
    "is_susceptible",
    "make_transient",
    "p_fail_weighted",
    "value_regions",
    "And",
    "Circuit",
    "CircuitInvalid",
    "Event",
    "Execution",
    "ExternalEvent",
    "GuardExpr",
    "Not",
    "Or",
    "ProductionRule",
    "SignalRef",
    "SignalTrace",
    "SimConfig",
    "Value",
    "Violation",
    "count_events",
    "eval_guard",
    "execute",
    "guard_signals",
    "make_trace",
    "trace_value_at",
    "validate_circuit",
]

__version__ = "0.1.0"
