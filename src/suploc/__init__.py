"""Supervisor localization for discrete-event systems.

Compute per-agent local supervisors from a monolithic supervisor, and, after
the system model is edited, transform previously computed results into local
supervisors for the edited system instead of starting over.
"""

from .automata import (
    Automaton,
    EventTable,
    FormatError,
    apply_state_order,
    load_automaton,
    parse_automaton,
    reachable_trim,
    save_automaton,
    sync_product,
    write_automaton,
)
from .bench import BenchReport, EquivalenceGateError, run_bench
from .cmt import CmtConfig, CmtSystem, gen_cmt, synthesize_cmt
from .context import (
    AgentSpec,
    ControlContext,
    SynthesisEmptyError,
    agents_from_table,
    build_context,
    synthesize_monolithic,
)
from .equivalence import EquivalenceVerdict, check_control_equivalence
from .localization import (
    Cover,
    CoverVerdict,
    InvalidCoverError,
    build_local_supervisor,
    is_control_congruence,
    load_cover,
    localize,
    parse_cover,
    save_cover,
    write_cover,
)
from .rng import SplitMix64
from .transform import carry_over_cover, isolate, tsl

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "Automaton",
    "BenchReport",
    "CmtConfig",
    "CmtSystem",
    "ControlContext",
    "Cover",
    "CoverVerdict",
    "EquivalenceGateError",
    "EquivalenceVerdict",
    "EventTable",
    "FormatError",
    "InvalidCoverError",
    "SplitMix64",
    "SynthesisEmptyError",
    "agents_from_table",
    "apply_state_order",
    "build_context",
    "build_local_supervisor",
    "carry_over_cover",
    "check_control_equivalence",
    "gen_cmt",
    "is_control_congruence",
    "isolate",
    "load_automaton",
    "load_cover",
    "localize",
    "parse_automaton",
    "parse_cover",
    "reachable_trim",
    "run_bench",
    "save_automaton",
    "save_cover",
    "sync_product",
    "synthesize_cmt",
    "synthesize_monolithic",
    "tsl",
    "write_automaton",
    "write_cover",
]
