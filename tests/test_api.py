"""The public surface: the names ``suploc`` exports."""

import suploc

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    # Adding or removing a public name is an edit of this list.
    assert sorted(suploc.__all__) == PUBLIC
    exec("from suploc import *", {})  # raises for a listed name that does not resolve
