"""The argument checks no other test reaches, one case each, with the exact
message: the public constructors, the entry points that take a cover or a
list of automata, and the generator."""

import pytest

from suploc.automata import Automaton, EventTable, FormatError, parse_automaton, sync_product
from suploc.cmt import CmtConfig
from suploc.context import AgentSpec, build_context, synthesize_monolithic
from suploc.localization import Cover, build_local_supervisor, is_control_congruence, localize
from suploc.rng import SplitMix64
from suploc.transform import carry_over_cover

ONE_EVENT = EventTable(("a",), (True,), (1,))
SHORT = Cover.singleton(4)  # the corpus supervisor has five states
# Agent 1 owns a and the uncontrollable u, agent 2 owns b.
SPLIT = EventTable(("a", "b", "u"), (True, True, False), (1, 2, 1))


def automaton(states=("p", "q"), transitions=(), initial=0, marked=()):
    return Automaton(states, ONE_EVENT, transitions, initial, marked)


def context_for(table, *controllable):
    """``build_context`` of a one-state automaton over ``table`` against
    itself, with agent 1 listing the ``controllable`` event indices."""
    a = Automaton(("p",), table, (), 0)
    return build_context(a, a, [AgentSpec(1, frozenset(controllable))])


# Each case is a call on the five-state corpus supervisor and its context,
# the error it raises (None when it returns the message) and the message.
CASES = {
    "parse-agent-0": (
        lambda sup, ctx: parse_automaton("[EVENTS]\na c 0\n[STATES]\np initial\n[TRANS]\n"),
        FormatError,
        "line 2: agent indices start at 1",
    ),
    "parse-no-trans-section": (
        lambda sup, ctx: parse_automaton("[EVENTS]\na c 1\n[STATES]\np initial\n"),
        FormatError,
        "missing section [TRANS]",
    ),
    "automaton-no-states": (
        lambda sup, ctx: automaton(states=()),
        ValueError,
        "an automaton needs at least one state",
    ),
    "automaton-empty-state-name": (
        lambda sup, ctx: automaton(states=("p", "")),
        ValueError,
        "state name must be non-empty",
    ),
    "automaton-initial-out-of-range": (
        lambda sup, ctx: automaton(initial=2),
        ValueError,
        "initial state index out of range",
    ),
    "automaton-marked-out-of-range": (
        lambda sup, ctx: automaton(marked=(1, -1)),
        ValueError,
        "marked state index out of range",
    ),
    "automaton-endpoint-out-of-range": (
        lambda sup, ctx: automaton(transitions=[(0, 0, 1), (1, 0, 2)]),
        ValueError,
        "transition endpoint out of range",
    ),
    "automaton-event-out-of-range": (
        lambda sup, ctx: automaton(transitions=[(0, 1, 1)]),
        ValueError,
        "transition event out of range",
    ),
    "event-table-unequal-lengths": (
        lambda sup, ctx: EventTable(("a", "b"), (True,), (1, 1)),
        ValueError,
        "events, controllable and agent_of must have equal lengths",
    ),
    "event-table-empty-name": (
        lambda sup, ctx: EventTable(("a", ""), (True, True), (1, 1)),
        ValueError,
        "event name must be non-empty",
    ),
    "sync-product-of-nothing": (
        lambda sup, ctx: sync_product([]),
        ValueError,
        "sync_product needs at least one automaton",
    ),
    "synthesis-without-plants": (
        lambda sup, ctx: synthesize_monolithic([]),
        ValueError,
        "at least one plant automaton is required",
    ),
    "context-agent-event-out-of-range": (
        lambda sup, ctx: context_for(SPLIT, 0, 3),
        ValueError,
        "agent 1 lists event index 3, which is out of range",
    ),
    "context-agent-event-uncontrollable": (
        lambda sup, ctx: context_for(SPLIT, 0, 2),
        ValueError,
        "agent 1 lists event 'u', which is uncontrollable",
    ),
    "context-agent-event-of-another-agent": (
        lambda sup, ctx: context_for(SPLIT, 0, 1),
        ValueError,
        "agent 1 lists event 'b', which is owned by agent 2",
    ),
    "localize-init-size": (
        lambda sup, ctx: localize(sup, ctx, 1, SHORT),
        ValueError,
        "init cover size does not match the supervisor",
    ),
    "quotient-cover-size": (
        lambda sup, ctx: build_local_supervisor(sup, SHORT, 1),
        ValueError,
        "cover size does not match the supervisor",
    ),
    "congruence-check-cover-size": (
        lambda sup, ctx: is_control_congruence(sup, ctx, 1, SHORT).witness,
        None,
        "cover size does not match the supervisor",
    ),
    "carry-over-base-cover-size": (
        lambda sup, ctx: carry_over_cover(SHORT, sup, sup),
        ValueError,
        "base cover size does not match the base supervisor",
    ),
    "cover-from-cells-index-out-of-range": (
        lambda sup, ctx: Cover.from_cells([[0, 1], [5]], 5),
        ValueError,
        "state index 5 out of range",
    ),
    "cmt-v4-on-one-level": (
        lambda sup, ctx: CmtConfig(levels=1, variant="v4"),
        ValueError,
        "variant 'v4' removes the mice's start room L1R5 when levels is 1",
    ),
    "rng-below-zero": (
        lambda sup, ctx: SplitMix64(1).below(0),
        ValueError,
        "bound must be positive",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_gives_its_exact_message(corpus_sup, corpus_ctx, call, error, message):
    if error is None:
        assert call(corpus_sup, corpus_ctx) == message
        return
    with pytest.raises(error) as info:
        call(corpus_sup, corpus_ctx)
    assert type(info.value) is error
    assert str(info.value) == message
