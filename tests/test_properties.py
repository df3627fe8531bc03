"""Hypothesis properties of ``localize``, ``isolate`` and ``tsl`` on random
edited systems, and of the equivalence check on systems whose plant states
are all reachable.

The strategies draw the generator sizes and the seed of the stream that
builds the event table, the plant, the supervisor and the edit, so a
failing example shrinks towards few events, few states and a small seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from suploc.context import agents_from_table, build_context
from suploc.equivalence import check_control_equivalence
from suploc.localization import build_local_supervisor, is_control_congruence, localize
from suploc.rng import SplitMix64
from suploc.transform import carry_over_cover, isolate, tsl

from .instances import (
    alternating,
    is_closure_maximal,
    mutate_system,
    random_table,
    reachable_plant,
    reference_check_control_equivalence,
    remarked,
    supervisor_from,
)


@st.composite
def reachable_systems(draw):
    """(rng, plant, supervisor): a ``reachable_plant`` plant and a supervisor
    that withholds random controllable transitions, drawn from ``rng``,
    which is returned for further draws."""
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    table = random_table(rng, draw(st.integers(2, 5)), draw(st.integers(1, 3)))
    plant = reachable_plant(rng, table, draw(st.integers(2, 12)))
    return rng, plant, supervisor_from(rng, plant)


@st.composite
def edited_systems(draw):
    """(plant, supervisor, edited plant, edited supervisor, agents,
    mapping): ``mapping`` maps each agent to itself or, for the agents a
    drawn mask picks, to 0."""
    rng, plant, sup = draw(reachable_systems())
    table = plant.alphabet
    variant_plant, variant_sup = mutate_system(rng, plant, sup)
    unmapped = draw(st.integers(0, 2**table.n_agents - 1))
    mapping = tuple(0 if unmapped >> (k - 1) & 1 else k for k in range(1, table.n_agents + 1))
    return plant, sup, variant_plant, variant_sup, agents_from_table(table), mapping


def check_covers(plant, sup, ctx, covers, locs):
    for k, cover in enumerate(covers, start=1):
        verdict = is_control_congruence(sup, ctx, k, cover)
        assert verdict, verdict.witness
        assert is_closure_maximal(sup, ctx, k, cover)
    verdict = check_control_equivalence(plant, sup, locs)
    assert verdict, (verdict.direction, verdict.counterexample)


@settings(max_examples=300, deadline=None)
@given(edited_systems())
def test_localize_and_tsl_give_maximal_congruences_equivalent_to_the_supervisor(system):
    plant, sup, variant_plant, variant_sup, agents, mapping = system
    base_ctx = build_context(plant, sup, agents)
    base_covers = [localize(sup, base_ctx, s.agent_index) for s in agents]
    base_locs = [build_local_supervisor(sup, c, k) for k, c in enumerate(base_covers, start=1)]
    check_covers(plant, sup, base_ctx, base_covers, base_locs)

    ctx = build_context(variant_plant, variant_sup, agents)
    for k, mapped in enumerate(mapping, start=1):
        if mapped:
            carried = carry_over_cover(base_covers[k - 1], sup, variant_sup)
            isolated = isolate(base_covers[k - 1], sup, variant_sup, ctx, k)
            # isolation only splits: each isolated cell sits inside a carried cell
            for cell in isolated.cells():
                assert len({carried.cell_of[x] for x in cell}) == 1
    locs, covers = tsl(base_covers, sup, variant_sup, ctx, mapping)
    check_covers(variant_plant, variant_sup, ctx, covers, locs)


@settings(max_examples=300, deadline=None)
@given(reachable_systems(), st.integers(0, 4))
def test_check_matches_the_pair_traversal_on_reachable_systems(system, event):
    # the localized supervisors, and sides that swap on an event, lack a
    # local supervisor, flip markings or have none
    _, plant, sup = system
    agents = agents_from_table(plant.alphabet)
    event %= plant.alphabet.n_events
    ctx = build_context(plant, sup, agents)
    locs = [
        build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
        for s in agents
    ]
    assert check_control_equivalence(plant, sup, locs)
    for side in (
        locs + [alternating(plant.alphabet, event)],
        locs[:-1],
        [remarked(locs[0])] + locs[1:],
        [remarked(sup)],
        [],
    ):
        verdict = check_control_equivalence(plant, sup, side)
        assert verdict == reference_check_control_equivalence(plant, sup, side)
