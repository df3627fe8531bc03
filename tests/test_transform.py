"""Carry-over, conflict isolation, and the transformational pipeline."""

import hashlib

import pytest

from suploc.context import build_context
from suploc.equivalence import check_control_equivalence
from suploc.localization import Cover, is_control_congruence, localize, write_cover
from suploc.rng import SplitMix64
from suploc.transform import (
    AgentMapping,
    carry_over_cover,
    isolate,
    tsl,
)

from .instances import (
    is_maximally_reduced,
    mutate_system,
    reference_isolate,
    systems_corpus,
    tower3,
)


def named_cells(cover, aut):
    return [[aut.states[x] for x in cell] for cell in cover.cells()]


def test_carry_over_unchanged_states(corpus_sup):
    cover = Cover.from_cells([[0, 3, 4], [1, 2]], 5)
    carried = carry_over_cover(cover, corpus_sup, corpus_sup)
    assert carried == cover


def test_carry_over_drops_removed_and_singles_added(corpus_sup):
    from suploc.automata import Automaton

    cover = Cover.from_cells([[0, 3, 4], [1, 2]], 5)
    variant = Automaton(
        ["x0", "x4", "y0", "y1"], corpus_sup.alphabet, [], 0
    )
    carried = carry_over_cover(cover, corpus_sup, variant)
    assert named_cells(carried, variant) == [["x0", "x4"], ["y0"], ["y1"]]


def test_carry_over_all_removed_gives_singletons(corpus_sup):
    from suploc.automata import Automaton

    cover = Cover.from_cells([[0, 1, 2, 3, 4]], 5)
    variant = Automaton(["z0", "z1"], corpus_sup.alphabet, [], 0)
    carried = carry_over_cover(cover, corpus_sup, variant)
    assert carried == Cover.singleton(2)


def test_isolate_fixed_point_when_nothing_changed(corpus_sup, corpus_ctx):
    cover = localize(corpus_sup, corpus_ctx, 1)
    out = isolate(cover, corpus_sup, corpus_sup, corpus_ctx, 1)
    assert out == cover


def test_isolate_corpus_variant(corpus_sup, corpus_ctx, corpus_variant_ctx):
    base_cover = localize(corpus_sup, corpus_ctx, 1)
    out = isolate(base_cover, corpus_sup, corpus_sup, corpus_variant_ctx, 1)
    # ascending scan order pins x0 as the isolated state
    assert named_cells(out, corpus_sup) == [["x0"], ["x1", "x2"], ["x3", "x4"]]
    assert is_control_congruence(corpus_sup, corpus_variant_ctx, 1, out)


def test_isolate_never_merges_on_random_edits():
    rng = SplitMix64(71)
    count = 0
    for plant, sup, agents in systems_corpus(711, 120):
        variant_plant, variant_sup = mutate_system(rng, plant, sup)
        base_ctx = build_context(plant, sup, agents)
        ctx = build_context(variant_plant, variant_sup, agents)
        for spec in agents:
            k = spec.agent_index
            base_cover = localize(sup, base_ctx, k)
            carried = carry_over_cover(base_cover, sup, variant_sup)
            out = isolate(base_cover, sup, variant_sup, ctx, k, carried=carried)
            verdict = is_control_congruence(variant_sup, ctx, k, out)
            assert verdict, verdict.witness
            # isolation only splits: each output cell sits inside a carried cell
            carried_id_of = carried.cell_of
            for cell in out.cells():
                assert len({carried_id_of[x] for x in cell}) == 1
            count += 1
    assert count >= 200


def test_tsl_identity_mapping_pipeline(
    corpus_sup, corpus_plant, corpus_variant_plant, corpus_ctx, corpus_agents
):
    base_cover = localize(corpus_sup, corpus_ctx, 1)
    sups, covers = tsl(
        [base_cover],
        corpus_sup,
        corpus_variant_plant,
        corpus_sup,
        corpus_agents,
        AgentMapping.identity(1),
    )
    assert named_cells(covers[0], corpus_sup) == [["x0"], ["x1", "x2", "x3", "x4"]]
    assert sups[0].automaton.n_states == 2
    verdict = check_control_equivalence(corpus_variant_plant, corpus_sup, sups)
    assert verdict


def test_tsl_zero_mapping_equals_from_scratch(
    corpus_sup, corpus_variant_plant, corpus_agents
):
    ctx = build_context(corpus_variant_plant, corpus_sup, corpus_agents)
    sups, covers = tsl(
        [],
        corpus_sup,
        corpus_variant_plant,
        corpus_sup,
        corpus_agents,
        AgentMapping((0,)),
    )
    scratch = localize(corpus_sup, ctx, 1)
    assert covers[0] == scratch


def test_tsl_idempotent_with_variant_as_its_own_base(
    corpus_sup, corpus_variant_plant, corpus_agents
):
    ctx = build_context(corpus_variant_plant, corpus_sup, corpus_agents)
    first = localize(corpus_sup, ctx, 1)
    sups, covers = tsl(
        [first],
        corpus_sup,
        corpus_variant_plant,
        corpus_sup,
        corpus_agents,
        AgentMapping.identity(1),
    )
    assert covers[0] == first


def test_tsl_invalid_mapping_rejected(corpus_sup, corpus_variant_plant, corpus_agents):
    with pytest.raises(ValueError, match="unknown base agent"):
        tsl(
            [Cover.singleton(5)],
            corpus_sup,
            corpus_variant_plant,
            corpus_sup,
            corpus_agents,
            AgentMapping((4,)),
        )
    with pytest.raises(ValueError, match="out of range"):
        AgentMapping((1,)).base_agent(2)


def test_tsl_outputs_reduced_and_equivalent_on_random_edits():
    rng = SplitMix64(53)
    done = 0
    for plant, sup, agents in systems_corpus(531, 40):
        variant_plant, variant_sup = mutate_system(rng, plant, sup)
        base_ctx = build_context(plant, sup, agents)
        base_covers = [localize(sup, base_ctx, s.agent_index) for s in agents]
        sups, covers = tsl(
            base_covers,
            sup,
            variant_plant,
            variant_sup,
            agents,
            AgentMapping.identity(len(agents)),
        )
        ctx = build_context(variant_plant, variant_sup, agents)
        for spec, cover in zip(agents, covers):
            k = spec.agent_index
            verdict = is_control_congruence(variant_sup, ctx, k, cover)
            assert verdict, verdict.witness
            assert is_maximally_reduced(variant_sup, ctx, k, cover)
        verdict = check_control_equivalence(variant_plant, variant_sup, sups)
        assert verdict, verdict.counterexample
        done += 1
    assert done == 40


# sha256 of the concatenated write_cover texts, in agent order, for the
# unshuffled three-level tower: the from-scratch covers of the base system
# and the identity-mapped tsl covers of each variant built from them.
TOWER3_COVER_SHA256 = {
    "base": "0400816cf9757754520b31d54c6c179737941f50876303cb320ce7e9d1ed63ce",
    "v1": "c66daed1c8efd4b801201b659b9274ced0bcce71f3a864b5fea204734450acb5",
    "v2": "139beafb20d41dcde647ccb237e03b02e2821e029d46219b540aa27a041a4e48",
    "v3": "976073d8a4b4b62becdd93987468a03df5c0b20b5157c289bc2a30bf84440337",
    "v4": "3953700cb5c41a5a94e1f3747381d406e4e3f2bd619e10c5dfa0934d9725b739",
    "v5": "f33e5d236f805f22f94e5c10ed274a846cc5487880364922c6b6beda19f00bbe",
}


def covers_digest(covers, sup):
    text = "".join(write_cover(cover, sup) for cover in covers)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def tower3_base():
    plant, sup, agents = tower3("base")
    ctx = build_context(plant, sup, agents)
    return sup, [localize(sup, ctx, spec.agent_index) for spec in agents]


def assert_isolate_matches_reference(base_cover, base, variant, ctx, agent):
    carried = carry_over_cover(base_cover, base, variant)
    want = reference_isolate(base_cover, base, variant, ctx, agent)
    assert reference_isolate(base_cover, base, variant, ctx, agent, carried=carried) == want
    assert isolate(base_cover, base, variant, ctx, agent) == want
    assert isolate(base_cover, base, variant, ctx, agent, carried=carried) == want
    return want != carried


def test_isolate_matches_reference_on_random_edits():
    rng = SplitMix64(20250810)
    evicting = 0
    for plant, sup, agents in systems_corpus(424242, 200):
        variant_plant, variant_sup = mutate_system(rng, plant, sup)
        base_ctx = build_context(plant, sup, agents)
        ctx = build_context(variant_plant, variant_sup, agents)
        for spec in agents:
            k = spec.agent_index
            cover = localize(sup, base_ctx, k)
            evicting += assert_isolate_matches_reference(cover, sup, variant_sup, ctx, k)
    assert evicting > 50, evicting


def test_isolate_matches_reference_on_tower(tower3_base):
    base_sup, base_covers = tower3_base
    evicting = 0
    for variant in ("v1", "v2", "v3", "v4", "v5"):
        plant, sup, agents = tower3(variant)
        ctx = build_context(plant, sup, agents)
        for spec, cover in zip(agents, base_covers):
            k = spec.agent_index
            evicting += assert_isolate_matches_reference(cover, base_sup, sup, ctx, k)
    assert evicting > 5, evicting


@pytest.mark.parametrize("variant", sorted(TOWER3_COVER_SHA256))
def test_tower_covers_match_golden(tower3_base, variant):
    base_sup, base_covers = tower3_base
    if variant == "base":
        assert covers_digest(base_covers, base_sup) == TOWER3_COVER_SHA256["base"]
        return
    plant, sup, agents = tower3(variant)
    mapping = AgentMapping.identity(len(agents), len(base_covers))
    _, covers = tsl(base_covers, base_sup, plant, sup, agents, mapping)
    assert covers_digest(covers, sup) == TOWER3_COVER_SHA256[variant]
