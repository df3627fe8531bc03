"""Carry-over, conflict isolation, and the transformational pipeline."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suploc import localization, transform
from suploc.automata import Automaton, EventTable, apply_state_order
from suploc.context import ControlContext, agents_from_table, build_context
from suploc.equivalence import check_control_equivalence
from suploc.bench import BENCH_VARIANTS, _variant_order
from suploc.localization import (
    Cover,
    _Cells,
    build_local_supervisor,
    is_control_congruence,
    localize,
    write_cover,
)
from suploc.rng import SplitMix64
from suploc.transform import carry_over_cover, isolate, tsl

from .instances import (
    is_closure_maximal,
    is_maximally_reduced,
    mutate_system,
    reference_isolate,
    snapshot,
    systems_corpus,
    tower,
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


@pytest.mark.parametrize("cell_of", [[0, 0, 1, 1], [0, 0, 1, 1, 2, 2]])
def test_isolate_rejects_carried_cover_of_wrong_size(corpus_sup, corpus_ctx, cell_of):
    # the corpus supervisor has five states: a four-state cover used to fail
    # on an index, and a six-state one came back as the output
    base_cover = localize(corpus_sup, corpus_ctx, 1)
    with pytest.raises(ValueError, match="carried cover size does not match"):
        isolate(base_cover, corpus_sup, corpus_sup, corpus_ctx, 1, carried=Cover(cell_of))


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
    corpus_sup, corpus_variant_plant, corpus_ctx, corpus_variant_ctx
):
    base_cover = localize(corpus_sup, corpus_ctx, 1)
    sups, covers = tsl([base_cover], corpus_sup, corpus_sup, corpus_variant_ctx, (1,))
    assert named_cells(covers[0], corpus_sup) == [["x0"], ["x1", "x2", "x3", "x4"]]
    assert sups[0].n_states == 2
    verdict = check_control_equivalence(corpus_variant_plant, corpus_sup, sups)
    assert verdict


def test_tsl_zero_mapping_equals_from_scratch(corpus_sup, corpus_variant_ctx):
    sups, covers = tsl([], corpus_sup, corpus_sup, corpus_variant_ctx, (0,))
    scratch = localize(corpus_sup, corpus_variant_ctx, 1)
    assert covers[0] == scratch


def test_tsl_idempotent_with_variant_as_its_own_base(corpus_sup, corpus_variant_ctx):
    first = localize(corpus_sup, corpus_variant_ctx, 1)
    sups, covers = tsl([first], corpus_sup, corpus_sup, corpus_variant_ctx, (1,))
    assert covers[0] == first


def test_tsl_invalid_mapping_rejected(corpus_sup, corpus_variant_ctx):
    with pytest.raises(ValueError, match="unknown base agent"):
        tsl([Cover.singleton(5)], corpus_sup, corpus_sup, corpus_variant_ctx, (4,))
    # corpus_variant_ctx has tables for one agent
    with pytest.raises(ValueError, match="mapping length does not match"):
        tsl([Cover.singleton(5)], corpus_sup, corpus_sup, corpus_variant_ctx, (1, 1))


def test_tsl_outputs_reduced_and_equivalent_on_random_edits():
    rng = SplitMix64(53)
    done = 0
    for plant, sup, agents in systems_corpus(531, 40):
        variant_plant, variant_sup = mutate_system(rng, plant, sup)
        base_ctx = build_context(plant, sup, agents)
        base_covers = [localize(sup, base_ctx, s.agent_index) for s in agents]
        ctx = build_context(variant_plant, variant_sup, agents)
        sups, covers = tsl(
            base_covers, sup, variant_sup, ctx, tuple(s.agent_index for s in agents)
        )
        for spec, cover in zip(agents, covers):
            k = spec.agent_index
            verdict = is_control_congruence(variant_sup, ctx, k, cover)
            assert verdict, verdict.witness
            assert is_maximally_reduced(variant_sup, ctx, k, cover)
            assert is_closure_maximal(variant_sup, ctx, k, cover)
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


A, B, C = 0, 1, 2  # events of the hand-built systems, all agent 1's


def hand_system(n, edges, disabled=None, marked=()):
    """A hand-built supervisor over states s0.. and its context, with
    ``disabled`` mapping a state to the mask of events agent 1 may not take
    there, and every state plant-marked."""
    table = EventTable(("a", "b", "c"), (True, True, True), (1, 1, 1))
    sup = Automaton([f"s{x}" for x in range(n)], table, edges, 0, marked)
    enabled = [sum(1 << ev for ev in row) for row in sup.succ_maps]
    off = [(disabled or {}).get(x, 0) for x in range(n)]
    is_marked = [x in marked for x in range(n)]
    return sup, ControlContext(enabled, {1: off}, is_marked, [True] * n)


def hand_isolate(n, edges, cells, disabled=None, marked=()):
    """``isolate`` of ``cells`` on :func:`hand_system`'s supervisor. Base
    and variant are the same supervisor, so the carried cover is ``cells``.
    Checked against the reference with and without ``carried=``; returns
    the output's cells."""
    sup, ctx = hand_system(n, edges, disabled, marked)
    cover = Cover.from_cells(cells, n)
    assert carry_over_cover(cover, sup, sup) == cover
    assert_isolate_matches_reference(cover, sup, sup, ctx, 1)
    return isolate(cover, sup, sup, ctx, 1).cells()


@st.composite
def small_isolate_cases(draw):
    """A supervisor of 2-6 states over events a, b, c, all agent 1's, with
    random edges, markings and plant markings; disabled masks that avoid
    each state's enabled events, as ``build_context``'s do; a base cover and
    a carried partition. Returns (supervisor, context, base cover, carried)."""
    n = draw(st.integers(2, 6))
    state = st.integers(0, n - 1)
    edges = [(x, ev, draw(state)) for x in range(n) for ev in (A, B, C) if draw(st.booleans())]
    marked = [x for x in range(n) if draw(st.booleans())]
    table = EventTable(("a", "b", "c"), (True, True, True), (1, 1, 1))
    sup = Automaton([f"s{x}" for x in range(n)], table, edges, 0, marked)
    enabled = [sum(1 << ev for ev in row) for row in sup.succ_maps]
    off = [draw(st.integers(0, 7)) & ~on for on in enabled]
    plant_marked = [draw(st.booleans()) for _ in range(n)]
    ctx = ControlContext(enabled, {1: off}, [x in marked for x in range(n)], plant_marked)
    partition = st.lists(state, min_size=n, max_size=n).map(Cover)
    return sup, ctx, draw(partition), draw(partition)


@settings(max_examples=200, deadline=None)
@given(small_isolate_cases())
def test_isolate_matches_reference_on_small_systems(case):
    sup, ctx, base_cover, carried = case
    want = reference_isolate(base_cover, sup, sup, ctx, 1)
    assert isolate(base_cover, sup, sup, ctx, 1) == want
    want = reference_isolate(base_cover, sup, sup, ctx, 1, carried=carried)
    assert isolate(base_cover, sup, sup, ctx, 1, carried=carried) == want


def test_isolate_evicts_state_with_self_loop():
    # s1 enables b, which s2 may not take; s1 loops on a and its cellmates
    # step into s1 on a, so they still agree once s1 has left
    edges = [(1, A, 1), (2, A, 1), (3, A, 1), (1, B, 0)]
    cells = [[0], [1, 2, 3]]
    assert hand_isolate(4, edges, cells, {2: 1 << B}) == [[0], [1], [2, 3]]


def test_isolate_moves_predecessor_in_the_evicted_state_cell():
    # s2 clashes with s3 on b; s1 steps into s2 on a, s3 into s1, so once s2
    # has left, s1 and s3 step into two cells on a and s3 must go too
    edges = [(1, A, 2), (3, A, 1), (2, B, 0), (1, C, 0), (4, C, 0)]
    cells = [[0], [1, 2, 3, 4]]
    assert hand_isolate(5, edges, cells, {3: 1 << B}) == [[0], [1, 4], [2], [3]]


def test_isolate_two_evictions_from_one_cell_in_one_sweep():
    # s1 enables b where s2 may not take it: s1 goes first; s2 then clashes
    # with s3, which enables b too. Once both have left, nothing withholds b
    edges = [(1, B, 0), (3, B, 0), (4, C, 0)]
    cells = [[0], [1, 2, 3, 4]]
    assert hand_isolate(5, edges, cells, {2: 1 << B}) == [[0], [1], [2], [3, 4]]


def test_isolate_cell_that_shrinks_to_one_member():
    # {s1,s2} loses s1 and keeps s2 alone, whose a-successor s1 then moves;
    # s3 and s4 stepped into that cell on a and now step into two cells
    edges = [(1, B, 0), (2, A, 1), (3, A, 2), (4, A, 1)]
    cells = [[0], [1, 2], [3, 4]]
    assert hand_isolate(5, edges, cells, {2: 1 << B}) == [[0], [1], [2], [3], [4]]


def test_isolate_disabled_bit_shared_by_two_members():
    # s2 and s4 both withhold b, which s3 enables: s2 leaves first, and s4
    # still withholds b, so s3 clashes and leaves; then s4 clashes with no one
    edges = [(3, B, 0), (1, C, 0), (4, C, 0)]
    cells = [[0], [1, 2, 3, 4]]
    assert hand_isolate(5, edges, cells, {2: 1 << B, 4: 1 << B}) == [[0], [1, 4], [2], [3]]


def test_isolate_marking_class_shared_by_two_members():
    # every state is plant-marked and only s2 is marked: s1 leaves first,
    # and s3 and s4 are still unmarked, so s2 clashes and leaves too
    cells = [[0], [1, 2, 3, 4]]
    assert hand_isolate(5, [], cells, marked=[2]) == [[0], [1], [2], [3, 4]]


def test_isolate_refuses_a_context_that_withholds_an_enabled_event():
    # s1 enables b, and the context withholds b from agent 1 at s1 as well,
    # which build_context never does
    sup, ctx = hand_system(3, [(1, B, 0)], {1: 1 << B})
    cover = Cover.from_cells([[0], [1, 2]], 3)
    message = "state 's1' enables an event the context withholds from agent 1"
    with pytest.raises(ValueError, match=message):
        isolate(cover, sup, sup, ctx, 1)


def test_tsl_refuses_a_context_that_withholds_an_enabled_event_from_an_unmapped_agent():
    # an unmapped agent starts from singletons, which go through isolation
    # like a carried cover, so the context is refused rather than localized
    sup, ctx = hand_system(3, [(1, B, 0)], {1: 1 << B})
    message = "^state 's1' enables an event the context withholds from agent 1$"
    with pytest.raises(ValueError, match=message):
        tsl([], sup, sup, ctx, (0,))


@pytest.fixture
def counted(monkeypatch):
    """The cells ``isolate`` builds counters for, in the order it does."""
    cells = []
    make = transform._Counts

    def recorded(cell, *args):
        cells.append(list(cell))
        return make(cell, *args)

    monkeypatch.setattr(transform, "_Counts", recorded)
    return cells


def test_isolate_evicts_later_in_the_sweep_from_a_cell_a_move_splits(counted):
    # s1 enables b, which s2 may not take. {s3,s4,s5} steps into {s1,s2} on
    # a, so it is clean until s1 leaves; then s3 steps into {s1} and s4 and
    # s5 into {s2}, and s3, later in the same sweep, must go too
    edges = [(1, B, 0), (3, A, 1), (4, A, 2), (5, A, 2)]
    cells = [[0], [1, 2], [3, 4, 5]]
    assert hand_isolate(6, edges, cells, {2: 1 << B}) == [[0], [1], [2], [3], [4, 5]]
    # the two checks against the reference and the output, counted in turn
    assert counted == [[1, 2], [3, 4, 5]] * 3


def test_isolate_rescans_a_clean_cell_met_before_the_move(counted):
    # the clean cell {s1,s2,s3} comes first in the sweep and is skipped;
    # s4's eviction from {s4,s5} then splits it, so the next sweep evicts s1
    edges = [(1, A, 4), (2, A, 5), (3, A, 5), (4, B, 0)]
    cells = [[0], [1, 2, 3], [4, 5]]
    assert hand_isolate(6, edges, cells, {5: 1 << B}) == [[0], [1], [2, 3], [4], [5]]
    assert counted == [[1, 2, 3], [4, 5]] * 3


def test_isolate_of_an_edit_that_breaks_no_cell_returns_the_carried_cover_itself(
    cmt_plants, cmt_supervisors, counted
):
    # four-level v1: every carried cell is still a congruence cell, so the
    # store over the carried cover flags none, no cell is counted and the
    # carried cover itself comes back
    base_sup, sup = cmt_supervisors["base"], cmt_supervisors["v1"]
    base_ctx = build_context(cmt_plants["base"], base_sup, agents_from_table(base_sup.alphabet))
    agents = agents_from_table(sup.alphabet)
    ctx = build_context(cmt_plants["v1"], sup, agents)
    for spec in agents:
        k = spec.agent_index
        base_cover = localize(base_sup, base_ctx, k)
        carried = carry_over_cover(base_cover, base_sup, sup)
        assert max(map(len, carried.cells())) > 1
        assert isolate(base_cover, base_sup, sup, ctx, k, carried=carried) is carried
    assert counted == []


@pytest.mark.parametrize("variant", sorted(TOWER3_COVER_SHA256))
def test_tower_covers_match_golden(tower3_base, variant):
    base_sup, base_covers = tower3_base
    if variant == "base":
        assert covers_digest(base_covers, base_sup) == TOWER3_COVER_SHA256["base"]
        return
    plant, sup, agents = tower3(variant)
    ctx = build_context(plant, sup, agents)
    mapping = tuple(k if k <= len(base_covers) else 0 for k in range(1, len(agents) + 1))
    _, covers = tsl(base_covers, base_sup, sup, ctx, mapping)
    assert covers_digest(covers, sup) == TOWER3_COVER_SHA256[variant]


@pytest.fixture(scope="module")
def tower2_systems():
    """(plant, supervisor, context) of the two-level tower's base and
    variants."""
    systems = {}
    for variant in ("base", "v1", "v2", "v3", "v4", "v5"):
        plant, sup, agents = tower(2, variant)
        systems[variant] = plant, sup, build_context(plant, sup, agents)
    return systems


@pytest.fixture(scope="module")
def tower4_systems(cmt_systems, cmt_supervisors, cmt_plants):
    """(plant, supervisor, context) of the four-level tower's base and
    variants."""
    return {
        variant: (
            cmt_plants[variant],
            sup,
            build_context(cmt_plants[variant], sup, cmt_systems[variant].agents),
        )
        for variant, sup in cmt_supervisors.items()
    }


@pytest.mark.parametrize(
    "chain",
    [
        ("base", "v2", "v5", "v3", "v1", "v4", "base"),
        ("base", "v5", "v1", "v2", "v4", "v3", "base"),
    ],
)
@pytest.mark.parametrize("levels", [2, 4])
def test_tsl_edit_chain_on_tower(request, levels, chain):
    # the system is edited round after round, and each round relocalizes the
    # previous round's covers with the identity mapping, so the merge engine
    # starts from cells that earlier rounds merged
    systems = request.getfixturevalue(f"tower{levels}_systems")
    plant, sup, ctx = systems[chain[0]]
    covers = [localize(sup, ctx, k) for k in sorted(ctx.disabled)]
    for variant in chain[1:]:
        base_sup = sup
        plant, sup, ctx = systems[variant]
        agents = sorted(ctx.disabled)
        mapping = tuple(k if k <= len(covers) else 0 for k in agents)
        locs, covers = tsl(covers, base_sup, sup, ctx, mapping)
        for k, cover in zip(agents, covers):
            verdict = is_control_congruence(sup, ctx, k, cover)
            assert verdict, (variant, k, verdict.witness)
            assert is_maximally_reduced(sup, ctx, k, cover), (variant, k)
            # the reference closure takes about 4 s per four-level chain on two CPUs
            assert levels == 4 or is_closure_maximal(sup, ctx, k, cover), (variant, k)
        verdict = check_control_equivalence(plant, sup, locs)
        assert verdict, (variant, verdict.direction, verdict.counterexample)


@pytest.fixture
def merge_log(monkeypatch):
    """In order, every store built, as ("built",), every store the merge
    loop is handed, as ("merged", agent, its snapshot then), and every pair
    test, as ("pair",)."""
    log = []
    make, merge = localization._Cells, localization._merge_cells
    pair_clash = localization._pair_clash

    def built(*args):
        log.append(("built",))
        return make(*args)

    def merged(sup, ctx, agent, cells):
        log.append(("merged", agent, snapshot(cells)))
        return merge(sup, ctx, agent, cells)

    def paired(*args):
        log.append(("pair",))
        return pair_clash(*args)

    for module in (localization, transform):
        monkeypatch.setattr(module, "_Cells", built)
        monkeypatch.setattr(module, "_merge_cells", merged)
    monkeypatch.setattr(localization, "_pair_clash", paired)
    return log


def check_handoff(base_covers, base_sup, sup, ctx, mapping, log):
    """Check that ``tsl`` hands its merge loop, per agent, the store that
    ``_Cells`` builds over ``isolate``'s cover, that it walks the variant
    into a store once after a clean carry-over and twice after an eviction,
    that its covers are ``localize``'s from that cover, and that nothing in
    either path tests a pair. Returns the agents whose carried cover is
    clean."""
    agents = sorted(ctx.disabled)
    want, clean = [], []
    for k, mapped in zip(agents, mapping):
        iso, walks = Cover.singleton(sup.n_states), 1
        if mapped:
            carried = carry_over_cover(base_covers[mapped - 1], base_sup, sup)
            iso = isolate(base_covers[mapped - 1], base_sup, sup, ctx, k, carried=carried)
            if iso is carried:
                clean.append(k)
            else:
                walks = 2
        want.append((k, walks, snapshot(_Cells(sup, ctx, k, iso)), localize(sup, ctx, k, iso)))
    assert ("pair",) not in log
    log.clear()
    covers = tsl(base_covers, base_sup, sup, ctx, mapping)[1]
    assert ("pair",) not in log
    got, walks = [], 0
    for entry in log:
        if entry[0] == "built":
            walks += 1
        else:
            _, k, store = entry
            got.append((k, walks, store))
            walks = 0
    assert [(k, n, store) for k, n, store, _ in want] == got
    assert [cover for *_, cover in want] == covers
    return clean


@pytest.fixture(scope="module")
def tower4_bench_order(cmt_systems, cmt_supervisors, cmt_plants):
    """Run 1 of the four-level benchmark at seed 7: the base supervisor in
    its drawn order and its covers, and each benchmark variant's supervisor
    in the order the benchmark gives it, with its context."""
    rng = SplitMix64(7)
    base_sup = cmt_supervisors["base"]
    base_sup = apply_state_order(base_sup, rng.permutation(base_sup.n_states))
    agents = cmt_systems["base"].agents
    base_ctx = build_context(cmt_plants["base"], base_sup, agents)
    base_covers = [localize(base_sup, base_ctx, s.agent_index) for s in agents]
    variants = {}
    for variant in BENCH_VARIANTS:
        sup = cmt_supervisors[variant]
        sup = apply_state_order(sup, _variant_order(base_sup, sup, rng))
        agents = cmt_systems[variant].agents
        variants[variant] = sup, build_context(cmt_plants[variant], sup, agents)
    return base_sup, base_covers, variants


def test_tsl_merges_the_store_isolate_walked_on_the_tower(tower4_bench_order, merge_log):
    # 11 of the 20 agents carry a cover with no flawed cell, and tsl merges
    # the store isolate walked over it. Every v2 and v5 agent is evicted
    # from, and isolate finds its evictions without a pair test.
    base_sup, base_covers, variants = tower4_bench_order
    clean = []
    for variant, (sup, ctx) in variants.items():
        mapping = tuple(sorted(ctx.disabled))
        kept = check_handoff(base_covers, base_sup, sup, ctx, mapping, merge_log)
        clean += [(variant, k) for k in kept]
    every = (1, 2, 3, 4)
    assert clean == [("v1", k) for k in every] + [("v3", 1), ("v3", 2), ("v3", 4)] + [
        ("v4", k) for k in every
    ]


def test_tsl_merges_the_store_isolate_walked_on_corpus_edits(merge_log):
    # identity-mapped edits, and the same edits with agent 1 unmapped
    rng = SplitMix64(24)
    counts = {"clean": 0, "evicted": 0}
    for seed in (2024, 2025, 2026):
        for plant, sup, agents in systems_corpus(seed, 200):
            variant_plant, variant_sup = mutate_system(rng, plant, sup)
            ctx = build_context(plant, sup, agents)
            covers = [localize(sup, ctx, s.agent_index) for s in agents]
            variant_ctx = build_context(variant_plant, variant_sup, agents)
            identity = tuple(s.agent_index for s in agents)
            for mapping in (identity, (0,) + identity[1:]):
                clean = check_handoff(covers, sup, variant_sup, variant_ctx, mapping, merge_log)
                counts["clean"] += len(clean)
                counts["evicted"] += sum(map(bool, mapping)) - len(clean)
    assert min(counts.values()) > 100, counts


@pytest.mark.parametrize("variant", ["base", "v1", "v2", "v3", "v4", "v5"])
def test_tsl_of_an_unchanged_system_returns_its_covers(tower2_systems, variant):
    plant, sup, ctx = tower2_systems[variant]
    agents = sorted(ctx.disabled)
    covers = [localize(sup, ctx, k) for k in agents]
    assert tsl(covers, sup, sup, ctx, tuple(agents))[1] == covers


def reversed_names(sup):
    """``sup`` with every state name reversed and every state at its index."""
    return Automaton(
        [name[::-1] for name in sup.states],
        sup.alphabet,
        sup.iter_transitions(),
        sup.initial,
        sup.marked,
    )


def test_renaming_states_keeps_every_cover_and_verdict(tower2_systems):
    # reversing the names changes their order but no index, so localize,
    # isolate and tsl give the same covers, and is_control_congruence the
    # same verdicts, its witnesses naming the renamed states
    base_sup, base_ctx = tower2_systems["base"][1:]
    renamed_base = reversed_names(base_sup)
    base_covers = [localize(base_sup, base_ctx, k) for k in sorted(base_ctx.disabled)]
    invalid = 0
    for variant in ("base", "v1", "v2", "v3", "v4", "v5"):
        plant, sup, ctx = tower2_systems[variant]
        renamed = reversed_names(sup)
        renamed_ctx = build_context(plant, renamed, agents_from_table(renamed.alphabet))
        names = set(sup.states)

        def expected(witness):
            """``witness`` with each state name in it reversed."""
            if witness is None:
                return None
            return re.sub(
                r"'([^']*)'", lambda m: repr(m[1][::-1]) if m[1] in names else m[0], witness
            )

        agents = sorted(ctx.disabled)
        mapping = tuple(k if k <= len(base_covers) else 0 for k in agents)
        _, covers = tsl(base_covers, base_sup, sup, ctx, mapping)
        assert tsl(base_covers, renamed_base, renamed, renamed_ctx, mapping)[1] == covers
        for k, mapped in zip(agents, mapping):
            sl_cover = localize(sup, ctx, k)
            assert localize(renamed, renamed_ctx, k) == sl_cover
            checked = [sl_cover, covers[k - 1]]
            if mapped:
                base_cover = base_covers[mapped - 1]
                carried = carry_over_cover(base_cover, base_sup, sup)
                assert carry_over_cover(base_cover, renamed_base, renamed) == carried
                isolated = isolate(base_cover, base_sup, sup, ctx, k)
                assert isolate(base_cover, renamed_base, renamed, renamed_ctx, k) == isolated
                checked += [carried, isolated]
            for cover in checked:
                verdict = is_control_congruence(sup, ctx, k, cover)
                again = is_control_congruence(renamed, renamed_ctx, k, cover)
                assert (again.valid, again.witness) == (verdict.valid, expected(verdict.witness))
                invalid += not verdict
    assert invalid == 4


def test_reindexing_keeps_every_cover_congruent_and_equivalent(tower2_systems):
    # localize and tsl order their work by state index, so a seeded
    # reindexing of the base and variant supervisors may change the cells
    # they find, but each cover stays a control congruence and its
    # quotients control the plant exactly like the supervisor
    rng = SplitMix64(20261019)
    base_plant, base_sup, base_ctx = tower2_systems["base"]
    unshuffled = {}
    for variant in ("base", "v1", "v2", "v3", "v4", "v5"):
        plant, sup, ctx = tower2_systems[variant]
        unshuffled[variant] = [localize(sup, ctx, k).n_cells for k in sorted(ctx.disabled)]
    changed = 0
    for _ in range(3):
        base = apply_state_order(base_sup, rng.permutation(base_sup.n_states))
        ctx = build_context(base_plant, base, agents_from_table(base.alphabet))
        base_covers = [localize(base, ctx, k) for k in sorted(ctx.disabled)]
        for variant in ("base", "v1", "v2", "v3", "v4", "v5"):
            plant, sup, _ = tower2_systems[variant]
            sup = apply_state_order(sup, rng.permutation(sup.n_states))
            ctx = build_context(plant, sup, agents_from_table(sup.alphabet))
            agents = sorted(ctx.disabled)
            mapping = tuple(k if k <= len(base_covers) else 0 for k in agents)
            sl_covers = [localize(sup, ctx, k) for k in agents]
            tsl_covers = tsl(base_covers, base, sup, ctx, mapping)[1]
            changed += [c.n_cells for c in sl_covers] != unshuffled[variant]
            for covers in (sl_covers, tsl_covers):
                for k, cover in zip(agents, covers):
                    verdict = is_control_congruence(sup, ctx, k, cover)
                    assert verdict, (variant, k, verdict.witness)
                locs = [build_local_supervisor(sup, c, k) for k, c in zip(agents, covers)]
                verdict = check_control_equivalence(plant, sup, locs)
                assert verdict, (variant, verdict.direction, verdict.counterexample)
    assert changed > 0
