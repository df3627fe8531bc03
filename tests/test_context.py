"""Control-information tables and monolithic synthesis."""

import dataclasses

import pytest

from suploc.automata import (
    Automaton,
    EventTable,
    _event_mask,
    _mask_events,
    reachable_trim,
)
from suploc.cmt import VARIANTS, CmtConfig, gen_cmt, synthesize_cmt
from suploc.context import (
    SynthesisEmptyError,
    agents_from_table,
    build_context,
    synthesize_monolithic,
)
from suploc.rng import SplitMix64

from .instances import (
    isomorphic,
    random_plant,
    random_table,
    reference_synthesize,
    split_names,
)


def names(table, mask):
    return sorted(table.events[e] for e in _mask_events(mask))


def test_agents_from_table():
    table = EventTable(("a", "b", "c"), (True, False, True), (1, 1, 2))
    a1, a2 = agents_from_table(table)
    assert a1.agent_index == 1 and a1.controllable == {0}
    assert a2.agent_index == 2 and a2.controllable == {2}


def test_supervisor_equal_to_plant_has_no_disablements(corpus_plant, corpus_agents):
    ctx = build_context(corpus_plant, corpus_plant, corpus_agents)
    for x in range(corpus_plant.n_states):
        assert ctx.disabled[1][x] == 0
        assert ctx.plant_marked[x] == ctx.marked[x]


def test_corpus_disablement_tables(corpus_ctx, corpus_sup):
    table = corpus_sup.alphabet
    dis = corpus_ctx.disabled[1]
    assert names(table, dis[corpus_sup.index_of("x0")]) == ["c"]
    assert names(table, dis[corpus_sup.index_of("x2")]) == ["a"]
    for name in ("x1", "x3", "x4"):
        assert dis[corpus_sup.index_of(name)] == 0


def test_variant_adds_one_disablement(corpus_variant_ctx, corpus_sup):
    table = corpus_sup.alphabet
    dis = corpus_variant_ctx.disabled[1]
    assert names(table, dis[corpus_sup.index_of("x3")]) == ["a"]


def test_enabled_comes_from_supervisor(corpus_ctx, corpus_sup):
    for x in range(corpus_sup.n_states):
        assert corpus_ctx.enabled[x] == _event_mask(e for e, _ in corpus_sup.succ_maps[x].items())


def test_context_is_frozen_and_equal_only_to_itself(corpus_plant, corpus_sup, corpus_agents):
    ctx = build_context(corpus_plant, corpus_sup, corpus_agents)
    for field in ("enabled", "disabled", "marked", "plant_marked"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, field, getattr(ctx, field))
    again = build_context(corpus_plant, corpus_sup, corpus_agents)
    assert dataclasses.astuple(again) == dataclasses.astuple(ctx)
    assert again != ctx and ctx == ctx
    assert len({ctx, again}) == 2


def test_tables_are_int_masks(corpus_ctx, corpus_variant_ctx):
    # bit e stands for event index e; a bool would compare equal to 0 and 1
    for ctx in (corpus_ctx, corpus_variant_ctx):
        for table in (ctx.enabled, *ctx.disabled.values()):
            assert all(type(mask) is int for mask in table)


def test_disablements_aggregate_over_multiple_plant_partners():
    # One supervisor state tracks two plant states with different
    # controllable enablements; hand enumeration of the joint pairs:
    # after a: (x1, q1) with c executable; after b: (x1, q2) with d
    # executable; neither is defined in the supervisor at x1, so both
    # events are withheld there.
    table = EventTable(("a", "b", "c", "d"), (True,) * 4, (1, 1, 1, 1))
    plant = Automaton(
        ["q0", "q1", "q2"],
        table,
        [(0, 0, 1), (0, 1, 2), (1, 2, 1), (2, 3, 2)],
        0,
    )
    sup = Automaton(["x0", "x1"], table, [(0, 0, 1), (0, 1, 1)], 0)
    ctx = build_context(plant, sup, agents_from_table(table))
    assert names(table, ctx.disabled[1][1]) == ["c", "d"]
    assert ctx.disabled[1][0] == 0


def test_alphabet_mismatch_rejected(corpus_sup, corpus_agents):
    other = EventTable(("z",), (True,), (1,))
    plant = Automaton(["p"], other, [], 0)
    with pytest.raises(ValueError, match="share one event table"):
        build_context(plant, corpus_sup, corpus_agents)


def test_supervisor_outside_plant_rejected(corpus_plant, corpus_sup, corpus_agents):
    # the plant lacks a at x3; a supervisor taking it there is not a
    # sub-behavior of the plant
    extra = (corpus_sup.index_of("x3"), corpus_sup.alphabet.events.index("a"), 0)
    sup = Automaton(
        corpus_sup.states,
        corpus_sup.alphabet,
        [*corpus_sup.iter_transitions(), extra],
        corpus_sup.initial,
        corpus_sup.marked,
    )
    with pytest.raises(ValueError, match="sub-behavior") as info:
        build_context(corpus_plant, sup, corpus_agents)
    assert "supervisor state 'x3' takes 'a'" in str(info.value)
    assert "plant state 'x3'" in str(info.value)


def _oracle_disabled(plant, sup, agent_spec, depth):
    """Withheld events per supervisor state by brute-force enumeration of all
    joint traces up to the given length (no visited-set shortcuts)."""
    out = {x: set() for x in range(sup.n_states)}

    def walk(x, q, length):
        for e in agent_spec.controllable:
            if sup.succ_maps[x].get(e) is None and plant.succ_maps[q].get(e) is not None:
                out[x].add(e)
        if length == 0:
            return
        for e, y in sup.succ_maps[x].items():
            p = plant.succ_maps[q].get(e)
            if p is not None:
                walk(y, p, length - 1)

    walk(sup.initial, plant.initial, depth)
    return out


def test_disabled_matches_bruteforce_oracle():
    rng = SplitMix64(23)
    checked = 0
    while checked < 30:
        table_seed = rng.next_u64()
        from .instances import random_plant, random_table, supervisor_from

        local = SplitMix64(table_seed)
        table = random_table(local, max_events=3, max_agents=2)
        plant = random_plant(local, table, max_states=4)
        sup = supervisor_from(local, plant)
        product_size = sup.n_states * plant.n_states
        if product_size > 10:
            continue
        checked += 1
        ctx = build_context(plant, sup, agents_from_table(table))
        for spec in agents_from_table(table):
            oracle = _oracle_disabled(plant, sup, spec, depth=10)
            for x in range(sup.n_states):
                assert ctx.disabled[spec.agent_index][x] == _event_mask(oracle[x])


def test_plant_marked_only_for_jointly_reachable(corpus_plant, corpus_agents):
    # x4 unreachable in the supervisor restriction below, so its
    # plant-marking indicator stays down even though states exist.
    table = corpus_plant.alphabet
    sup = Automaton(
        ["x0", "x1"],
        table,
        [(0, table.events.index("a"), 1)],
        0,
        [1],
    )
    ctx = build_context(corpus_plant, sup, corpus_agents)
    assert ctx.plant_marked == (False, False)
    assert ctx.marked == (False, True)


def test_synthesis_all_controllable_no_requirement_is_trimmed_plant():
    table = EventTable(("a", "b"), (True, True), (1, 1))
    plant = Automaton(
        ["p", "q", "r"],
        table,
        [(0, 0, 1), (1, 1, 0), (2, 0, 0)],
        0,
        [0, 1, 2],
    )
    sup = synthesize_monolithic([plant])
    assert isomorphic(sup, reachable_trim(plant))


def test_synthesis_uncontrollable_backpropagation():
    # b is uncontrollable and leads into the forbidden sink, so its source
    # state must go too; only the initial state survives with no moves into
    # the removed region.
    table = EventTable(("a", "b"), (True, False), (1, 1))
    plant = Automaton(["p", "q"], table, [(0, 0, 1), (1, 1, 0)], 0, [0, 1])
    req = Automaton(
        ["ok", "armed", "bad"],
        table,
        [(0, 0, 1), (1, 1, 2)],
        0,
        [0, 1],
    )
    sup = synthesize_monolithic([plant], [req])
    assert sup.n_states == 1
    assert sup.n_transitions == 0


def test_synthesis_empty_raises():
    table = EventTable(("a",), (False,), (1,))
    plant = Automaton(["p", "q"], table, [(0, 0, 1)], 0, [0])
    req = Automaton(["ok", "bad"], table, [(0, 0, 1)], 0, [0])
    with pytest.raises(SynthesisEmptyError):
        synthesize_monolithic([plant], [req])


def test_synthesis_output_controllable_and_nonblocking(cmt_systems, cmt_supervisors, cmt_plants):
    for v in ("base", "v3", "v5"):
        sup = cmt_supervisors[v]
        plant = cmt_plants[v]
        table = sup.alphabet
        # controllability: every plant-executable uncontrollable event is
        # defined wherever the supervisor tracks that plant state
        pairs = {(sup.initial, plant.initial)}
        stack = [(sup.initial, plant.initial)]
        while stack:
            x, q = stack.pop()
            for e in range(table.n_events):
                if table.controllable[e]:
                    continue
                if plant.succ_maps[q].get(e) is not None:
                    assert sup.succ_maps[x].get(e) is not None, "uncontrollable event withheld"
            for e, y in sup.succ_maps[x].items():
                p = plant.succ_maps[q].get(e)
                assert p is not None, "supervisor exceeds plant"
                if (y, p) not in pairs:
                    pairs.add((y, p))
                    stack.append((y, p))
        # nonblocking: every supervisor state reaches a marked state
        co = set(sup.marked)
        changed = True
        while changed:
            changed = False
            for x in range(sup.n_states):
                if x not in co and any(y in co for y in sup.succ_maps[x].values()):
                    co.add(x)
                    changed = True
        assert co == set(range(sup.n_states))


def test_random_synthesized_supervisors_controllable_nonblocking():
    rng = SplitMix64(7)
    done = 0
    from .instances import random_plant, random_table

    while done < 20:
        table = random_table(rng)
        plant = random_plant(rng, table, max_states=8)
        if not plant.marked:
            continue
        try:
            sup = synthesize_monolithic([plant])
        except SynthesisEmptyError:
            continue
        done += 1
        # nonblocking
        co = set(sup.marked)
        changed = True
        while changed:
            changed = False
            for x in range(sup.n_states):
                if x not in co and any(y in co for y in sup.succ_maps[x].values()):
                    co.add(x)
                    changed = True
        assert co == set(range(sup.n_states))


def _marked_more(rng, plant):
    """``plant`` with about 60% of its states marked, so that more generated
    systems survive synthesis."""
    marked = [x for x in range(plant.n_states) if rng.below(10) < 6]
    return Automaton(plant.states, plant.alphabet, plant.iter_transitions(), 0, marked)


def _random_requirement(rng, table):
    """A few ordinary states and a ``bad`` one that is live half of the time;
    transitions are drawn per (state, event), so uncontrollable events are
    withheld too."""
    n = 1 + rng.below(3)
    live_bad = rng.below(2) == 0
    triples = []
    for x in range(n + 1 if live_bad else n):
        for e in range(table.n_events):
            if rng.below(10) < 7:
                triples.append((x, e, n if rng.below(10) < 2 else rng.below(n)))
    marked = [x for x in range(n) if rng.below(10) < 7]
    return Automaton([f"r{x}" for x in range(n)] + ["bad"], table, triples, 0, marked)


def _both_synthesize(plants, requirements=()):
    """The change's and the reference's result, or None for each that finds
    no supervisor."""
    results = []
    for synthesize in (synthesize_monolithic, reference_synthesize):
        try:
            results.append(synthesize(plants, requirements))
        except SynthesisEmptyError:
            results.append(None)
    return results


def test_synthesis_matches_reference_on_generated_systems():
    rng = SplitMix64(21)
    survived = 0
    for _ in range(300):
        table = random_table(rng)
        plants = [
            _marked_more(rng, random_plant(rng, table, max_states=6))
            for _ in range(1 + rng.below(2))
        ]
        requirements = [_random_requirement(rng, table) for _ in range(rng.below(3))]
        sup, ref = _both_synthesize(plants, requirements)
        assert sup == ref
        survived += sup is not None
    assert 60 <= survived <= 240


EVENTS = (("a", True), ("b", True), ("c", True), ("u", False))
SMALL_TABLE = EventTable(tuple(e for e, _ in EVENTS), tuple(c for _, c in EVENTS), (1, 1, 1, 1))


def _small(names, transitions, marked):
    """An automaton over ``SMALL_TABLE`` from named transitions; the first
    state is initial."""
    index = {name: x for x, name in enumerate(names)}
    ev = {e: i for i, (e, _) in enumerate(EVENTS)}
    triples = [(index[s], ev[e], index[d]) for s, e, d in transitions]
    return Automaton(names, SMALL_TABLE, triples, 0, [index[m] for m in marked])


@pytest.mark.parametrize(
    "plant, requirement, kept",
    [
        # A live bad state: q|bad could step back to the marked p|r, so only
        # the bad rule removes it, and with it the controllable c into it.
        (
            (("p", "q"), [("p", "a", "q"), ("q", "b", "p"), ("q", "c", "q")], ("p", "q")),
            (("r", "s", "bad"),
             [("r", "a", "s"), ("s", "b", "r"), ("s", "c", "bad"), ("bad", "b", "r")],
             ("r", "s")),
            ["p|r", "q|s"],
        ),
        # A dead bad state that is marked, so again only the bad rule removes
        # p|bad, and with it the controllable c into it.
        (
            (("p", "q"), [("p", "a", "q"), ("p", "c", "p"), ("q", "b", "p")], ("p",)),
            (("r", "bad"), [("r", "a", "r"), ("r", "b", "r"), ("r", "c", "bad")], ("r", "bad")),
            ["p|r", "q|r"],
        ),
        # A requirement that withholds the uncontrollable u where the plant
        # can take it: q goes, and with it the controllable a into q.
        (
            (("p", "q"), [("p", "a", "q"), ("q", "u", "p"), ("p", "b", "p")], ("p", "q")),
            (("r",), [("r", "a", "r"), ("r", "b", "r")], ("r",)),
            ["p|r"],
        ),
        # Two fixpoint rounds: the blocking dead end d goes first, then s that
        # u forces into d, and only in the next round t, whose one way back
        # ran through s.
        (
            (("p", "t", "s", "d"),
             [("p", "a", "t"), ("t", "b", "s"), ("s", "c", "p"), ("s", "u", "d"), ("p", "b", "p")],
             ("p",)),
            (("r",), [("r", e, "r") for e in "abcu"], ("r",)),
            ["p|r"],
        ),
        # Nothing survives: u from the initial state is forced into bad.
        (
            (("p", "q"), [("p", "u", "q"), ("q", "a", "p")], ("p", "q")),
            (("r", "bad"), [("r", "u", "bad"), ("r", "a", "r")], ("r",)),
            None,
        ),
    ],
    ids=["live-bad", "dead-bad", "withheld-uncontrollable", "two-rounds", "empty"],
)
def test_synthesis_matches_reference_on_named_cases(plant, requirement, kept):
    sup, ref = _both_synthesize([_small(*plant)], [_small(*requirement)])
    assert sup == ref
    assert (sup and list(sup.states)) == kept


def _assert_cmt_synthesis(system, cmt_sup=None):
    """The one-pass synthesis equals the reference on a tower system, and
    ``synthesize_cmt``'s plant-component names are the monolithic
    supervisor's names cut after the plant parts, which is the same as long
    as no plant state name holds ``|``."""
    assert not any("|" in name for plant in system.plants for name in plant.states)
    sup = synthesize_monolithic(system.plants, system.requirements)
    assert sup == reference_synthesize(system.plants, system.requirements)
    if cmt_sup is None:
        cmt_sup = synthesize_cmt(system)
    assert cmt_sup == split_names(sup, len(system.plants))


@pytest.mark.parametrize("levels, animals", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_cmt_synthesis_matches_reference(levels, animals, variant):
    _assert_cmt_synthesis(gen_cmt(CmtConfig(levels, animals, variant)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_four_level_cmt_synthesis_matches_reference(cmt_systems, cmt_supervisors, variant):
    _assert_cmt_synthesis(cmt_systems[variant], cmt_supervisors[variant])


def test_three_level_two_animal_synthesis_matches_reference():
    _assert_cmt_synthesis(gen_cmt(CmtConfig(3, 2)))


def test_cmt_naming_that_is_not_injective_raises():
    # Named by the cat alone, two supervisor states share a name.
    system = gen_cmt(CmtConfig(1, 1))
    with pytest.raises(ValueError, match="^duplicate state name 'L1R1'$"):
        synthesize_monolithic(system.plants, system.requirements, 1)


@pytest.mark.parametrize("animals", [1, 2])
def test_synthesis_names_states_by_their_first_components(animals):
    system = gen_cmt(CmtConfig(2, animals))
    plants, requirements = system.plants, system.requirements
    assert synthesize_monolithic(plants, requirements, len(plants)) == synthesize_cmt(system)
    full = synthesize_monolithic(plants, requirements)
    assert synthesize_monolithic(plants, requirements, 0) == full
    assert synthesize_monolithic(plants, requirements, None) == full
    with pytest.raises(ValueError, match="^name_components must be at least 0$"):
        synthesize_monolithic(plants, requirements, -1)
