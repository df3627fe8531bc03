"""Data model, text format, products, trimming and reindexing."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suploc.automata import (
    Automaton,
    EventTable,
    FormatError,
    _product,
    apply_state_order,
    parse_automaton,
    reachable_trim,
    sync_product,
    write_automaton,
)
from suploc.context import (
    SynthesisEmptyError,
    agents_from_table,
    build_context,
    synthesize_monolithic,
)
from suploc.equivalence import check_control_equivalence
from suploc.localization import Cover, build_local_supervisor, localize
from suploc.rng import SplitMix64

from .instances import (
    alternating,
    isomorphic,
    language_upto,
    random_plant,
    random_table,
    reference_product,
    split_names,
    supervisor_maps_onto,
    systems_corpus,
)

MINIMAL = """
[EVENTS]
[STATES]
only initial marked
[TRANS]
"""


def table_abc(agents=(1, 1, 1)):
    return EventTable(("a", "b", "c")[: len(agents)], (True,) * len(agents), agents)


def test_parse_minimal_file():
    aut = parse_automaton(MINIMAL)
    assert aut.n_states == 1
    assert aut.initial == 0
    assert aut.marked == {0}
    assert aut.n_transitions == 0


def test_roundtrip_corpus_automaton(corpus_sup):
    again = parse_automaton(write_automaton(corpus_sup))
    assert again == corpus_sup


def test_write_is_fixed_point(corpus_sup, corpus_plant):
    for aut in (corpus_sup, corpus_plant):
        once = write_automaton(aut)
        assert write_automaton(parse_automaton(once)) == once


def test_one_state_automaton_canonical_text():
    aut = parse_automaton(MINIMAL)
    assert write_automaton(aut) == "[EVENTS]\n[STATES]\nonly initial marked\n[TRANS]\n"


def test_rows_out_of_order_parse_ascending_and_write_sorted():
    text = (
        "[EVENTS]\na c 1\nb c 1\nc c 1\n[STATES]\np initial\nq marked\n"
        "[TRANS]\np c q\nq b p\np a p\nq a q\np b q\n"
    )
    aut = parse_automaton(text)
    assert list(aut.succ_maps[0].items()) == [(0, 0), (1, 1), (2, 1)]
    assert tuple(aut.succ_maps[0]) == (0, 1, 2)
    assert list(aut.succ_maps[1].items()) == [(0, 1), (1, 0)]
    assert tuple(aut.succ_maps[1]) == (0, 1)
    assert write_automaton(aut) == (
        "[EVENTS]\na c 1\nb c 1\nc c 1\n[STATES]\np initial\nq marked\n"
        "[TRANS]\np a p\np b q\np c q\nq a q\nq b p\n"
    )


def test_undeclared_event_names_line():
    text = MINIMAL + "only z only\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert "'z'" in str(err.value)
    assert err.value.line == 6


# Each mangle returns the broken text and the line the error must name.
@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: (t.replace("x1\n", "x1\nx1\n"), 10), "duplicate state"),
        (lambda t: (t.replace("a c 1", "a c 1\na c 1"), 3), "duplicate event"),
        (lambda t: (t.replace("x4 e x0", "x4 e x0\nx4 e x1"), 20), "duplicate transition"),
        (lambda t: (t.replace("x0 initial", "x0 initial\nxx initial"), 9), "second 'initial'"),
        (lambda t: (t.replace("x0 initial", "x0"), None), "no state carries 'initial'"),
        (lambda t: (t.replace("a c 1", "a x 1"), 2), "controllability flag"),
        (lambda t: (t.replace("x0 initial", "[p initial"), 8), "invalid state name '[p'"),
        (lambda t: (t.replace("b c 1", "[b c 1"), 3), "invalid event name '[b'"),
        # agent 2 is missing; c is the first event past the gap
        (
            lambda t: (t.replace("c c 1", "c c 3").replace("e c 1", "e c 4"), 4),
            "agent indices must be contiguous from 1",
        ),
    ],
)
def test_parse_errors(corpus_sup, mangle, message):
    text, line = mangle(write_automaton(corpus_sup))
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert message in str(err.value)
    assert err.value.line == line


def test_nondeterministic_construction_rejected():
    table = table_abc((1,))
    with pytest.raises(ValueError, match="nondeterministic"):
        Automaton(["p", "q"], table, [(0, 0, 0), (0, 0, 1)], 0)


def test_event_table_validation():
    with pytest.raises(ValueError, match="duplicate event"):
        EventTable(("a", "a"), (True, True), (1, 1))
    with pytest.raises(ValueError, match="contiguous"):
        EventTable(("a", "b"), (True, True), (1, 3))
    with pytest.raises(ValueError, match="start at 1"):
        EventTable(("a",), (True,), (0,))


@pytest.mark.parametrize(
    "name", ["a b", "a\tb", " a", "a\n", "a#b", "[a", "a\xa0b", "a\x1cb", "a\u2028b"]
)
def test_state_and_event_names_rejected(name):
    with pytest.raises(ValueError, match="invalid state name"):
        Automaton([name], table_abc((1,)), [], 0)
    with pytest.raises(ValueError, match="invalid event name"):
        EventTable((name,), (True,), (1,))


def test_product_matches_step_oracle():
    # Components are random plants, a two-state automaton whose second
    # state (reached on e0) is dead, and a one-state automaton that
    # self-loops on every event; the kernel must give the oracle's tuples,
    # order and rows.
    rng = SplitMix64(20261018)
    kinds_seen = set()
    for _ in range(300):
        table = random_table(rng)
        n_ev = table.n_events
        dead = Automaton(
            ["d0", "d1"], table, [(0, e, 1 if e == 0 else rng.below(2)) for e in range(n_ev)], 0
        )
        loops = Automaton(["u"], table, [(0, e, 0) for e in range(n_ev)], 0, [0])
        comps = []
        for _ in range(1 + rng.below(4)):
            kind = rng.below(4)
            kinds_seen.add(min(kind, 2))
            comps.append(dead if kind == 0 else loops if kind == 1 else random_plant(rng, table, 8))
        order, rows = _product(comps)
        rows = list(rows)
        ref_order, ref_rows = reference_product(comps)
        assert order == ref_order
        assert [a.event_masks() for a in comps] == [
            tuple(sum(1 << ev for ev in row) for row in a.succ_maps) for a in comps
        ]
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]
        # the product is reachable by construction, so trimming is a no-op
        p = sync_product(comps)
        assert reachable_trim(p) is p
    assert kinds_seen == {0, 1, 2}


def local_mover(rng, table, own, idle, n):
    """``n`` states moving only on the events of ``own``. Every other event
    self-loops: those of ``idle`` at every state, the rest at some states,
    as a tower plant self-loops on the other animals' events."""
    triples = []
    for x in range(n):
        for e in range(table.n_events):
            if e in own:
                if rng.below(3):
                    triples.append((x, e, rng.below(n)))
            elif e in idle or rng.below(4):
                triples.append((x, e, x))
    return Automaton([f"m{x}" for x in range(n)], table, triples, 0)


def every_mover(rng, table, n):
    """``n`` >= 2 states that leave themselves on every transition and move
    on every event somewhere."""
    triples = []
    for x in range(n):
        for e in range(table.n_events):
            if x == e % n or rng.below(2):
                triples.append((x, e, (x + 1 + rng.below(n - 1)) % n))
    return Automaton([f"a{x}" for x in range(n)], table, triples, 0)


def assert_product_matches_oracle(comps):
    order, rows = _product(comps)
    rows = list(rows)
    ref_order, ref_rows = reference_product(comps)
    assert order == ref_order
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]
    return rows


def test_product_matches_step_oracle_on_local_idle_and_global_events():
    # Event-local components: each moves on its own events only, and one
    # idle event moves no component, so a target tuple steps only the
    # owner's position. Components that move on every event they enable
    # make every position a mover of every event.
    rng = SplitMix64(20261019)
    for _ in range(150):
        table = random_table(rng, max_events=7)
        n_ev = table.n_events
        events = list(range(n_ev))
        rng.shuffle(events)
        idle = {events.pop()}
        comps = []
        n_comps = 1 + rng.below(min(4, n_ev - 1))
        for c in range(n_comps):
            own = set(events[c::n_comps])
            comps.append(local_mover(rng, table, own, idle, 1 + rng.below(5)))
            assert comps[-1].moving_mask() & ~sum(1 << e for e in own) == 0
        rows = assert_product_matches_oracle(comps)
        (ev,) = idle
        for pos, row in enumerate(rows):
            assert row[ev] == pos  # enabled everywhere, moving no component

        full = (1 << n_ev) - 1
        movers = [every_mover(rng, table, 2 + rng.below(5)) for _ in range(1 + rng.below(3))]
        assert all(a.moving_mask() == full for a in movers)
        assert_product_matches_oracle(movers)


def test_event_masks_and_moving_mask_are_built_on_first_use_and_kept():
    rng = SplitMix64(7)
    for plant, sup, agents in systems_corpus(11, 30):
        for a in trusted_outputs(plant, sup, agents, rng):
            assert a._masks is None and a._moving is None
            fresh = Automaton(a.states, a.alphabet, a.iter_transitions(), a.initial, a.marked)
            masks = a.event_masks()
            assert masks == tuple(sum(1 << ev for ev in row) for row in a.succ_maps)
            assert a.event_masks() is masks
            moving = a.moving_mask()
            assert moving == sum(
                1 << ev for ev in range(a.alphabet.n_events)
                if any(row.get(ev, x) != x for x, row in enumerate(a.succ_maps))
            )
            assert a._moving == moving and a.event_masks() is masks
            assert a == fresh and fresh == a


def test_context_and_equivalence_check_compute_each_mask_once(monkeypatch):
    from suploc import automata

    rows = []  # every successor row whose mask is computed

    def counted(events):
        if isinstance(events, dict):
            rows.append(events)
        return event_mask(events)

    event_mask = automata._event_mask
    monkeypatch.setattr(automata, "_event_mask", counted)
    walks = 0
    for plant, sup, agents in systems_corpus(23, 20):
        rows.clear()
        ctx = build_context(plant, sup, agents)
        locs = [
            build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
            for s in agents
        ]
        assert ctx.enabled is sup.event_masks()
        assert len(rows) == sup.n_states + plant.n_states
        # the check reads the local supervisors' masks only when it walks the
        # product: when the supervisor's maps cannot show the loops equivalent
        masked = {}
        for side in (locs, locs + [alternating(plant.alphabet, 0)], locs[:-1]):
            for _ in range(2):
                verdict = check_control_equivalence(plant, sup, side)
                walked = not (verdict and supervisor_maps_onto(sup, [plant, *side]))
                if walked:
                    masked.update((id(a), a) for a in side)
                walks += walked
                assert len(rows) == sup.n_states + plant.n_states + sum(
                    a.n_states for a in masked.values()
                )
    assert 0 < walks < 120, walks  # both branches, of 20 systems x 3 sides x 2


def test_sync_product_neutral_element(corpus_sup):
    table = corpus_sup.alphabet
    loops = [(0, e, 0) for e in range(table.n_events)]
    unit = Automaton(["u"], table, loops, 0, [0])
    prod = sync_product([corpus_sup, unit])
    assert isomorphic(prod, reachable_trim(corpus_sup))


def test_sync_product_idempotent(corpus_sup):
    prod = sync_product([corpus_sup, corpus_sup])
    assert isomorphic(prod, reachable_trim(corpus_sup))


def test_sync_product_disjoint_enabling_blocks_shared_event():
    # Hand enumeration: a is enabled at A:s1 and at B:t0 only, and the only
    # joint move b takes A to s1 and B to t1, so a can never fire. The
    # reachable product is exactly {(s0,t0), (s1,t1)}.
    table = table_abc((1, 1))
    a = Automaton(["s0", "s1"], table, [(0, 1, 1), (1, 0, 1)], 0)
    b = Automaton(["t0", "t1"], table, [(0, 0, 0), (0, 1, 1)], 0)
    prod = sync_product([a, b])
    assert sorted(prod.states) == ["s0|t0", "s1|t1"]
    fired = {ev for _, ev, _ in prod.iter_transitions()}
    assert table.events.index("a") not in fired


def test_sync_product_alphabet_mismatch():
    t1 = table_abc((1,))
    t2 = EventTable(("a",), (False,), (1,))
    a = Automaton(["p"], t1, [], 0)
    b = Automaton(["p"], t2, [], 0)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        sync_product([a, b])


def test_product_language_is_intersection():
    # Every trace of the product is a trace of both components and the other
    # way round, checked by exhaustive enumeration on small random automata.
    rng = SplitMix64(11)
    for _ in range(25):
        table = random_table(rng)
        a = random_plant(rng, table, max_states=8)
        b = random_plant(rng, table, max_states=8)
        prod = sync_product([a, b])
        depth = 6
        assert language_upto(prod, depth) == language_upto(a, depth) & language_upto(b, depth)


def test_reachable_trim_identity_when_reachable(corpus_sup):
    assert reachable_trim(corpus_sup) == corpus_sup


def test_reachable_trim_removes_unreachable():
    table = table_abc((1,))
    aut = Automaton(["p", "dead", "q"], table, [(0, 0, 2), (1, 0, 0)], 0, [1, 2])
    trimmed = reachable_trim(aut)
    assert trimmed.states == ("p", "q")
    assert trimmed.marked == {1}
    assert trimmed.n_transitions == 1


def test_reachable_trim_matches_bfs_oracle(cmt_plants):
    plant = cmt_plants["base"]

    # independent breadth-first count over the raw transition relation
    seen = {plant.initial}
    queue = deque([plant.initial])
    while queue:
        x = queue.popleft()
        for y in plant.succ_maps[x].values():
            if y not in seen:
                seen.add(y)
                queue.append(y)
    assert reachable_trim(plant).n_states == len(seen)


def test_cmt_plant_roundtrip_state_count(cmt_plants):
    plant = cmt_plants["base"]
    again = parse_automaton(write_automaton(plant))
    assert again.n_states == plant.n_states
    assert again == plant


def test_apply_state_order_identity(corpus_sup):
    assert apply_state_order(corpus_sup, range(corpus_sup.n_states)) == corpus_sup


def test_apply_state_order_inverse(corpus_sup):
    order = [2, 0, 4, 1, 3]
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new
    once = apply_state_order(corpus_sup, order)
    assert apply_state_order(once, pos) == corpus_sup


def test_apply_state_order_preserves_language(corpus_sup):
    rng = SplitMix64(5)
    for _ in range(10):
        order = rng.permutation(corpus_sup.n_states)
        shuffled = apply_state_order(corpus_sup, order)
        assert language_upto(shuffled, 7) == language_upto(corpus_sup, 7)
        assert isomorphic(shuffled, corpus_sup)


def test_apply_state_order_rejects_bad_permutation(corpus_sup):
    with pytest.raises(ValueError):
        apply_state_order(corpus_sup, [0, 1, 2])
    with pytest.raises(ValueError):
        apply_state_order(corpus_sup, [0, 0, 1, 2, 3])


# ---------------------------------------------------------------------------
# trusted construction: every operation builds through ``_from_rows``


def assert_as_if_checked(a):
    """``a`` equals the public constructor's automaton over the same
    transitions, and every row keeps its events ascending."""
    checked = Automaton(a.states, a.alphabet, a.iter_transitions(), a.initial, a.marked)
    assert a == checked
    assert checked._name_index is None
    positions = list(range(a.n_states))
    assert list(map(a.index_of, a.states)) == list(map(checked.index_of, a.states)) == positions
    assert all(list(row) == sorted(row) for row in a.succ_maps)


def trusted_outputs(plant, sup, agents, rng):
    """Every automaton the trusted operations build from one system."""
    loops = Automaton(["u"], plant.alphabet, [(0, e, 0) for e in range(plant.alphabet.n_events)], 0)
    product = sync_product([plant, sup])
    yield product
    yield sync_product([plant, loops])
    for root in sorted({0, plant.n_states // 2, plant.n_states - 1}):
        yield reachable_trim(
            Automaton(plant.states, plant.alphabet, plant.iter_transitions(), root, plant.marked)
        )
    yield apply_state_order(sup, rng.permutation(sup.n_states))
    try:
        yield synthesize_monolithic([plant], [sup])
    except SynthesisEmptyError:
        pass
    ctx = build_context(plant, sup, agents)
    for spec in agents:
        cover = localize(sup, ctx, spec.agent_index)
        yield build_local_supervisor(sup, cover, spec.agent_index)
    yield build_local_supervisor(sup, Cover.singleton(sup.n_states), 1)


def test_trusted_construction_matches_checked_on_corpus():
    rng = SplitMix64(7)
    for plant, sup, agents in systems_corpus(11, 60):
        for a in trusted_outputs(plant, sup, agents, rng):
            assert_as_if_checked(a)


def test_name_index_is_built_on_first_lookup_and_kept():
    rng = SplitMix64(7)
    for plant, sup, agents in systems_corpus(11, 30):
        for a in trusted_outputs(plant, sup, agents, rng):
            assert a._name_index is None
            assert [a.index_of(name) for name in a.states] == list(range(a.n_states))
            index = a._name_index
            assert a.index_of(a.states[-1]) == a.n_states - 1
            assert a._name_index is index
            missing = "no-such-state"
            assert missing not in a.states
            with pytest.raises(ValueError, match=r"^unknown state 'no-such-state'$"):
                a.index_of(missing)


def test_trusted_construction_matches_checked_on_tower(cmt_systems, cmt_plants, cmt_supervisors):
    system = cmt_systems["base"]
    sup = cmt_supervisors["base"]
    plant = cmt_plants["base"]
    agents = agents_from_table(sup.alphabet)
    raw_sup = synthesize_monolithic(system.plants, system.requirements)
    assert split_names(raw_sup, len(system.plants)) == sup
    for a in (sync_product(system.plants), plant, raw_sup, sup):
        assert_as_if_checked(a)
    for a in trusted_outputs(plant, sup, agents[:1], SplitMix64(7)):
        assert_as_if_checked(a)


def test_sync_product_rejects_colliding_joined_names():
    # (a|b, c) and (a, b|c) are both reachable and both join to a|b|c
    table = EventTable(("e", "f"), (True, True), (1, 1))
    left = Automaton(["a|b", "a"], table, [(0, 0, 1), (1, 1, 0)], 0)
    right = Automaton(["c", "b|c"], table, [(0, 0, 1), (1, 1, 0)], 0)
    with pytest.raises(ValueError, match=r"^duplicate state name 'a\|b\|c'$"):
        sync_product([left, right])


@st.composite
def automata(draw):
    n_ev = draw(st.integers(1, 4))
    n_ag = draw(st.integers(1, n_ev))
    agents = [1 + i % n_ag for i in range(n_ev)]
    table = EventTable(
        tuple(f"e{i}" for i in range(n_ev)),
        tuple(draw(st.booleans()) for _ in range(n_ev)),
        tuple(agents),
    )
    n = draw(st.integers(1, 6))
    triples = []
    for x in range(n):
        for e in range(n_ev):
            if draw(st.booleans()):
                triples.append((x, e, draw(st.integers(0, n - 1))))
    marked = [x for x in range(n) if draw(st.booleans())]
    return Automaton([f"s{x}" for x in range(n)], table, triples, 0, marked)


@settings(max_examples=60, deadline=None)
@given(automata())
def test_roundtrip_random_automata(aut):
    assert parse_automaton(write_automaton(aut)) == aut
