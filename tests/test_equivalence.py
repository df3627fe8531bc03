"""Control equivalence: closed-loop comparison and counterexamples."""

import weakref

import pytest

from suploc.automata import Automaton, EventTable, reachable_trim, sync_product
from suploc.cmt import VARIANTS
from suploc.context import build_context
from suploc.equivalence import EquivalenceVerdict, check_control_equivalence
from suploc.localization import Cover, build_local_supervisor, localize
from suploc.rng import SplitMix64
from suploc.transform import tsl

from .instances import (
    alternating,
    controlled_behavior,
    isomorphic,
    language_upto,
    marked_language_upto,
    random_plant,
    reachable_corpus,
    reference_check_control_equivalence,
    remarked,
    replay_counterexample,
    supervisor_from,
    supervisor_maps_onto,
    systems_corpus,
    tower,
)


def test_controlled_behavior_empty_supervisor_list(corpus_plant):
    assert controlled_behavior(corpus_plant, []) == reachable_trim(corpus_plant)


def test_controlled_behavior_with_monolithic_as_local(corpus_plant, corpus_sup):
    prod = controlled_behavior(corpus_plant, [corpus_sup])
    assert isomorphic(prod, sync_product([corpus_sup, corpus_plant]))


def test_corpus_local_supervisor_equivalent(corpus_plant, corpus_sup, corpus_ctx):
    cover = localize(corpus_sup, corpus_ctx, 1)
    loc = build_local_supervisor(corpus_sup, cover, 1)
    closed = controlled_behavior(corpus_plant, [loc])
    reference = sync_product([corpus_sup, corpus_plant])
    depth = 8
    assert language_upto(closed, depth) == language_upto(reference, depth)
    verdict = check_control_equivalence(corpus_plant, corpus_sup, [loc])
    assert verdict


def test_plant_equals_supervisor_no_locals(corpus_plant):
    assert check_control_equivalence(corpus_plant, corpus_plant, [])


def test_permissive_mutant_detected(corpus_plant, corpus_sup, corpus_ctx):
    # replace the only local supervisor with one that enables everything on a
    # system where the supervisor withholds c at x0: the joint loop then
    # admits a trace ending in a wrongly enabled event
    table = corpus_plant.alphabet
    allow_all = Automaton(
        ["top"], table, [(0, e, 0) for e in range(table.n_events)], 0, [0]
    )
    verdict = check_control_equivalence(corpus_plant, corpus_sup, [allow_all])
    assert not verdict
    assert verdict.failed == "language"
    assert "admit behavior" in verdict.direction
    assert verdict.counterexample[-1] in ("a", "c")  # first extra enabled event
    assert replay_counterexample(corpus_plant, corpus_sup, [allow_all], verdict)
    # cross-check by exhaustive enumeration
    closed = controlled_behavior(corpus_plant, [allow_all])
    reference = sync_product([corpus_sup, corpus_plant])
    assert language_upto(closed, 6) != language_upto(reference, 6)
    assert verdict.counterexample in language_upto(closed, 6)
    assert verdict.counterexample not in language_upto(reference, 6)


def test_marking_discrepancy_detected():
    from suploc.automata import EventTable

    table = EventTable(("a",), (True,), (1,))
    plant = Automaton(["p", "q"], table, [(0, 0, 1)], 0, [1])
    sup = Automaton(["p", "q"], table, [(0, 0, 1)], 0, [])
    liberal = Automaton(["top"], table, [(0, 0, 0)], 0, [0])
    verdict = check_control_equivalence(plant, sup, [liberal])
    assert not verdict
    assert verdict.failed == "marked-language"
    assert replay_counterexample(plant, sup, [liberal], verdict)


def test_joint_bfs_agrees_with_trace_enumeration():
    # the breadth-first criterion equals language and marked-language
    # equality, cross-checked exhaustively on small systems
    rng = SplitMix64(3)
    checked = equal = 0
    for plant, sup, agents in systems_corpus(37, 60, max_states=8):
        ctx = build_context(plant, sup, agents)
        locs = [
            build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
            for s in agents
        ]
        if rng.below(3) < 1 and locs:
            # damage one local supervisor to exercise the negative path
            table = plant.alphabet
            allow_all = Automaton(
                ["top"], table, [(0, e, 0) for e in range(table.n_events)], 0, [0]
            )
            locs[rng.below(len(locs))] = allow_all
        verdict = check_control_equivalence(plant, sup, locs)
        closed = controlled_behavior(plant, locs)
        reference = sync_product([sup, plant])
        depth = 8
        lang_equal = (
            language_upto(closed, depth) == language_upto(reference, depth)
            and marked_language_upto(closed, depth) == marked_language_upto(reference, depth)
        )
        # depth 8 saturates these state counts, so the comparison is exact
        assert bool(verdict) == lang_equal
        if not verdict:
            assert replay_counterexample(plant, sup, locs, verdict)
        checked += 1
        equal += bool(verdict)
    assert checked == 60
    assert 0 < equal  # both outcomes exercised
    assert equal < checked


def test_verdicts_match_pair_traversal_reference():
    # every field of every verdict, counterexample included, must equal that
    # of the traversal of two separately built closed loops
    rng = SplitMix64(61)
    inequivalent = 0
    for plant, sup, agents in systems_corpus(59, 200):
        ctx = build_context(plant, sup, agents)
        locs = [
            build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
            for s in agents
        ]
        sides = [
            locs,
            locs[:-1],
            [random_plant(rng, plant.alphabet)],
            [supervisor_from(rng, plant)] + locs[1:],
            [sup],
            [],
        ]
        for side in sides:
            verdict = check_control_equivalence(plant, sup, side)
            assert verdict == reference_check_control_equivalence(plant, sup, side)
            inequivalent += not verdict
    assert inequivalent >= 400, inequivalent


def count_products(monkeypatch) -> list[int]:
    """Route the check's product through a wrapper; returns the list of the
    component counts of the products it builds, one entry per walk."""
    from suploc import automata, equivalence

    products = []

    def counted(comps):
        products.append(len(comps))
        return automata._product(comps)

    monkeypatch.setattr(equivalence, "_product", counted)
    return products


def test_check_builds_one_product_and_no_automaton(monkeypatch, corpus_plant, corpus_sup, corpus_ctx):
    from suploc import automata

    loc = build_local_supervisor(corpus_sup, localize(corpus_sup, corpus_ctx, 1), 1)
    # x0's cycle fires a once, so the swapping automaton has no map
    swap = alternating(corpus_sup.alphabet, corpus_sup.alphabet.events.index("a"))
    assert supervisor_maps_onto(corpus_sup, [corpus_plant, loc])
    assert not supervisor_maps_onto(corpus_sup, [corpus_plant, loc, swap])
    products = count_products(monkeypatch)

    def no_automaton(*args, **kwargs):
        raise AssertionError("the equivalence check built an automaton")

    monkeypatch.setattr(automata.Automaton, "__init__", no_automaton)
    monkeypatch.setattr(automata.Automaton, "_from_rows", no_automaton)
    # the maps decide the first check; the second needs the product
    assert check_control_equivalence(corpus_plant, corpus_sup, [loc])
    assert products == []
    assert check_control_equivalence(corpus_plant, corpus_sup, [loc, swap])
    assert products == [4]


# ---------------------------------------------------------------------------
# the check streams the product: it keeps no row


class _Row(dict):
    """A product row that a weak reference can watch."""


def watch_rows(monkeypatch):
    """Route the check's product through a wrapper that yields each kernel
    row as a ``_Row``. Returns, per product walk, the weak references to the
    rows it drew, and, each time the check asks for another row, how many
    drawn rows are still alive."""
    from suploc import automata, equivalence

    walks, alive = [], []

    def product(comps):
        order, rows = automata._product(comps)
        refs = []
        walks.append(refs)

        def watched():
            for plain in rows:
                row = _Row(plain)
                refs.append(weakref.ref(row))
                del plain
                yield row
                del row
                alive.append(sum(ref() is not None for walk in walks for ref in walk))

        return order, watched()

    monkeypatch.setattr(equivalence, "_product", product)
    return walks, alive


def test_check_keeps_no_row_on_an_equivalent_tower(monkeypatch):
    plant, sup, agents = tower(3, "v5")
    ctx = build_context(plant, sup, agents)
    locs = [
        build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
        for s in agents
    ]
    # swapping on a door the cat passes once on some cycle leaves the loops
    # equivalent but has no map, so the check walks the product
    locs.append(alternating(sup.alphabet, sup.alphabet.events.index("c1_1__1_3")))
    assert not supervisor_maps_onto(sup, [plant, *locs])
    walks, alive = watch_rows(monkeypatch)
    assert check_control_equivalence(plant, sup, locs)
    (walk,) = walks
    assert len(walk) == sync_product([sup, plant, *locs]).n_states > 100
    # only the row the check holds in its loop is alive when it asks for the next
    assert len(alive) == len(walk) and max(alive) == 1
    assert all(ref() is None for ref in walk)


def test_check_stops_at_the_first_mismatch(monkeypatch):
    from suploc import automata

    rng = SplitMix64(17)
    walks, _ = watch_rows(monkeypatch)
    mismatches = streamed = walked = 0
    for plant, sup, agents in systems_corpus(59, 60):
        ctx = build_context(plant, sup, agents)
        locs = [
            build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
            for s in agents
        ]
        swap = alternating(plant.alphabet, 0)
        for side in (locs[:-1], [supervisor_from(rng, plant)] + locs[1:], locs + [swap]):
            walks.clear()
            verdict = check_control_equivalence(plant, sup, side)
            if verdict:
                # one walk, unless the supervisor's maps decided without one
                mapped = supervisor_maps_onto(sup, [plant, *side])
                assert len(walks) == (not mapped)
                walked += not mapped
                continue
            # the failing tuple: where the trace leads, before a language
            # failure's extra event
            comps = [sup, plant, *side]
            order, rows = automata._product(comps)
            rows = list(rows)
            events = plant.alphabet.events
            trace = verdict.counterexample
            pos = 0
            for name in trace[:-1] if verdict.failed == "language" else trace:
                pos = rows[pos][events.index(name)]
            check, again = walks
            assert len(check) <= pos + 1
            assert len(again) == pos
            mismatches += 1
            streamed += len(rows) > pos + 1
    assert mismatches >= 50 and streamed >= 30 and walked >= 20, (mismatches, streamed, walked)


# ---------------------------------------------------------------------------
# the supervisor's maps decide without the product where they exist


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_check_draws_no_product_row_on_the_towers(monkeypatch, levels):
    # every quotient of a control congruence is an image of the supervisor,
    # and a synthesized supervisor maps onto its plant
    base_plant, base_sup, agents = tower(levels, "base")
    base_ctx = build_context(base_plant, base_sup, agents)
    base_covers = [localize(base_sup, base_ctx, s.agent_index) for s in agents]
    products = count_products(monkeypatch)
    for variant in VARIANTS:
        plant, sup, agents = tower(levels, variant)
        ctx = build_context(plant, sup, agents)
        ks = [s.agent_index for s in agents]
        sl = [build_local_supervisor(sup, localize(sup, ctx, k), k) for k in ks]
        transformational = tsl(base_covers, base_sup, sup, ctx, tuple(ks))[0]
        for locs in (sl, transformational):
            verdict = check_control_equivalence(plant, sup, locs)
            assert verdict, (variant, verdict.direction, verdict.counterexample)
    assert products == []


def test_check_matches_reference_on_reachable_systems(monkeypatch):
    # every field of every verdict equals the pair traversal's, and the
    # product is walked exactly when the maps cannot decide: never when they
    # exist and the loops are equivalent, once when they do not exist and
    # the loops are equivalent, and twice (check, then trace) otherwise
    rng = SplitMix64(2027)
    products = count_products(monkeypatch)
    kinds = {"certified": 0, "walked": 0, "mapped, inequivalent": 0, "language": 0,
             "marked-language": 0}
    for plant, sup, agents in reachable_corpus(4049, 150):
        ctx = build_context(plant, sup, agents)
        locs = [
            build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
            for s in agents
        ]
        sides = [
            locs,
            locs + [alternating(plant.alphabet, rng.below(plant.alphabet.n_events))],
            locs[:-1],
            [remarked(locs[0])] + locs[1:],
            [remarked(sup)],
            [supervisor_from(rng, plant)] + locs[1:],
            [sup],
            [],
        ]
        for side in sides:
            products.clear()
            verdict = check_control_equivalence(plant, sup, side)
            assert verdict == reference_check_control_equivalence(plant, sup, side)
            mapped = supervisor_maps_onto(sup, [plant, *side])
            if verdict:
                assert len(products) == (not mapped)
                kinds["certified" if mapped else "walked"] += 1
            else:
                assert len(products) == 2
                kinds["mapped, inequivalent"] += mapped
                kinds[verdict.failed] += mapped
    assert min(kinds.values()) >= 30, kinds


def test_check_swapping_automaton_on_a_self_loop():
    # s0 loops on a, so the swapping automaton gives s0 two images; the
    # loops stay equivalent and the product decides
    table = EventTable(("a", "b"), (True, True), (1, 1))
    plant = Automaton(["s0", "s1"], table, [(0, 0, 0), (0, 1, 1), (1, 0, 1)], 0, [1])
    swap = alternating(table, 0)
    assert not supervisor_maps_onto(plant, [plant, swap])
    for sup, locs in ((plant, [swap]), (plant, [swap, plant])):
        verdict = check_control_equivalence(plant, sup, locs)
        assert verdict == reference_check_control_equivalence(plant, sup, locs)
        assert verdict
    # withholding b at s0 makes the same locals too permissive
    sup = Automaton(["s0"], table, [(0, 0, 0)], 0)
    verdict = check_control_equivalence(plant, sup, [swap])
    assert verdict == reference_check_control_equivalence(plant, sup, [swap])
    assert verdict.failed == "language" and verdict.counterexample == ("b",)


def test_check_supervisor_that_is_no_sub_automaton_of_the_plant(monkeypatch):
    # the plant alternates p0, p1 on a where the supervisor loops, so the
    # plant's map gives s0 two images; b the plant lacks at p0 is a missing event
    table = EventTable(("a", "b"), (True, True), (1, 1))
    plant = Automaton(["p0", "p1"], table, [(0, 0, 1), (1, 0, 0), (1, 1, 1)], 0, [0])
    looping = Automaton(["s0"], table, [(0, 0, 0)], 0, [0])
    extra = Automaton(["s0", "s1"], table, [(0, 0, 1), (0, 1, 0), (1, 0, 0)], 0, [0])
    products = count_products(monkeypatch)
    for sup in (looping, extra):
        assert not supervisor_maps_onto(sup, [plant])
        for locs in ([], [sup], [looping], [plant]):
            products.clear()
            verdict = check_control_equivalence(plant, sup, locs)
            assert verdict == reference_check_control_equivalence(plant, sup, locs)
            assert len(products) == (1 if verdict else 2)


def test_check_without_local_supervisors(monkeypatch, corpus_plant, corpus_sup):
    # no locals: the local loop is the plant alone
    products = count_products(monkeypatch)
    assert check_control_equivalence(corpus_plant, corpus_plant, []) == EquivalenceVerdict(True)
    assert products == []
    verdict = check_control_equivalence(corpus_plant, corpus_sup, [])
    assert verdict == reference_check_control_equivalence(corpus_plant, corpus_sup, [])
    assert verdict.failed == "language" and "admit behavior" in verdict.direction
    assert products == [2, 2]


def test_check_ignores_unreachable_supervisor_states(monkeypatch, corpus_plant, corpus_sup):
    # an unreachable marked state that moves on an event no other automaton
    # has from there changes neither loop, and the maps never visit it
    table = corpus_sup.alphabet
    triples = [*corpus_sup.iter_transitions(), (5, 0, 5), (5, 1, 0)]
    sup = Automaton([*corpus_sup.states, "stray"], table, triples, corpus_sup.initial, [5])
    loc = build_local_supervisor(sup, Cover.singleton(sup.n_states), 1)
    products = count_products(monkeypatch)
    for locs in ([loc], [corpus_sup]):
        verdict = check_control_equivalence(corpus_plant, sup, locs)
        assert verdict == reference_check_control_equivalence(corpus_plant, sup, locs)
        assert verdict
    assert products == []


def test_check_reads_a_generator_of_local_supervisors_once(corpus_plant, corpus_sup, corpus_ctx):
    loc = build_local_supervisor(corpus_sup, localize(corpus_sup, corpus_ctx, 1), 1)
    table = corpus_sup.alphabet
    swap = alternating(table, 0)
    allow_all = Automaton(["top"], table, [(0, e, 0) for e in range(table.n_events)], 0, [0])
    for locs in ([loc], [loc, swap], [allow_all], []):
        expected = reference_check_control_equivalence(corpus_plant, corpus_sup, locs)
        assert check_control_equivalence(corpus_plant, corpus_sup, iter(locs)) == expected
        assert check_control_equivalence(corpus_plant, corpus_sup, (a for a in locs)) == expected


def test_check_rejects_another_alphabet_before_deciding(corpus_plant, corpus_sup):
    other = EventTable(("z",), (True,), (1,))
    stranger = Automaton(["s"], other, [(0, 0, 0)], 0, [0])
    message = "alphabet mismatch between product components"
    for plant, locs in ((corpus_plant, [stranger]), (corpus_plant, [corpus_sup, stranger]),
                        (stranger, [])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_control_equivalence(plant, corpus_sup, locs)
