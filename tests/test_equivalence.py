"""Control equivalence: closed-loop comparison and counterexamples."""

import weakref

from suploc.automata import Automaton, reachable_trim, sync_product
from suploc.context import build_context
from suploc.equivalence import check_control_equivalence
from suploc.localization import build_local_supervisor, localize
from suploc.rng import SplitMix64

from .instances import (
    controlled_behavior,
    isomorphic,
    language_upto,
    marked_language_upto,
    random_plant,
    reference_check_control_equivalence,
    replay_counterexample,
    supervisor_from,
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


def test_check_builds_one_product_and_no_automaton(monkeypatch, corpus_plant, corpus_sup, corpus_ctx):
    from suploc import automata, equivalence

    loc = build_local_supervisor(corpus_sup, localize(corpus_sup, corpus_ctx, 1), 1)
    products = []

    def counted(comps):
        products.append(len(comps))
        return automata._product(comps)

    def no_automaton(*args, **kwargs):
        raise AssertionError("the equivalence check built an automaton")

    monkeypatch.setattr(equivalence, "_product", counted)
    monkeypatch.setattr(automata.Automaton, "__init__", no_automaton)
    monkeypatch.setattr(automata.Automaton, "_from_rows", no_automaton)
    assert check_control_equivalence(corpus_plant, corpus_sup, [loc])
    assert products == [3]


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
    mismatches = streamed = 0
    for plant, sup, agents in systems_corpus(59, 60):
        ctx = build_context(plant, sup, agents)
        locs = [
            build_local_supervisor(sup, localize(sup, ctx, s.agent_index), s.agent_index)
            for s in agents
        ]
        for side in (locs[:-1], [supervisor_from(rng, plant)] + locs[1:]):
            walks.clear()
            verdict = check_control_equivalence(plant, sup, side)
            if verdict:
                assert len(walks) == 1
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
    assert mismatches >= 50 and streamed >= 30, (mismatches, streamed)
