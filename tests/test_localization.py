"""Merge machinery, localization loop, quotient construction, validators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suploc import localization, transform
from suploc.automata import (
    Automaton,
    EventTable,
    FormatError,
    apply_state_order,
    reachable_trim,
    sync_product,
)
from suploc.cmt import CmtConfig, gen_cmt, synthesize_cmt
from suploc.context import ControlContext, agents_from_table, build_context
from suploc.localization import (
    Cover,
    InvalidCoverError,
    _Cells,
    _check_merge,
    _clash,
    _summary,
    build_local_supervisor,
    is_control_congruence,
    localize,
    parse_cover,
    write_cover,
)
from suploc.rng import SplitMix64
from suploc.transform import carry_over_cover, isolate, tsl

from .instances import (
    control_consistent,
    is_closure_maximal,
    is_maximally_reduced,
    isomorphic,
    mutate_system,
    reference_merge_closure,
    reference_control_consistent,
    reference_is_control_congruence,
    snapshot,
    systems_corpus,
    tower3,
)


def named_cells(cover, aut):
    return [[aut.states[x] for x in cell] for cell in cover.cells()]


def checked_merge(engine, x_i, x_j, floor, sup, ctx, cells, agent):
    """Run ``engine`` on ``cells`` after the naive congruence closure has
    judged the same merge. Both must reject, leaving ``cells`` exactly as
    before, or both must accept, with ``cells`` merged into the closure's
    cover and every cell's kept summary that of its members. Returns the
    engine's verdict."""
    state = snapshot(cells)
    want = reference_merge_closure(x_i, x_j, floor, sup, ctx, agent, cells.to_cover())
    accepted = engine(x_i, x_j, floor, cells)
    assert accepted == (want is not None)
    if accepted:
        assert cells.to_cover() == want
        for members, summary in zip(cells._members, cells._sum):
            if members:
                assert summary == _summary(ctx, agent, members)
    else:
        assert snapshot(cells) == state
    return accepted


def engine_commit(x_i, x_j, floor, sup, ctx, cover, agent):
    """The cover the engine commits for merging x_i and x_j in ``cover``,
    or None when it rejects, checked against the naive closure."""
    cells = _Cells(sup, ctx, agent, cover)
    if checked_merge(_check_merge, x_i, x_j, floor, sup, ctx, cells, agent):
        return cells.to_cover()
    return None


# ---------------------------------------------------------------------------
# Cover basics


def test_cover_from_cells_and_equality():
    a = Cover.from_cells([[0, 3, 4], [1, 2]], 5)
    b = Cover([7, 9, 9, 7, 7])
    assert a == b
    assert a.n_cells == 2
    assert a.cells() == [[0, 3, 4], [1, 2]]
    # cells are ordered by least member whatever the identifiers
    assert Cover([9, 7, 7, 9, 9]).cells() == a.cells()


def test_cover_repr_and_comparison_with_other_types():
    cover = Cover([7, 9, 9, 7, 7])
    assert repr(cover) == "Cover[{0,3,4}, {1,2}]"
    assert cover.__eq__(cover.cell_of) is NotImplemented
    assert cover != cover.cell_of


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(), max_size=30), st.data())
def test_cover_ids_are_canonical(ids, data):
    cover = Cover(ids)
    distinct = list(dict.fromkeys(ids))
    images = data.draw(
        st.lists(st.integers(), min_size=len(distinct), max_size=len(distinct), unique=True)
    )
    relabel = dict(zip(distinct, images))
    assert Cover([relabel[ident] for ident in ids]).cell_of == cover.cell_of
    assert cover.n_cells == len(set(ids))
    groups: dict[int, list[int]] = {}
    for x, ident in enumerate(ids):
        groups.setdefault(ident, []).append(x)
    cells = cover.cells()
    assert cells == sorted(groups.values(), key=lambda cell: cell[0])
    assert all(cover.cell_of[x] == k for k, cell in enumerate(cells) for x in cell)
    assert Cover.from_cells(cells, len(ids)) == cover


def test_cover_from_cells_rejects_bad_partitions():
    with pytest.raises(ValueError, match="two cells"):
        Cover.from_cells([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError, match="cover every state"):
        Cover.from_cells([[0, 1]], 3)
    with pytest.raises(ValueError) as info:
        Cover.from_cells([[0], [2, 4]], 5)
    assert str(info.value) == "cells do not cover every state: state 1 is in no cell"


def test_parse_cover_names_the_first_missing_state(corpus_sup):
    with pytest.raises(FormatError) as info:
        parse_cover("cell 0: x0 x3\ncell 1: x1\n", corpus_sup)
    assert str(info.value) == "cells do not cover every state: state 'x2' is in no cell"
    assert info.value.line is None


def test_cover_serialization_roundtrip(corpus_sup):
    cover = Cover.from_cells([[0, 3, 4], [1, 2]], 5)
    text = write_cover(cover, corpus_sup)
    assert text == "cell 0: x0 x3 x4\ncell 1: x1 x2\n"
    assert parse_cover(text, corpus_sup) == cover


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("cell 0: x0 x3\ncell 1: x1 x2\ncell 2: x3 x4\n", 3,
         "line 3: state 'x3' appears in two cells"),
        ("cell 0: x0 x3 x4 x0\ncell 1: x1 x2\n", 1,
         "line 1: state 'x0' appears twice in one cell"),
        ("cellar: x0 x3 x4\ncell 1: x1 x2\n", 1,
         "line 1: cover line needs: cell <id>: <state-name>..."),
        ("cell 0: x0 x3 x4\ncell: x1 x2\n", 2,
         "line 2: cover line needs: cell <id>: <state-name>..."),
        ("cell 0 junk: x0 x3 x4\ncell 1: x1 x2\n", 1,
         "line 1: cover line needs: cell <id>: <state-name>..."),
        ("cell -1: x0 x3 x4\ncell 1: x1 x2\n", 1,
         "line 1: cover line needs: cell <id>: <state-name>..."),
        ("cell 0: x0 x3 x4\ncell 0: x1 x2\n", 2, "line 2: duplicate cell id 0"),
        ("cell 1: x0 x3 x4\ncell 01: x1 x2\n", 2, "line 2: duplicate cell id 1"),
    ],
)
def test_parse_cover_names_repeated_state_and_line(corpus_sup, text, line, message):
    with pytest.raises(FormatError) as info:
        parse_cover(text, corpus_sup)
    assert str(info.value) == message
    assert info.value.line == line


def test_wait_list_is_symmetric(corpus_sup, corpus_ctx):
    # the engine commits the same merge whichever way round it is asked for
    cover = Cover.singleton(5)
    want = Cover.from_cells([[0, 3], [1], [2], [4]], 5)
    assert engine_commit(0, 3, 0, corpus_sup, corpus_ctx, cover, 1) == want
    assert engine_commit(3, 0, 0, corpus_sup, corpus_ctx, cover, 1) == want


# ---------------------------------------------------------------------------
# Control consistency


def test_consistency_is_reflexive(corpus_ctx, corpus_sup):
    for x in range(corpus_sup.n_states):
        assert control_consistent(corpus_ctx, 1, x, x)


def test_consistency_corpus_pairs(corpus_ctx, corpus_sup):
    x = corpus_sup.index_of
    # c is withheld at x0 but enabled at x1
    assert not control_consistent(corpus_ctx, 1, x("x0"), x("x1"))
    assert control_consistent(corpus_ctx, 1, x("x0"), x("x3"))
    # symmetric
    assert not control_consistent(corpus_ctx, 1, x("x1"), x("x0"))


def test_consistency_marking_condition():
    # same plant-marking indicator but different supervisor marking
    from suploc.automata import Automaton, EventTable
    from suploc.context import agents_from_table

    table = EventTable(("a",), (True,), (1,))
    plant = Automaton(["p", "q"], table, [(0, 0, 1)], 0, [])
    sup = Automaton(["p", "q"], table, [(0, 0, 1)], 0, [1])
    ctx = build_context(plant, sup, agents_from_table(table))
    assert not control_consistent(ctx, 1, 0, 1)


def test_summary_clash_is_consistency_on_corpus_pairs():
    # one-state summaries clash exactly when the two states are not control
    # consistent by the pairwise rule, for every state pair of every agent of
    # the corpus, and control_consistent agrees with that rule
    outcomes = {"clash": 0, "consistent": 0}
    for plant, sup, agents in systems_corpus(424242, 200):
        ctx = build_context(plant, sup, agents)
        for spec in agents:
            k = spec.agent_index
            one = [_summary(ctx, k, (x,)) for x in range(sup.n_states)]
            for x in range(sup.n_states):
                for y in range(sup.n_states):
                    clash = _clash(one[x], one[y])
                    want = reference_control_consistent(ctx, k, x, y)
                    assert clash == (not want)
                    assert control_consistent(ctx, k, x, y) == want
                    outcomes["clash" if clash else "consistent"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_summary_clash_is_any_inconsistent_pair():
    # the corpus supervisors mark as their plants do, so the marking classes
    # are exercised here: random tables over eight states, random state sets
    rng = SplitMix64(77)
    n = 8
    enabled = [rng.below(8) for _ in range(n)]
    disabled = [rng.below(8) & ~on for on in enabled]
    marked = [rng.below(2) < 1 for _ in range(n)]
    plant_marked = [rng.below(2) < 1 for _ in range(n)]
    ctx = ControlContext(enabled, {1: disabled}, marked, plant_marked)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        s = [x for x in range(n) if rng.below(3) < 1]
        t = [x for x in range(n) if rng.below(3) < 1]
        want = any(not reference_control_consistent(ctx, 1, x, y) for x in s for y in t)
        assert _clash(_summary(ctx, 1, s), _summary(ctx, 1, t)) == want
        outcomes[want] += 1
    for pm in (False, True):
        for m in (False, True):
            ctx = ControlContext([0, 0], {1: [0, 0]}, [m, not m], [pm, pm])
            assert _clash(_summary(ctx, 1, [0]), _summary(ctx, 1, [1]))
            ctx = ControlContext([0, 0], {1: [0, 0]}, [m, not m], [pm, not pm])
            assert not _clash(_summary(ctx, 1, [0]), _summary(ctx, 1, [1]))
    assert min(outcomes.values()) > 200, outcomes


# ---------------------------------------------------------------------------
# merge-exploration engine


def test_check_merge_skips_pair_already_linked():
    from suploc.automata import Automaton, EventTable
    from suploc.context import agents_from_table

    # both states loop on a, so exploring (p, q) leads back to (p, q); the
    # engine must skip the pair, whose states now share a cell, instead of
    # exploring it again
    table = EventTable(("a", "b"), (True, True), (1, 1))
    sup = Automaton(["p", "q"], table, [(0, 0, 0), (0, 1, 1), (1, 0, 1)], 0)
    ctx = build_context(sup, sup, agents_from_table(table))
    merged = engine_commit(0, 1, 0, sup, ctx, Cover.singleton(2), 1)
    assert merged == Cover.from_cells([[0, 1]], 2)


def test_check_merge_corpus_outcomes(corpus_sup, corpus_ctx):
    def merge(i, j, cover):
        return engine_commit(i, j, 0, corpus_sup, corpus_ctx, cover, 1)

    singleton = Cover.singleton(5)
    assert merge(0, 1, singleton) is None
    assert merge(0, 3, singleton) == Cover.from_cells([[0, 3], [1], [2], [4]], 5)
    # {x1,x2} entails {x3,x4} through their c-successors
    assert merge(1, 2, singleton) == Cover.from_cells([[0], [1, 2], [3, 4]], 5)
    # after committing {x0,x3}, x4 joins to form one cell of three states
    paired = Cover.from_cells([[0, 3], [1], [2], [4]], 5)
    assert merge(0, 4, paired) == Cover.from_cells([[0, 3, 4], [1], [2]], 5)


def test_check_merge_symmetric_on_random_instances():
    rng = SplitMix64(31)
    for plant, sup, agents in systems_corpus(313, 40, max_states=9):
        ctx = build_context(plant, sup, agents)
        n = sup.n_states
        if n < 2:
            continue
        i = rng.below(n - 1)
        j = i + 1 + rng.below(n - i - 1)
        for spec in agents:
            k = spec.agent_index
            forward = _Cells(sup, ctx, k, Cover.singleton(n))
            backward = _Cells(sup, ctx, k, Cover.singleton(n))
            p1 = _check_merge(i, j, i, forward)
            p2 = _check_merge(j, i, i, backward)
            assert p1 == p2
            assert forward.to_cover() == backward.to_cover()


def test_check_merge_refuses_first_pair_below_floor(corpus_sup, corpus_ctx):
    # x3 shares a cell with x0, below the floor of 3, so uniting it with x4
    # is refused and the cells are left as they were, although the same
    # union is accepted when the floor admits x0
    paired = Cover.from_cells([[0, 3], [1], [2], [4]], 5)
    cells = _Cells(corpus_sup, corpus_ctx, 1, paired)
    state = snapshot(cells)
    assert not _check_merge(3, 4, 3, cells)
    assert snapshot(cells) == state
    assert _check_merge(3, 4, 0, cells)
    assert cells.to_cover() == Cover.from_cells([[0, 3, 4], [1], [2]], 5)


@pytest.fixture
def engine_outcomes(monkeypatch):
    # every engine call made while the fixture is active must agree with the
    # naive congruence closure on the same cells: both reject, or both commit
    # the same cover. The engine takes no supervisor, context or agent, so
    # each ``_Cells`` made meanwhile, by localize or by isolate for tsl to
    # merge, is recorded with the ones it was built for; holding it keeps its
    # id from being reused.
    engine = localization._check_merge
    make_cells = localization._Cells
    built = {}
    outcomes = {"accepted": 0, "rejected": 0}

    def recorded(sup, ctx, agent, cover):
        cells = make_cells(sup, ctx, agent, cover)
        built[id(cells)] = (cells, sup, ctx, agent)
        return cells

    def checked(x_i, x_j, floor, cells):
        _, sup, ctx, agent = built[id(cells)]
        got = checked_merge(engine, x_i, x_j, floor, sup, ctx, cells, agent)
        outcomes["accepted" if got else "rejected"] += 1
        return got

    monkeypatch.setattr(localization, "_Cells", recorded)
    monkeypatch.setattr(transform, "_Cells", recorded)
    monkeypatch.setattr(localization, "_check_merge", checked)
    return outcomes


def test_check_merge_matches_reference_engine(engine_outcomes):
    # localize and tsl over the random corpus and its edits
    rng = SplitMix64(20250810)
    for plant, sup, agents in systems_corpus(424242, 200):
        variant_plant, variant_sup = mutate_system(rng, plant, sup)
        ctx = build_context(plant, sup, agents)
        covers = [localize(sup, ctx, s.agent_index) for s in agents]
        variant_ctx = build_context(variant_plant, variant_sup, agents)
        tsl(covers, sup, variant_sup, variant_ctx, tuple(s.agent_index for s in agents))
    for seed, position in [(2, 94), (3, 175)]:
        plant, sup, agents = next(
            system for i, system in enumerate(systems_corpus(seed, 200)) if i == position
        )
        ctx = build_context(plant, sup, agents)
        for spec in agents:
            localize(sup, ctx, spec.agent_index)
    assert engine_outcomes["accepted"] > 500 and engine_outcomes["rejected"] > 500, engine_outcomes


def test_check_merge_matches_reference_engine_on_tower(engine_outcomes):
    # the unshuffled three-level tower: from-scratch localize of every base
    # agent, then identity-mapped tsl of each variant. Its 195-state
    # supervisor gives explorations that link far more cells than those of
    # the corpus systems, which have at most 12 states.
    plant, sup, agents = tower3("base")
    ctx = build_context(plant, sup, agents)
    covers = [localize(sup, ctx, spec.agent_index) for spec in agents]
    for variant in ("v1", "v2", "v3", "v4", "v5"):
        variant_plant, variant_sup, variant_agents = tower3(variant)
        variant_ctx = build_context(variant_plant, variant_sup, variant_agents)
        mapping = tuple(k if k <= len(covers) else 0 for k in range(1, len(variant_agents) + 1))
        tsl(covers, sup, variant_sup, variant_ctx, mapping)
    assert engine_outcomes["accepted"] > 500 and engine_outcomes["rejected"] > 3000, engine_outcomes


# ---------------------------------------------------------------------------
# localize


@pytest.mark.parametrize("agent", [0, 9])
@pytest.mark.parametrize("call", ["localize", "isolate", "is_control_congruence"])
def test_unknown_agent_is_named_with_the_known_ones(corpus_sup, corpus_ctx, call, agent):
    # the corpus context has agent 1 only; an agent it lacks used to raise a
    # bare KeyError
    cover = Cover.from_cells([[0, 3, 4], [1, 2]], 5)
    run = {
        "localize": lambda: localize(corpus_sup, corpus_ctx, agent, cover),
        "isolate": lambda: isolate(cover, corpus_sup, corpus_sup, corpus_ctx, agent),
        "is_control_congruence": lambda: is_control_congruence(
            corpus_sup, corpus_ctx, agent, cover
        ),
    }[call]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == f"unknown agent {agent}: the context has agents 1..1"


def test_unknown_agent_message_lists_agents_that_are_not_a_range():
    ctx = ControlContext([0], {1: [0], 3: [0]}, [False], [False])
    with pytest.raises(ValueError, match=r"^unknown agent 2: the context has agents 1, 3$"):
        localize(Automaton(["p"], EventTable(("a",), (True,), (1,)), [], 0), ctx, 2)


@pytest.fixture(scope="module")
def tower2():
    """Supervisor and own context of the two-level tower's base (38 states),
    v4 (30) and v5 (49)."""
    systems = {}
    for variant in ("base", "v4", "v5"):
        system = gen_cmt(CmtConfig(2, 1, variant=variant))
        sup = synthesize_cmt(system)
        plant = reachable_trim(sync_product(system.plants))
        systems[variant] = sup, build_context(plant, sup, agents_from_table(sup.alphabet))
    return systems


@pytest.mark.parametrize("variant", ["v4", "v5"])
@pytest.mark.parametrize("call", ["localize", "isolate", "is_control_congruence"])
def test_context_of_another_supervisor_is_refused(tower2, call, variant):
    # the base context is larger than v4's supervisor and smaller than v5's:
    # v5 used to raise IndexError, and v4 got a 2-cell cover for agent 1
    # that the same wrong context called valid and its own context refutes
    base_ctx = tower2["base"][1]
    sup, ctx = tower2[variant]
    cover = localize(sup, ctx, 1)
    run = {
        "localize": lambda: localize(sup, base_ctx, 1),
        "isolate": lambda: isolate(cover, sup, sup, base_ctx, 1),
        "is_control_congruence": lambda: is_control_congruence(sup, base_ctx, 1, cover),
    }[call]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == (
        f"the context has tables for 38 states, the supervisor has {sup.n_states}"
    )


def test_localize_corpus(corpus_sup, corpus_ctx):
    cover = localize(corpus_sup, corpus_ctx, 1)
    assert named_cells(cover, corpus_sup) == [["x0", "x3", "x4"], ["x1", "x2"]]


def test_localize_is_fixed_point_on_own_output(corpus_sup, corpus_ctx):
    cover = localize(corpus_sup, corpus_ctx, 1)
    again = localize(corpus_sup, corpus_ctx, 1, cover)
    assert again == cover


@pytest.mark.parametrize(
    "cells, reason",
    [
        # {x1,x2} step on c into x3 and x4, which are apart
        ([[0], [1, 2], [3], [4]], "step to two cells on 'c'"),
        # c is withheld at x0 but enabled at x1
        ([[0, 1], [2], [3], [4]], "not control consistent"),
    ],
)
def test_localize_refuses_an_init_that_is_not_a_congruence(corpus_sup, corpus_ctx, cells, reason):
    init = Cover.from_cells(cells, 5)
    witness = is_control_congruence(corpus_sup, corpus_ctx, 1, init).witness
    assert reason in witness
    with pytest.raises(InvalidCoverError) as info:
        localize(corpus_sup, corpus_ctx, 1, init)
    assert str(info.value) == f"cover is not a control congruence: {witness}"


def test_localize_refuses_the_base_cover_under_the_variant_context(
    corpus_sup, corpus_ctx, corpus_variant_ctx
):
    # the edit makes x0 and x3 clash, so the base cover must be isolated
    # before it can seed the variant's localization
    cover = localize(corpus_sup, corpus_ctx, 1)
    with pytest.raises(InvalidCoverError, match="states 'x0' and 'x3' share a cell"):
        localize(corpus_sup, corpus_variant_ctx, 1, cover)


def test_localize_variant_from_isolated_cover(corpus_sup, corpus_variant_ctx):
    init = Cover.from_cells([[0], [1, 2], [3, 4]], 5)
    cover = localize(corpus_sup, corpus_variant_ctx, 1, init)
    assert named_cells(cover, corpus_sup) == [["x0"], ["x1", "x2", "x3", "x4"]]


def test_localize_outputs_valid_and_maximally_reduced():
    for plant, sup, agents in systems_corpus(41, 60):
        ctx = build_context(plant, sup, agents)
        for spec in agents:
            k = spec.agent_index
            cover = localize(sup, ctx, k)
            verdict = is_control_congruence(sup, ctx, k, cover)
            assert verdict, verdict.witness
            assert is_maximally_reduced(sup, ctx, k, cover)
            assert is_closure_maximal(sup, ctx, k, cover)


# On these systems a wait list used to link cells through a third cell whose
# members were never paired with the first two, so its closure merged states
# that clash.
@pytest.mark.parametrize("seed, position", [(2, 94), (3, 175)])
def test_localize_agent1_congruence_on_corpus_defects(seed, position):
    plant, sup, agents = next(
        system for i, system in enumerate(systems_corpus(seed, 200)) if i == position
    )
    ctx = build_context(plant, sup, agents)
    verdict = is_control_congruence(sup, ctx, 1, localize(sup, ctx, 1))
    assert verdict, verdict.witness


def test_localize_and_tsl_congruent_over_corpus_sweep():
    # 6,000 generated systems, every agent localized from scratch, then one
    # random edit each relocalized by tsl. Before wait-list links were
    # followed transitively this found 13 non-congruent localize covers, 5
    # non-congruent tsl covers and 2 InvalidCoverError crashes.
    for seed in range(1, 31):
        rng = SplitMix64(seed * 7919)
        for position, (plant, sup, agents) in enumerate(systems_corpus(seed, 200)):
            ctx = build_context(plant, sup, agents)
            covers = [localize(sup, ctx, spec.agent_index) for spec in agents]
            variant_plant, variant_sup = mutate_system(rng, plant, sup)
            variant_ctx = build_context(variant_plant, variant_sup, agents)
            mapping = tuple(s.agent_index for s in agents)
            _, variant_covers = tsl(covers, sup, variant_sup, variant_ctx, mapping)
            for spec, cover, variant_cover in zip(agents, covers, variant_covers):
                k = spec.agent_index
                verdict = is_control_congruence(sup, ctx, k, cover)
                assert verdict, ("localize", seed, position, k, verdict.witness)
                verdict = is_control_congruence(variant_sup, variant_ctx, k, variant_cover)
                assert verdict, ("tsl", seed, position, k, verdict.witness)


def test_localize_only_merges():
    rng = SplitMix64(99)
    for plant, sup, agents in systems_corpus(43, 30):
        ctx = build_context(plant, sup, agents)
        n = sup.n_states
        for spec in agents:
            k = spec.agent_index
            init = localize(sup, ctx, k)
            cover = localize(sup, ctx, k, init)
            assert cover.n_cells <= init.n_cells
            assert cover.n_cells <= n


def test_localize_robust_under_permutation(corpus_plant, corpus_sup, corpus_agents):
    rng = SplitMix64(17)
    for _ in range(12):
        order = rng.permutation(corpus_sup.n_states)
        sup = apply_state_order(corpus_sup, order)
        ctx = build_context(corpus_plant, sup, corpus_agents)
        cover = localize(sup, ctx, 1)
        verdict = is_control_congruence(sup, ctx, 1, cover)
        assert verdict, verdict.witness
        assert is_maximally_reduced(sup, ctx, 1, cover)


# ---------------------------------------------------------------------------
# local supervisors


def test_singleton_cover_gives_isomorphic_quotient(corpus_sup):
    loc = build_local_supervisor(corpus_sup, Cover.singleton(5), 1)
    assert isomorphic(loc, corpus_sup)


def test_corpus_local_supervisor(corpus_sup, corpus_ctx):
    cover = localize(corpus_sup, corpus_ctx, 1)
    loc = build_local_supervisor(corpus_sup, cover, 1)
    aut = loc
    assert aut.n_states == 2
    idx = {name: i for i, name in enumerate(aut.states)}
    y0, y1 = idx["x0"], idx["x1"]
    assert aut.initial == y0
    t = aut.alphabet
    assert aut.succ_maps[y0].get(t.events.index("a")) == y1
    assert aut.succ_maps[y0].get(t.events.index("d")) == y1
    assert aut.succ_maps[y0].get(t.events.index("e")) == y0
    assert aut.succ_maps[y1].get(t.events.index("c")) == y0
    assert aut.succ_maps[y1].get(t.events.index("b")) == y1


def test_variant_local_supervisor(corpus_sup, corpus_variant_ctx):
    init = Cover.from_cells([[0], [1, 2], [3, 4]], 5)
    cover = localize(corpus_sup, corpus_variant_ctx, 1, init)
    loc = build_local_supervisor(corpus_sup, cover, 1)
    assert loc.n_states == 2


def test_invalid_cover_reported_during_construction(corpus_sup):
    # {x1,x2} step to different cells on c when x3 and x4 stay apart
    cover = Cover.from_cells([[0], [1, 2], [3], [4]], 5)
    with pytest.raises(InvalidCoverError, match="two cells"):
        build_local_supervisor(corpus_sup, cover, 1)


def test_invalid_cover_witness_is_the_first_clashing_cell():
    # {s0,s4} clash on a and {s1,s2} on b; walking states in index order
    # meets the clash of {s1,s2} first, but the witness is the lower cell
    table = EventTable(("a", "b"), (True, True), (1, 1))
    sup = Automaton(
        ["s0", "s1", "s2", "s3", "s4"],
        table,
        [(0, 0, 1), (4, 0, 3), (1, 1, 3), (2, 1, 1)],
        0,
    )
    cover = Cover.from_cells([[0, 4], [1, 2], [3]], 5)
    with pytest.raises(InvalidCoverError) as err:
        build_local_supervisor(sup, cover, 1)
    assert str(err.value) == (
        "cover is not a control congruence: cell of 's0' steps to two cells on 'a'"
    )


# ---------------------------------------------------------------------------
# validators


def test_singleton_cover_always_congruence(corpus_sup, corpus_ctx, corpus_variant_ctx):
    for ctx in (corpus_ctx, corpus_variant_ctx):
        assert is_control_congruence(corpus_sup, ctx, 1, Cover.singleton(5))


def test_base_cover_invalid_on_variant(corpus_sup, corpus_ctx, corpus_variant_ctx):
    cover = localize(corpus_sup, corpus_ctx, 1)
    verdict = is_control_congruence(corpus_sup, corpus_variant_ctx, 1, cover)
    assert not verdict
    assert "x0" in verdict.witness and "x3" in verdict.witness


def test_merging_final_cells_breaks_congruence(corpus_sup, corpus_variant_ctx):
    merged = Cover.from_cells([[0, 1, 2, 3, 4]], 5)
    assert not is_control_congruence(corpus_sup, corpus_variant_ctx, 1, merged)


def test_maximal_reduction_verdicts(corpus_sup, corpus_ctx, corpus_variant_ctx):
    base_cover = localize(corpus_sup, corpus_ctx, 1)
    assert is_maximally_reduced(corpus_sup, corpus_ctx, 1, base_cover)
    # the isolated variant cover can still merge {x1,x2} with {x3,x4}
    isolated = Cover.from_cells([[0], [1, 2], [3, 4]], 5)
    assert not is_maximally_reduced(corpus_sup, corpus_variant_ctx, 1, isolated)


def test_singleton_maximally_reduced_when_nothing_consistent():
    from suploc.automata import Automaton, EventTable
    from suploc.context import agents_from_table

    # q executes a loop the supervisor withholds at p and the other way
    # round, so the two states can never share a cell
    table = EventTable(("a", "b", "c"), (True, True, True), (1, 1, 1))
    plant = Automaton(
        ["p", "q"], table, [(0, 0, 1), (0, 1, 0), (1, 2, 1), (1, 1, 1), (0, 2, 0)], 0
    )
    sup = Automaton(["p", "q"], table, [(0, 0, 1), (0, 1, 0), (1, 2, 1)], 0)
    ctx = build_context(plant, sup, agents_from_table(table))
    cover = Cover.singleton(2)
    assert is_control_congruence(sup, ctx, 1, cover)
    assert is_maximally_reduced(sup, ctx, 1, cover)


# ---------------------------------------------------------------------------
# the linear congruence check against the pair scan


def same_verdict(sup, ctx, agent, cover, outcomes):
    """Assert that the linear check and the pair scan give one verdict and
    one witness, and that ``localize`` refuses the cover as its seed exactly
    when the pair scan does, with that witness; count the verdict by kind."""
    got = is_control_congruence(sup, ctx, agent, cover)
    want = reference_is_control_congruence(sup, ctx, agent, cover)
    assert (got.valid, got.witness) == (want.valid, want.witness)
    if want:
        localize(sup, ctx, agent, cover)
    else:
        with pytest.raises(InvalidCoverError) as info:
            localize(sup, ctx, agent, cover)
        assert str(info.value) == f"cover is not a control congruence: {want.witness}"
    if want:
        outcomes["valid"] += 1
    elif "not control consistent" in want.witness:
        outcomes["consistency"] += 1
    else:
        assert "step to two cells" in want.witness
        outcomes["successor"] += 1


def nearby_partitions(rng, cover):
    """A random partition of the same states, ``cover`` with one random cell
    split in two at random, and ``cover`` with two random cells united."""
    n = cover.n_states
    parts = 1 + rng.below(n)
    split = rng.below(cover.n_cells)
    a, b = rng.below(cover.n_cells), rng.below(cover.n_cells)
    return [
        Cover([rng.below(parts) for _ in range(n)]),
        Cover([n if c == split and rng.below(2) < 1 else c for c in cover.cell_of]),
        Cover([a if c == b else c for c in cover.cell_of]),
    ]


@pytest.fixture(scope="module")
def tower4_sl(cmt_systems, cmt_supervisors, cmt_plants):
    """(supervisor, context, agent, from-scratch cover) for every agent of
    the four-level tower and its variants, states in the seed-7 order."""
    covers = []
    for variant, sup in cmt_supervisors.items():
        sup = apply_state_order(sup, SplitMix64(7).permutation(sup.n_states))
        agents = cmt_systems[variant].agents
        ctx = build_context(cmt_plants[variant], sup, agents)
        covers += [(sup, ctx, s.agent_index, localize(sup, ctx, s.agent_index)) for s in agents]
    return covers


def test_congruence_check_matches_pair_scan_on_corpus():
    # the localize, isolate and tsl covers of the corpus and its edits, the
    # base covers carried onto the edits, and partitions near the localize
    # and tsl covers
    rng = SplitMix64(11)
    outcomes = {"valid": 0, "consistency": 0, "successor": 0}
    for plant, sup, agents in systems_corpus(424242, 200):
        variant_plant, variant_sup = mutate_system(rng, plant, sup)
        ctx = build_context(plant, sup, agents)
        variant_ctx = build_context(variant_plant, variant_sup, agents)
        covers = [localize(sup, ctx, s.agent_index) for s in agents]
        mapping = tuple(s.agent_index for s in agents)
        _, tsl_covers = tsl(covers, sup, variant_sup, variant_ctx, mapping)
        for spec, cover, tsl_cover in zip(agents, covers, tsl_covers):
            k = spec.agent_index
            carried = carry_over_cover(cover, sup, variant_sup)
            isolated = isolate(cover, sup, variant_sup, variant_ctx, k)
            same_verdict(sup, ctx, k, cover, outcomes)
            for variant_cover in (carried, isolated, tsl_cover):
                same_verdict(variant_sup, variant_ctx, k, variant_cover, outcomes)
            for near in nearby_partitions(rng, cover):
                same_verdict(sup, ctx, k, near, outcomes)
            for near in nearby_partitions(rng, tsl_cover):
                same_verdict(variant_sup, variant_ctx, k, near, outcomes)
    assert min(outcomes.values()) > 100, outcomes


def test_congruence_check_matches_pair_scan_on_tower(tower4_sl):
    # partitions near each from-scratch cover, and, because the tower's
    # agents disable few events, the singleton partition with one pair of
    # control inconsistent states united
    rng = SplitMix64(12)
    outcomes = {"valid": 0, "consistency": 0, "successor": 0}
    for sup, ctx, k, cover in tower4_sl:
        same_verdict(sup, ctx, k, cover, outcomes)
        for _ in range(2):
            for near in nearby_partitions(rng, cover):
                same_verdict(sup, ctx, k, near, outcomes)
        n = sup.n_states
        clashing = [
            (x, y) for x in range(n) if ctx.disabled[k][x]
            for y in range(n) if not control_consistent(ctx, k, x, y)
        ]
        for _ in range(5):
            x, y = clashing[rng.below(len(clashing))]
            same_verdict(sup, ctx, k, Cover([x if z == y else z for z in range(n)]), outcomes)
    assert outcomes["valid"] >= len(tower4_sl), outcomes
    assert min(outcomes["consistency"], outcomes["successor"]) > 100, outcomes


def test_congruence_check_scans_past_a_state_that_clashes_with_itself():
    # build_context never disables an event a state enables, so this context
    # is built by hand: s0 enables and disables a, so the summary of {s0,s1}
    # clashes with itself while s0 and s1 are control consistent, and the
    # pair scan there finds nothing. s3 disables b, which s2 and s4 enable,
    # and s2 and s4 step on b to s4 and s0.
    table = EventTable(("a", "b"), (True, True), (1, 1))
    sup = Automaton(["s0", "s1", "s2", "s3", "s4"], table, [(0, 0, 0), (2, 1, 4), (4, 1, 0)], 0)
    ctx = ControlContext([1, 0, 2, 0, 2], {1: [1, 0, 0, 2, 0]}, [False] * 5, [False] * 5)
    assert is_control_congruence(sup, ctx, 1, Cover.from_cells([[0, 1], [2], [3], [4]], 5))
    verdict = is_control_congruence(sup, ctx, 1, Cover.from_cells([[0, 1], [2, 3], [4]], 5))
    assert verdict.witness == (
        "states 's2' and 's3' share a cell but are not control consistent for agent 1"
    )
    verdict = is_control_congruence(sup, ctx, 1, Cover.from_cells([[0, 1], [2, 4], [3]], 5))
    assert verdict.witness == "states 's2' and 's4' share a cell but step to two cells on 'b'"
    # and every partition of the five states agrees with the pair scan
    outcomes = {"valid": 0, "consistency": 0, "successor": 0}
    partitions = [[]]
    for x in range(5):
        partitions = [
            cells[:i] + [cells[i] + [x]] + cells[i + 1:] for cells in partitions
            for i in range(len(cells))
        ] + [cells + [[x]] for cells in partitions]
    assert len(partitions) == 52
    for cells in partitions:
        same_verdict(sup, ctx, 1, Cover.from_cells(cells, 5), outcomes)
    assert min(outcomes.values()) > 0, outcomes


def test_congruence_check_of_tower_covers_never_scans_pairs(tower4_sl, monkeypatch):
    # a congruence flags no cell, so the check reads each state and each
    # transition a fixed number of times and never calls the pair test
    calls = []
    pair_clash = localization._pair_clash

    def counted(*args):
        calls.append(args)
        return pair_clash(*args)

    monkeypatch.setattr(localization, "_pair_clash", counted)
    for sup, ctx, k, cover in tower4_sl:
        assert is_control_congruence(sup, ctx, k, cover)
    assert calls == []
