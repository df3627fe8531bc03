"""Seeded random system generators, small independent oracles and the
reference implementations the library is compared against, shared by the
test modules.

A "system" is a (plant, supervisor) pair over one event table plus the agent
partition. Supervisors are built by withholding random controllable
transitions from the plant, so they are deterministic sub-behaviors and never
disable an uncontrollable event the plant allows. Plant and supervisor share
state names, which is what the transformational tests rely on.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations
from operator import and_, getitem

from suploc.automata import (
    Automaton,
    EventTable,
    _event_mask,
    _product,
    _tuple_marked,
    _tuple_names,
    reachable_trim,
    sync_product,
)
from suploc.cmt import (
    CAT_DOORS,
    CAT_DOORS_UNCONTROLLABLE,
    CAT_START_ROOM,
    MOUSE_DOORS,
    MOUSE_START_ROOM,
    CmtConfig,
    CmtSystem,
    _animal_tags,
    gen_cmt,
    room_name,
    synthesize_cmt,
)
from suploc.context import FORBIDDEN_STATE, SynthesisEmptyError, agents_from_table
from suploc.equivalence import EquivalenceVerdict
from suploc.localization import Cover, CoverVerdict, _clash, _pair_clash, _summary
from suploc.rng import SplitMix64
from suploc.transform import carry_over_cover


def random_table(rng: SplitMix64, max_events: int = 5, max_agents: int = 3) -> EventTable:
    n_ev = 2 + rng.below(max_events - 1)
    n_ag = 1 + rng.below(min(max_agents, n_ev))
    agents = [1 + (i % n_ag) for i in range(n_ev)]
    rng.shuffle(agents)
    controllable = [rng.below(10) < 7 for _ in range(n_ev)]
    names = [f"e{i}" for i in range(n_ev)]
    return EventTable(tuple(names), tuple(controllable), tuple(agents))


def random_plant(rng: SplitMix64, table: EventTable, max_states: int = 12) -> Automaton:
    n = 2 + rng.below(max_states - 1)
    triples = []
    for x in range(n):
        for e in range(table.n_events):
            if rng.below(2) < 1:
                triples.append((x, e, rng.below(n)))
    marked = [x for x in range(n) if rng.below(10) < 3]
    aut = Automaton([f"s{x}" for x in range(n)], table, triples, 0, marked)
    return reachable_trim(aut)


def supervisor_from(rng: SplitMix64, plant: Automaton) -> Automaton:
    """Withhold random controllable transitions; keep names and marking."""
    table = plant.alphabet
    triples = []
    for src, ev, dst in plant.iter_transitions():
        if table.controllable[ev] and rng.below(100) < 35:
            continue
        triples.append((src, ev, dst))
    sup = Automaton(plant.states, table, triples, plant.initial, plant.marked)
    return reachable_trim(sup)


def reachable_plant(rng: SplitMix64, table: EventTable, max_states: int = 12) -> Automaton:
    """A random plant whose states are all reachable by construction: each
    state after the initial one is entered first from a random earlier state
    on an event that state does not use yet, and every other (state, event)
    gets a random target with probability 1/2, as in ``random_plant``."""
    n = 2 + rng.below(max_states - 1)
    n_ev = table.n_events
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for x in range(1, n):
        open_ = [y for y in range(x) if len(rows[y]) < n_ev]
        src = open_[rng.below(len(open_))]
        free = [e for e in range(n_ev) if e not in rows[src]]
        rows[src][free[rng.below(len(free))]] = x
    for x, row in enumerate(rows):
        for e in range(n_ev):
            if e not in row and rng.below(2) < 1:
                row[e] = rng.below(n)
    triples = [(x, e, y) for x, row in enumerate(rows) for e, y in row.items()]
    marked = [x for x in range(n) if rng.below(10) < 3]
    return Automaton([f"s{x}" for x in range(n)], table, triples, 0, marked)


def reachable_corpus(seed: int, count: int, max_states: int = 12):
    """``count`` systems as in ``systems_corpus``, but on ``reachable_plant``
    plants; the supervisor is still trimmed to its reachable part."""
    rng = SplitMix64(seed)
    for _ in range(count):
        table = random_table(rng)
        plant = reachable_plant(rng, table, max_states)
        yield plant, supervisor_from(rng, plant), agents_from_table(table)


def random_system(rng: SplitMix64, max_states: int = 12):
    table = random_table(rng)
    plant = random_plant(rng, table, max_states)
    sup = supervisor_from(rng, plant)
    return plant, sup, agents_from_table(table)


def systems_corpus(seed: int, count: int, max_states: int = 12):
    rng = SplitMix64(seed)
    for _ in range(count):
        yield random_system(rng, max_states)


def tower(levels, variant):
    """The unshuffled one-animal tower of ``levels`` levels and ``variant``:
    (plant product, synthesized supervisor, agents)."""
    system = gen_cmt(CmtConfig(levels, 1, variant=variant))
    sup = synthesize_cmt(system)
    return reachable_trim(sync_product(system.plants)), sup, agents_from_table(sup.alphabet)


def tower3(variant):
    """The unshuffled three-level, one-animal tower of ``variant``."""
    return tower(3, variant)


def _as_description(plant: Automaton, sup: Automaton):
    """(states, plant transitions by name, withheld set, marked names)."""
    states = list(plant.states)
    trans = {}
    for src, ev, dst in plant.iter_transitions():
        trans[(plant.states[src], ev)] = plant.states[dst]
    sup_has = set()
    for src, ev, dst in sup.iter_transitions():
        sup_has.add((sup.states[src], ev))
    # Only controllable transitions count as withheld: plant moves out of
    # states the supervisor never reaches carry no disablement decision, and
    # treating them as withheld would disable uncontrollable events if an
    # edit makes such a state reachable again.
    withheld = {
        key
        for key in trans
        if key not in sup_has and plant.alphabet.controllable[key[1]]
    }
    marked = {plant.states[x] for x in plant.marked}
    return states, trans, withheld, marked


def _rebuild(states, table, trans, withheld, marked, initial_name):
    index = {s: i for i, s in enumerate(states)}
    plant_triples = [
        (index[src], ev, index[dst])
        for (src, ev), dst in trans.items()
        if src in index and dst in index
    ]
    plant = Automaton(states, table, plant_triples, index[initial_name],
                      [index[s] for s in marked if s in index])
    plant = reachable_trim(plant)
    index = {s: plant.index_of(s) for s in plant.states}
    sup_triples = [
        (index[src], ev, index[dst])
        for (src, ev), dst in trans.items()
        if src in index and dst in index and (src, ev) not in withheld
    ]
    sup = Automaton(plant.states, table, sup_triples, plant.initial, plant.marked)
    sup = reachable_trim(sup)
    return plant, sup


def mutate_system(rng: SplitMix64, plant: Automaton, sup: Automaton):
    """Random edit of a base system: add or remove up to 2 states, rewire up
    to 4 transitions, flip up to 2 markings, change up to 2 withheld
    controllable transitions. Returns the edited (plant, supervisor)."""
    table = plant.alphabet
    states, trans, withheld, marked = _as_description(plant, sup)
    initial_name = plant.states[plant.initial]
    n_ev = table.n_events

    for _ in range(rng.below(3)):  # add states
        name = f"a{rng.below(10_000)}"
        if name in states:
            continue
        anchors = [s for s in states]
        src = anchors[rng.below(len(anchors))]
        ev = rng.below(n_ev)
        if (src, ev) in trans:
            continue
        states.append(name)
        trans[(src, ev)] = name
        if rng.below(2) < 1:
            ev2 = rng.below(n_ev)
            if (name, ev2) not in trans:
                trans[(name, ev2)] = states[rng.below(len(states))]

    for _ in range(rng.below(3)):  # remove states
        candidates = [s for s in states if s != initial_name]
        if not candidates:
            break
        victim = candidates[rng.below(len(candidates))]
        states.remove(victim)
        trans = {
            (src, ev): dst
            for (src, ev), dst in trans.items()
            if src != victim and dst != victim
        }
        withheld = {(src, ev) for (src, ev) in withheld if src != victim}
        marked.discard(victim)

    for _ in range(rng.below(5)):  # rewire transitions
        x = states[rng.below(len(states))]
        ev = rng.below(n_ev)
        if (x, ev) in trans:
            del trans[(x, ev)]
            withheld.discard((x, ev))
        else:
            trans[(x, ev)] = states[rng.below(len(states))]

    for _ in range(rng.below(3)):  # flip markings
        x = states[rng.below(len(states))]
        if x in marked:
            marked.discard(x)
        else:
            marked.add(x)

    controllable_defined = [
        key for key in trans if table.controllable[key[1]]
    ]
    for _ in range(rng.below(3)):  # change withheld controllable transitions
        if not controllable_defined:
            break
        key = controllable_defined[rng.below(len(controllable_defined))]
        if key in withheld:
            withheld.discard(key)
        else:
            withheld.add(key)

    return _rebuild(states, table, trans, withheld, marked, initial_name)


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """Structural equality up to state renaming, by joint traversal of the
    two deterministic automata from their initial states."""
    if a.alphabet != b.alphabet or a.n_states != b.n_states:
        return False
    pair_of = {a.initial: b.initial}
    queue = deque([a.initial])
    while queue:
        x = queue.popleft()
        y = pair_of[x]
        if tuple(a.succ_maps[x]) != tuple(b.succ_maps[y]):
            return False
        if (x in a.marked) != (y in b.marked):
            return False
        for ev, nx in a.succ_maps[x].items():
            ny = b.succ_maps[y].get(ev)
            if nx in pair_of:
                if pair_of[nx] != ny:
                    return False
            else:
                pair_of[nx] = ny
                queue.append(nx)
    return len(pair_of) == a.n_states and len(set(pair_of.values())) == a.n_states


def reference_product(automata):
    """Step-based synchronous product: the components' tuples in breadth-first
    discovery order and a ``{event: target index}`` row per tuple. Events
    are tried in component 0's ascending order; every other component is
    stepped on each."""
    first, rest = automata[0], automata[1:]
    init = tuple(a.initial for a in automata)
    index = {init: 0}
    order = [init]
    rows = []
    queue = deque((init,))
    while queue:
        t = queue.popleft()
        row = {}
        for ev, d0 in first.succ_maps[t[0]].items():
            dst = [d0]
            for a, comp in zip(rest, t[1:]):
                nxt = a.succ_maps[comp].get(ev)
                if nxt is None:
                    break
                dst.append(nxt)
            else:
                tt = tuple(dst)
                tgt = index.get(tt)
                if tgt is None:
                    tgt = len(order)
                    index[tt] = tgt
                    order.append(tt)
                    queue.append(tt)
                row[ev] = tgt
        rows.append(row)
    return order, rows


def language_upto(a: Automaton, max_len: int) -> set[tuple[str, ...]]:
    """All event-name traces of length at most ``max_len`` accepted by ``a``."""
    words: set[tuple[str, ...]] = set()
    events = a.alphabet.events

    def walk(x: int, prefix: tuple[str, ...]) -> None:
        words.add(prefix)
        if len(prefix) == max_len:
            return
        for ev, y in a.succ_maps[x].items():
            walk(y, prefix + (events[ev],))

    walk(a.initial, ())
    return words


def marked_language_upto(a: Automaton, max_len: int) -> set[tuple[str, ...]]:
    """Traces of length at most ``max_len`` that end in a marked state."""
    words: set[tuple[str, ...]] = set()
    events = a.alphabet.events

    def walk(x: int, prefix: tuple[str, ...]) -> None:
        if x in a.marked:
            words.add(prefix)
        if len(prefix) == max_len:
            return
        for ev, y in a.succ_maps[x].items():
            walk(y, prefix + (events[ev],))

    walk(a.initial, ())
    return words


def controlled_behavior(plant: Automaton, locs) -> Automaton:
    """Reachable closed loop of the plant under all local supervisors.

    The product marking is the conjunction of component markings, so the
    same structure carries both the language and the marked language of the
    controlled system.
    """
    return sync_product([plant] + list(locs))


def alternating(table: EventTable, ev: int) -> Automaton:
    """Two marked states that enable every event and swap on ``ev``: a local
    supervisor that restricts nothing, yet is no function of the supervisor
    state wherever two paths to one state differ in the parity of ``ev``."""
    triples = [(x, e, x ^ (e == ev)) for x in (0, 1) for e in range(table.n_events)]
    return Automaton(["even", "odd"], table, triples, 0, [0, 1])


def remarked(a: Automaton) -> Automaton:
    """``a`` with every state's marking flipped."""
    flipped = set(range(a.n_states)) - a.marked
    return Automaton(a.states, a.alphabet, a.iter_transitions(), a.initial, flipped)


def supervisor_maps_onto(sup: Automaton, comps) -> bool:
    """Whether each automaton of ``comps`` is a homomorphic image of the
    supervisor's reachable part: a map phi with phi(initial) = initial and
    the component stepping from phi(s) to phi(y) on every supervisor
    transition s -ev-> y. Read off the product of ``sup`` and ``comps``: it
    holds iff no two reachable tuples share a supervisor state and each
    tuple enables every event its supervisor state does."""
    order, rows = reference_product([sup, *comps])
    return len({t[0] for t in order}) == len(order) and all(
        len(row) == len(sup.succ_maps[t[0]]) for t, row in zip(order, rows)
    )


def reference_check_control_equivalence(plant: Automaton, sup: Automaton, locs) -> EquivalenceVerdict:
    """Control equivalence by a joint breadth-first traversal of the two
    closed-loop automata, comparing enabled-event sets and marking at every
    jointly reached state pair: the same contract as
    ``suploc.equivalence.check_control_equivalence``, kept as its oracle."""
    loop_locs = controlled_behavior(plant, locs)
    loop_mono = sync_product([sup, plant])
    events = plant.alphabet.events

    start = (loop_locs.initial, loop_mono.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = deque((start,))

    def trace_to(pair: tuple[int, int]) -> tuple[str, ...]:
        rev = []
        cursor = pair
        while parent[cursor] is not None:
            cursor, ev = parent[cursor]
            rev.append(events[ev])
        return tuple(reversed(rev))

    while queue:
        pair = queue.popleft()
        a, b = pair
        ea = tuple(loop_locs.succ_maps[a])
        eb = tuple(loop_mono.succ_maps[b])
        if ea != eb:
            extra_local = sorted(set(ea) - set(eb))
            extra_mono = sorted(set(eb) - set(ea))
            if extra_local:
                ev = extra_local[0]
                direction = "local supervisors admit behavior the monolithic supervisor forbids"
            else:
                ev = extra_mono[0]
                direction = "local supervisors forbid behavior the monolithic supervisor admits"
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=trace_to(pair) + (events[ev],),
                failed="language",
                direction=direction,
            )
        ma = a in loop_locs.marked
        mb = b in loop_mono.marked
        if ma != mb:
            direction = (
                "local supervisors mark behavior the monolithic supervisor does not"
                if ma
                else "local supervisors do not mark behavior the monolithic supervisor does"
            )
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=trace_to(pair),
                failed="marked-language",
                direction=direction,
            )
        for ev in ea:
            nxt = (loop_locs.succ_maps[a].get(ev), loop_mono.succ_maps[b].get(ev))
            if nxt not in parent:
                parent[nxt] = (pair, ev)
                queue.append(nxt)
    return EquivalenceVerdict(equivalent=True)


def is_maximally_reduced(sup: Automaton, ctx, agent: int, cover) -> bool:
    """Whether no two cells of a control congruence can be merged.

    Tries every pair of distinct cells and checks whether replacing them by
    their union still yields a control congruence (both conditions; merging
    two cells can only help the successor condition of other cells, so only
    the union cell needs revalidation against the merged partition).
    """
    cells = cover.cells()
    for a_pos in range(len(cells)):
        for b_pos in range(a_pos + 1, len(cells)):
            merged = list(cover.cell_of)
            ident = merged[cells[a_pos][0]]
            for x in cells[b_pos]:
                merged[x] = ident
            union = sorted(cells[a_pos] + cells[b_pos])
            if not any(
                _pair_clash(sup, ctx, agent, merged, x, y)
                for x, y in combinations(union, 2)
            ):
                return False
    return True


def reference_is_control_congruence(sup: Automaton, ctx, agent: int, cover) -> CoverVerdict:
    """The pair scan: every pair of cellmates, cell by cell, the first
    failing pair being the witness. The same contract as
    ``suploc.localization.is_control_congruence``, kept as its oracle."""
    if len(cover.cell_of) != sup.n_states:
        return CoverVerdict(False, "cover size does not match the supervisor")
    for cell in cover.cells():
        for x, y in combinations(cell, 2):
            witness = _pair_clash(sup, ctx, agent, cover.cell_of, x, y)
            if witness is not None:
                return CoverVerdict(False, witness)
    return CoverVerdict(True)


def replay_counterexample(plant: Automaton, sup: Automaton, locs, verdict: EquivalenceVerdict) -> bool:
    """Confirm that a negative verdict's trace exhibits a real discrepancy.

    Simulates the trace on both closed loops component by component. For a
    language discrepancy the final event must be executable on exactly one
    side; for a marking discrepancy the whole trace must run on both sides
    and end with differing conjunctive markings.
    """
    if verdict.equivalent or verdict.counterexample is None:
        return False
    side_locs = [plant] + list(locs)
    side_mono = [sup, plant]

    def run(components, trace):
        cursor = [a.initial for a in components]
        for name in trace:
            ev = plant.alphabet.events.index(name)
            nxt = [a.succ_maps[c].get(ev) for a, c in zip(components, cursor)]
            if any(n is None for n in nxt):
                return None
            cursor = nxt
        return cursor

    if verdict.failed == "language":
        prefix = verdict.counterexample[:-1]
        if run(side_locs, prefix) is None or run(side_mono, prefix) is None:
            return False
        full_locs = run(side_locs, verdict.counterexample)
        full_mono = run(side_mono, verdict.counterexample)
        return (full_locs is None) != (full_mono is None)
    cur_locs = run(side_locs, verdict.counterexample)
    cur_mono = run(side_mono, verdict.counterexample)
    if cur_locs is None or cur_mono is None:
        return False
    marked_locs = all(c in a.marked for a, c in zip(side_locs, cur_locs))
    marked_mono = all(c in a.marked for a, c in zip(side_mono, cur_mono))
    return marked_locs != marked_mono


def control_consistent(ctx, agent, x, y):
    """Whether two supervisor states may share a cell for ``agent``, by
    their one-state summaries: neither enables an event the supervisor
    withholds from the agent in the other, and the markings agree whenever
    the plant-marking indicators agree. Symmetric in x and y."""
    return not _clash(_summary(ctx, agent, (x,)), _summary(ctx, agent, (y,)))


def reference_control_consistent(ctx, agent, x, y):
    """Whether two supervisor states may share a cell for ``agent``, by the
    pairwise rule: the same contract as :func:`control_consistent`, kept as
    its oracle."""
    dis = ctx.disabled[agent]
    if ctx.enabled[x] & dis[y] or ctx.enabled[y] & dis[x]:
        return False
    if ctx.plant_marked[x] == ctx.plant_marked[y] and ctx.marked[x] != ctx.marked[y]:
        return False
    return True


def snapshot(cells):
    """Everything a ``_Cells`` holds: slots, member lists, least members,
    summaries, rows and flawed slots."""
    return (
        list(cells._cell),
        [list(m) for m in cells._members],
        list(cells._min),
        list(cells._sum),
        [dict(row) for row in cells._row],
        list(cells.flawed),
    )


def reference_merge_closure(x_i, x_j, floor, sup, ctx, agent, cover):
    """Merge by naive congruence closure: the same contract as
    ``suploc.localization._check_merge`` on the cells of ``cover``, which
    must be a control congruence, kept as its oracle. Returns the merged
    cover, or None when the merge is refused.

    A union-find over states starts from ``cover``'s cells and unites x_i
    and x_j. Then, round after round, two states of one class that step
    into two classes on one event have those classes united, until a round
    unites nothing. The merge is refused when a class that holds two or more
    cells holds a state below ``floor`` (the least member of one of its
    cells), or two states of different cells that are not control
    consistent."""
    parent = list(range(sup.n_states))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def unite(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
        return rx != ry

    for cell in cover.cells():
        for x in cell[1:]:
            unite(cell[0], x)
    unite(x_i, x_j)
    n_events = sup.alphabet.n_events
    changed = True
    while changed:
        # A round reads the classes as they were when it began; only a
        # round that unites nothing, and so reads them as they are, ends.
        changed = False
        root = [find(x) for x in range(sup.n_states)]
        first = {}
        for x, row in enumerate(sup.succ_maps):
            home = root[x] * n_events
            for ev, y in row.items():
                z = first.setdefault(home + ev, y)
                if root[z] != root[y] and unite(z, y):
                    changed = True

    classes = {}
    for x in range(sup.n_states):
        classes.setdefault(find(x), {}).setdefault(cover.cell_of[x], []).append(x)
    for parts in classes.values():
        if len(parts) < 2:
            continue
        if min(min(part) for part in parts.values()) < floor:
            return None
        for left, right in combinations(parts.values(), 2):
            for x in left:
                for y in right:
                    if not reference_control_consistent(ctx, agent, x, y):
                        return None
    return Cover([find(x) for x in range(sup.n_states)])


def is_closure_maximal(sup: Automaton, ctx, agent: int, cover) -> bool:
    """Whether a control congruence admits no merge at all: for every pair
    of cell leaders (least members), :func:`reference_merge_closure` with
    floor 0 refuses to merge their cells. :func:`is_maximally_reduced` only
    tries the union of two cells; this also tries every merge whose closure
    unites further cells, and it uses the reference, not the merge engine."""
    leaders = [cell[0] for cell in cover.cells()]
    return all(
        reference_merge_closure(a, b, 0, sup, ctx, agent, cover) is None
        for a, b in combinations(leaders, 2)
    )


def reference_isolate(base_cover, base, variant, ctx, agent, *, carried=None):
    """Conflict isolation by pairwise tests: the same contract as
    ``suploc.transform.isolate``, kept as its oracle. Each scan visits the
    states shared with the base system in ascending variant index and tests
    each against every cellmate with the congruence rule."""
    if carried is None:
        carried = carry_over_cover(base_cover, base, variant)
    cell_of = list(carried.cell_of)
    members = carried.cells()

    base_names = set(base.states)
    retained = [x for x in range(variant.n_states) if variant.states[x] in base_names]

    changed = True
    while changed:
        changed = False
        for x in retained:
            cell = members[cell_of[x]]
            if len(cell) == 1:
                continue
            if any(
                _pair_clash(variant, ctx, agent, cell_of, x, y)
                for y in cell
                if y != x
            ):
                cell.remove(x)
                cell_of[x] = len(members)
                members.append([x])
                changed = True
    return Cover(cell_of)


def split_names(a: Automaton, keep: int) -> Automaton:
    """``a`` with every state renamed to its first ``keep`` ``|``-joined name parts."""
    names = ["|".join(name.split("|")[:keep]) for name in a.states]
    return Automaton(names, a.alphabet, a.iter_transitions(), a.initial, a.marked)


def reference_synthesize(plants, requirements=()) -> Automaton:
    """The set-based two-pass synthesis ``synthesize_monolithic`` ran before
    its bookkeeping became one pass, kept as its oracle: the supremal
    controllable and nonblocking supervisor for plants under requirement
    automata.

    All automata share one event table. Requirements may express state-based
    prohibitions through a dead sink state named ``bad`` (``FORBIDDEN_STATE``):
    any product state whose requirement component sits in such a state is
    removed. Language-based requirements must be complete with respect to
    uncontrollable events; a requirement that withholds an uncontrollable
    event the plants can execute renders the source state uncontrollable and
    it is removed.

    Returns a deterministic automaton whose states are the surviving product
    tuples, named by joining component state names with ``|``. Raises
    :class:`SynthesisEmptyError` when nothing survives.
    """
    plants = list(plants)
    requirements = list(requirements)
    if not plants:
        raise ValueError("at least one plant automaton is required")
    table = plants[0].alphabet
    comps = plants + requirements
    order, succ = _product(comps)
    succ = list(succ)
    n = len(order)
    n_plants = len(plants)
    unc = _event_mask(e for e in range(table.n_events) if not table.controllable[e])
    plant_masks = [a.event_masks() for a in plants]
    bad = [[name == FORBIDDEN_STATE for name in a.states] for a in requirements]
    all_marked = _tuple_marked(comps, order)

    preds: list[list[int]] = [[] for _ in order]
    unc_preds: list[list[int]] = [[] for _ in order]
    unc_out = [0] * n
    for src, row in enumerate(succ):
        for ev, tgt in row.items():
            preds[tgt].append(src)
            if unc >> ev & 1:
                unc_preds[tgt].append(src)
                unc_out[src] |= 1 << ev

    # Removed are the states a requirement forbids or where the plants can
    # execute an uncontrollable event the product lacks; then, backwards over
    # uncontrollable transitions, every state that can be forced into a
    # removed one, and every state that cannot reach a marked one.
    good = [True] * n
    removed = [
        x
        for x, t in enumerate(order)
        if reduce(and_, map(getitem, plant_masks, t), unc) & ~unc_out[x]
        or any(map(getitem, bad, t[n_plants:]))
    ]
    while True:
        for x in removed:
            good[x] = False
        while removed:
            for x in unc_preds[removed.pop()]:
                if good[x]:
                    good[x] = False
                    removed.append(x)
        co = {x for x in range(n) if good[x] and all_marked[x]}
        frontier = list(co)
        while frontier:
            for x in preds[frontier.pop()]:
                if good[x] and x not in co:
                    co.add(x)
                    frontier.append(x)
        removed = [x for x in range(n) if good[x] and x not in co]
        if not removed:
            break

    if not good[0]:
        raise SynthesisEmptyError("synthesis removed all behavior; no supervisor exists")

    reach = {0}
    frontier = [0]
    while frontier:
        for tgt in succ[frontier.pop()].values():
            if good[tgt] and tgt not in reach:
                reach.add(tgt)
                frontier.append(tgt)
    keep = sorted(reach)
    remap = [0] * n
    for new, old in enumerate(keep):
        remap[old] = new
    # ``reach`` holds every good successor of its states.
    rows = [{ev: remap[tgt] for ev, tgt in succ[src].items() if good[tgt]} for src in keep]
    names = _tuple_names(comps, [order[i] for i in keep])
    marked = [remap[i] for i in keep if all_marked[i]]
    return Automaton.__new__(Automaton)._from_rows(names, table, rows, 0, marked)


def reference_gen_cmt(cfg: CmtConfig) -> CmtSystem:
    """The triple-building tower generator ``gen_cmt`` ran before it filled
    rows for the trusted constructor, kept as its oracle: plants,
    requirements, agent partition and event table.

    One position automaton per animal (states are rooms, events are directed
    door traversals named ``<tag><src-level>_<src-room>__<dst-level>_<dst-room>``,
    each owned by the agent of its source level), plus one occupancy monitor
    per room whose dead ``bad`` state forbids cat and mouse meeting there,
    plus the extra top-floor monitor under v3.
    """
    tags = _animal_tags(cfg)
    doors_of_kind = {
        "cat": _reference_doors(cfg, "cat"),
        "mouse": _reference_doors(cfg, "mouse"),
    }

    ev_names: list[str] = []
    ev_ctrl: list[bool] = []
    ev_agent: list[int] = []
    # (owner position in tags, kind, src, dst) per event
    ev_meta: list[tuple[int, str, tuple[int, int], tuple[int, int]]] = []
    for pos, (tag, kind) in enumerate(tags):
        for src, dst, controllable in doors_of_kind[kind]:
            ev_names.append(f"{tag}{src[0]}_{src[1]}__{dst[0]}_{dst[1]}")
            ev_ctrl.append(controllable)
            ev_agent.append(src[0])
            ev_meta.append((pos, kind, src, dst))
    table = EventTable(tuple(ev_names), tuple(ev_ctrl), tuple(ev_agent))

    rooms = _reference_rooms(cfg)
    room_index = {r: i for i, r in enumerate(rooms)}
    start_of_kind = {
        "cat": (1, CAT_START_ROOM),
        "mouse": (cfg.levels, MOUSE_START_ROOM),
    }

    plants = []
    for pos, (tag, kind) in enumerate(tags):
        triples = []
        for ev, (owner, _, src, dst) in enumerate(ev_meta):
            if owner == pos:
                triples.append((room_index[src], ev, room_index[dst]))
            else:
                for x in range(len(rooms)):
                    triples.append((x, ev, x))
        start = room_index[start_of_kind[kind]]
        plants.append(
            Automaton([room_name(*r) for r in rooms], table, triples, start, [start])
        )

    requirements = [_reference_room_monitor(cfg, room, ev_meta, table) for room in rooms]
    if cfg.variant == "v3":
        requirements.append(_reference_top_floor_monitor(cfg, ev_meta, table))

    return CmtSystem(
        plants=tuple(plants),
        requirements=tuple(requirements),
        agents=agents_from_table(table),
        table=table,
    )


def _reference_room_monitor(cfg, room, ev_meta, table) -> Automaton:
    """Occupancy monitor for one room: counts cats and mice present and falls
    into the dead ``bad`` state when both kinds would be inside at once."""
    k = cfg.animals
    states = [f"c{c}m{m}" for c, m in _reference_occ_states(k)] + ["bad"]
    index = {name: i for i, name in enumerate(states)}

    def occ_name(cats, mice):
        return f"c{cats}m{mice}"

    if room == (1, CAT_START_ROOM):
        start = occ_name(k, 0)
    elif room == (cfg.levels, MOUSE_START_ROOM):
        start = occ_name(0, k)
    else:
        start = occ_name(0, 0)

    triples = []
    for ev, (_, kind, src, dst) in enumerate(ev_meta):
        entering = dst == room
        leaving = src == room
        for cats, mice in _reference_occ_states(k):
            here = index[occ_name(cats, mice)]
            if entering:
                if kind == "cat":
                    if mice > 0:
                        triples.append((here, ev, index["bad"]))
                    elif cats < k:
                        triples.append((here, ev, index[occ_name(cats + 1, 0)]))
                else:
                    if cats > 0:
                        triples.append((here, ev, index["bad"]))
                    elif mice < k:
                        triples.append((here, ev, index[occ_name(0, mice + 1)]))
            elif leaving:
                if kind == "cat" and cats > 0:
                    triples.append((here, ev, index[occ_name(cats - 1, 0)]))
                elif kind == "mouse" and mice > 0:
                    triples.append((here, ev, index[occ_name(0, mice - 1)]))
            else:
                triples.append((here, ev, here))
    marked = [index[occ_name(c, m)] for c, m in _reference_occ_states(k)]
    return Automaton(states, table, triples, index[start], marked)


def _reference_occ_states(k: int):
    """Valid occupancy counts for one room: never both kinds at once."""
    yield (0, 0)
    for c in range(1, k + 1):
        yield (c, 0)
    for m in range(1, k + 1):
        yield (0, m)


def _reference_top_floor_monitor(cfg, ev_meta, table) -> Automaton:
    """Monitor forbidding any cat move that enters the top floor."""
    top = cfg.levels
    states = ["ok", "bad"]
    triples = []
    for ev, (_, kind, src, dst) in enumerate(ev_meta):
        if kind == "cat" and dst[0] == top and src[0] != top:
            triples.append((0, ev, 1))
        else:
            triples.append((0, ev, 0))
    return Automaton(states, table, triples, 0, [0])


def _reference_rooms(cfg: CmtConfig) -> list[tuple[int, int]]:
    rooms = []
    for level in range(1, cfg.levels + 1):
        top = 5
        for room in range(1, top + 1):
            if cfg.variant == "v4" and (level, room) == (1, 5):
                continue
            rooms.append((level, room))
        if cfg.variant == "v5" and level == 1:
            rooms.append((1, 6))
    return rooms


def _reference_doors(
    cfg: CmtConfig, kind: str
) -> list[tuple[tuple[int, int], tuple[int, int], bool]]:
    """Directed doors for one animal kind: (src, dst, controllable)."""
    existing = set(_reference_rooms(cfg))
    doors = []

    def add(src, dst, controllable):
        if src in existing and dst in existing:
            doors.append((src, dst, controllable))

    for level in range(1, cfg.levels + 1):
        if kind == "cat":
            for a, b in CAT_DOORS:
                if cfg.variant == "v1" and level == 2 and (a, b) == (3, 4):
                    continue
                add((level, a), (level, b), True)
            for a, b in CAT_DOORS_UNCONTROLLABLE:
                add((level, a), (level, b), cfg.variant == "v2")
        else:
            for a, b in MOUSE_DOORS:
                add((level, a), (level, b), True)
    for level in range(1, cfg.levels):
        j = (level - 1) % 5 + 1
        add((level, j), (level + 1, j), True)
        add((level + 1, j), (level, j), True)
    if cfg.variant == "v5":
        add((1, 5), (1, 6), True)
        add((1, 6), (1, 5), True)
    return doors
