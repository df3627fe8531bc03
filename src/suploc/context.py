"""Per-state control information for a (plant, supervisor) pair, and a
standard monolithic supervisor synthesis routine.

The context tables answer, for every supervisor state: which events the
supervisor enables, which locally controllable events each agent's supervisor
withholds even though the plant could execute them, whether the state is
marked, and whether any jointly reachable plant state is marked. The
localization algorithms query these tables heavily, so they are computed once
per (plant, supervisor) version and kept immutable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, getitem

from .automata import (
    Automaton,
    EventTable,
    _event_mask,
    _product,
    _tuple_marked,
    _tuple_names,
)

#: Reserved state name marking a forbidden sink in requirement automata.
FORBIDDEN_STATE = "bad"


class SynthesisEmptyError(RuntimeError):
    """Synthesis removed every behavior; no supervisor exists."""


@dataclass(frozen=True)
class AgentSpec:
    """One agent's index and its locally controllable events."""

    agent_index: int
    controllable: frozenset


def agents_from_table(table: EventTable) -> tuple[AgentSpec, ...]:
    """Derive the agent partition recorded in an event table."""
    return tuple(
        AgentSpec(
            agent_index=k,
            controllable=frozenset(
                e for e, owner in enumerate(table.agent_of) if owner == k and table.controllable[e]
            ),
        )
        for k in range(1, table.n_agents + 1)
    )


@dataclass(frozen=True, slots=True, eq=False)
class ControlContext:
    """Immutable control-information tables for a supervisor against a plant.

    Event sets are int bitmasks, bit ``e`` standing for event index ``e``.
    ``enabled[x]`` is the mask of events the supervisor defines at state x.
    ``disabled[k][x]`` is the mask of agent k's controllable events that the
    supervisor leaves undefined at x although the plant can execute them in
    some jointly reached configuration (existential over all reachable
    supervisor/plant state pairs). ``marked[x]`` is supervisor marking and
    ``plant_marked[x]`` records whether some jointly reachable plant partner
    of x is marked. Supervisor states never reached in the joint traversal
    keep their enabled masks, have empty (zero) disabled masks and
    plant_marked False. Two contexts are equal only when they are one object.
    """

    enabled: tuple[int, ...]
    disabled: dict[int, tuple[int, ...]]
    marked: tuple[bool, ...]
    plant_marked: tuple[bool, ...]


def build_context(plant: Automaton, sup: Automaton, agents) -> ControlContext:
    """Compute control-information tables by joint forward reachability.

    ``sup`` must be a sub-behavior of ``plant``: every trace of the
    supervisor is executable in the plant. A supervisor transition that the
    plant cannot take at a jointly reached state pair raises ``ValueError``
    naming the supervisor state, the plant state and the event, and so does
    an agent that lists an event out of range, uncontrollable or another's.
    """
    table = sup.alphabet
    if plant.alphabet != table:
        raise ValueError("plant and supervisor must share one event table")
    for spec in agents:
        k = spec.agent_index
        for ev in sorted(spec.controllable):
            if not 0 <= ev < table.n_events:
                raise ValueError(f"agent {k} lists event index {ev}, which is out of range")
            owner = table.agent_of[ev]
            if not table.controllable[ev] or owner != k:
                why = f"owned by agent {owner}" if owner != k else "uncontrollable"
                raise ValueError(f"agent {k} lists event {table.events[ev]!r}, which is {why}")
    n = sup.n_states
    enabled = sup.event_masks()
    plant_masks = plant.event_masks()

    plant_can = [0] * n
    plant_marked = [False] * n
    # Not ``_product([sup, plant])``: that builds product rows this walk never
    # reads (on the 3x2 tower it alone takes twice the time and 1.5x the peak
    # memory of this walk), and this walk must stop at the first supervisor
    # move the plant lacks.
    seen = {(sup.initial, plant.initial)}
    queue = deque(seen)
    sup_succ = sup.succ_maps
    plant_succ = plant.succ_maps
    while queue:
        x, q = queue.popleft()
        row_q = plant_succ[q]
        plant_can[x] |= plant_masks[q]
        if q in plant.marked:
            plant_marked[x] = True
        for ev, y in sup_succ[x].items():
            p = row_q.get(ev)
            if p is None:
                raise ValueError(
                    f"supervisor is not a sub-behavior of the plant: supervisor state "
                    f"{sup.states[x]!r} takes {table.events[ev]!r}, which plant "
                    f"state {plant.states[q]!r} lacks"
                )
            pair = (y, p)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)

    disabled = {}
    for spec in agents:
        ctrl = _event_mask(spec.controllable)
        disabled[spec.agent_index] = tuple(
            plant_can[x] & ~enabled[x] & ctrl for x in range(n)
        )
    return ControlContext(
        enabled=enabled,
        disabled=disabled,
        marked=tuple(x in sup.marked for x in range(n)),
        plant_marked=tuple(plant_marked),
    )


def synthesize_monolithic(plants, requirements=(), name_components=None) -> Automaton:
    """Supremal controllable and nonblocking supervisor for plants under
    requirement automata.

    All automata share one event table. Requirements may express state-based
    prohibitions through a dead sink state named ``bad`` (``FORBIDDEN_STATE``):
    any product state whose requirement component sits in such a state is
    removed. Language-based requirements must be complete with respect to
    uncontrollable events; a requirement that withholds an uncontrollable
    event the plants can execute renders the source state uncontrollable and
    it is removed.

    Returns a deterministic automaton whose states are the surviving product
    tuples, each named by joining with ``|`` the state names of its first
    ``name_components`` components, plants then requirements (all when None
    or 0); a repeated name or a negative count raises ``ValueError``. Raises
    :class:`SynthesisEmptyError` when nothing survives.
    """
    if name_components is not None and name_components < 0:
        raise ValueError("name_components must be at least 0")
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

    # Removed are the states a requirement forbids or where the plants can
    # execute an uncontrollable event the product lacks, found in the pass
    # that fills the predecessor lists; then, backwards over uncontrollable
    # transitions, every state that can be forced into a removed one, and
    # every state that cannot reach a marked one.
    preds: list[list[int]] = [[] for _ in order]
    unc_preds: list[list[int]] = [[] for _ in order]
    removed = []
    for src, (t, row) in enumerate(zip(order, succ)):
        unc_out = 0
        for ev, tgt in row.items():
            preds[tgt].append(src)
            if unc >> ev & 1:
                unc_preds[tgt].append(src)
                unc_out |= 1 << ev
        if reduce(and_, map(getitem, plant_masks, t), unc) & ~unc_out or any(
            map(getitem, bad, t[n_plants:])
        ):
            removed.append(src)

    good = [True] * n
    while True:
        for x in removed:
            good[x] = False
        while removed:
            for x in unc_preds[removed.pop()]:
                if good[x]:
                    good[x] = False
                    removed.append(x)
        co = list(map(and_, good, all_marked))
        frontier = list(compress(range(n), co))
        while frontier:
            for x in preds[frontier.pop()]:
                if good[x] and not co[x]:
                    co[x] = True
                    frontier.append(x)
        removed = [x for x in range(n) if good[x] and not co[x]]
        if not removed:
            break

    if not good[0]:
        raise SynthesisEmptyError("synthesis removed all behavior; no supervisor exists")

    reach = [True] + [False] * (n - 1)
    frontier = [0]
    while frontier:
        for tgt in succ[frontier.pop()].values():
            if good[tgt] and not reach[tgt]:
                reach[tgt] = True
                frontier.append(tgt)
    keep = list(compress(range(n), reach))
    remap = [0] * n
    for new, old in enumerate(keep):
        remap[old] = new
    # ``reach`` holds every good successor of its states.
    rows = [{ev: remap[tgt] for ev, tgt in succ[src].items() if good[tgt]} for src in keep]
    names = _tuple_names(comps[: name_components or None], [order[i] for i in keep])
    marked = [remap[i] for i in keep if all_marked[i]]
    return Automaton.__new__(Automaton)._from_rows(names, table, rows, 0, marked)
