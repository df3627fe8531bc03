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
from operator import and_, getitem

from .automata import (
    Automaton,
    EventTable,
    _event_mask,
    _mask_events,
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
    """One agent's event alphabet and its locally controllable subset."""

    agent_index: int
    events: frozenset
    controllable: frozenset

    def __post_init__(self):
        if not self.controllable <= self.events:
            raise ValueError("controllable events must belong to the agent's alphabet")


def agents_from_table(table: EventTable) -> tuple[AgentSpec, ...]:
    """Derive the agent partition recorded in an event table."""
    return tuple(
        AgentSpec(
            agent_index=k,
            events=frozenset(table.agent_events(k)),
            controllable=frozenset(table.agent_controllable(k)),
        )
        for k in range(1, table.n_agents + 1)
    )


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
    plant_marked False.
    """

    __slots__ = ("enabled", "disabled", "marked", "plant_marked")

    def __init__(self, enabled, disabled, marked, plant_marked):
        self.enabled = enabled
        self.disabled = disabled
        self.marked = marked
        self.plant_marked = plant_marked


def build_context(plant: Automaton, sup: Automaton, agents) -> ControlContext:
    """Compute control-information tables by joint forward reachability.

    ``sup`` must be a sub-behavior of ``plant``: every trace of the
    supervisor is executable in the plant. A supervisor transition that the
    plant cannot take at a jointly reached state pair raises ``ValueError``
    naming the supervisor state, the plant state and the event.
    """
    if plant.alphabet != sup.alphabet:
        raise ValueError("plant and supervisor must share one event table")
    n = sup.n_states
    enabled = tuple(_event_mask(row) for row in sup.succ_maps)
    plant_masks = [_event_mask(row) for row in plant.succ_maps]

    plant_can = [0] * n
    plant_marked = [False] * n
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
                    f"{sup.states[x]!r} takes {sup.alphabet.events[ev]!r}, which plant "
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


def synthesize_monolithic(plants, requirements=()) -> Automaton:
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
    unc = _event_mask(e for e in range(table.n_events) if not table.controllable[e])
    plant_masks = [[_event_mask(row) for row in a.succ_maps] for a in plants]
    plant_unc = [_mask_events(reduce(and_, map(getitem, plant_masks, t), unc)) for t in order]
    bad = [[name == FORBIDDEN_STATE for name in a.states] for a in requirements]
    n_plants = len(plants)
    forbidden = [any(map(getitem, bad, t[n_plants:])) for t in order]
    all_marked = _tuple_marked(comps, order)

    preds: list[list[int]] = [[] for _ in order]
    for src, row in enumerate(succ):
        for tgt in row.values():
            preds[tgt].append(src)

    good = {i for i in range(len(order)) if not forbidden[i]}
    changed = True
    while changed:
        changed = False
        while True:
            viol = [
                x
                for x in good
                if any(succ[x].get(e, -1) not in good for e in plant_unc[x])
            ]
            if not viol:
                break
            good.difference_update(viol)
            changed = True
        co = {x for x in good if all_marked[x]}
        frontier = deque(co)
        while frontier:
            y = frontier.popleft()
            for x in preds[y]:
                if x in good and x not in co:
                    co.add(x)
                    frontier.append(x)
        if co != good:
            good = co
            changed = True

    if 0 not in good:
        raise SynthesisEmptyError("synthesis removed all behavior; no supervisor exists")

    reach = {0}
    frontier = deque((0,))
    while frontier:
        x = frontier.popleft()
        for tgt in succ[x].values():
            if tgt in good and tgt not in reach:
                reach.add(tgt)
                frontier.append(tgt)
    keep = [i for i in range(len(order)) if i in reach]
    remap = {old: new for new, old in enumerate(keep)}
    triples = [
        (remap[src], ev, remap[tgt])
        for src in keep
        for ev, tgt in succ[src].items()
        if tgt in reach
    ]
    names = _tuple_names(comps, [order[i] for i in keep])
    marked = [remap[i] for i in keep if all_marked[i]]
    return Automaton(names, table, triples, remap[0], marked)
