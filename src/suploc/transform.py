"""Carrying congruences across model edits: conflict isolation and the full
transformational localization pipeline.

State identity across model versions is by state name; indices are
per-automaton and may be permuted freely. A base congruence is first carried
over (removed states drop out of their cells, new states become singleton
cells), then states that conflict with a cellmate under the variant system
are isolated into fresh singleton cells until the partition is a control
congruence again, and finally the localization loop merges whatever the edit
still allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .automata import Automaton
from .context import ControlContext, build_context
from .localization import (
    Cover,
    LocalSupervisor,
    _clash,
    _summary,
    build_local_supervisor,
    localize,
)


def carry_over_cover(base_cover: Cover, base: Automaton, variant: Automaton) -> Cover:
    """Transplant a base-system cover onto the variant state set.

    States that disappeared are dropped from their cells (cells emptied this
    way vanish); states new to the variant become singleton cells.
    """
    if len(base_cover.cell_of) != base.n_states:
        raise ValueError("base cover size does not match the base supervisor")
    base_cell = dict(zip(base.states, base_cover.cell_of))
    fresh = count(base_cover.n_cells)
    return Cover(base_cell[name] if name in base_cell else next(fresh) for name in variant.states)


def isolate(
    base_cover: Cover,
    base: Automaton,
    variant: Automaton,
    ctx: ControlContext,
    agent: int,
    *,
    carried: Cover | None = None,
) -> Cover:
    """Restore congruence validity after a model edit by isolating conflicts.

    Starting from the carried-over cover, repeatedly scan the states in
    ascending variant index; a state that is not control consistent with
    some cellmate, or whose successor on an event both enable lands in a
    different cell than the cellmate's, is moved to a fresh singleton cell.
    A full clean scan terminates the loop. The result partitions the variant
    state set, is a control congruence for the variant system, and never
    merges cells: every output cell is contained in a carried-over cell.
    Pass ``carried`` to reuse a precomputed carry-over.

    A state is tested against its cell's cached summary: the control summary
    of all members and, per event, the cell they step into on it, or -1 if
    two. It clashes with a cellmate iff the two summaries clash or it enables
    an event marked -1. A cell's cache is dropped when a member leaves it or
    a member's successor moves.
    """
    if carried is None:
        carried = carry_over_cover(base_cover, base, variant)
    succ = variant.succ_maps
    cell_of = list(carried.cell_of)
    members = carried.cells()
    preds: list[list[int]] = [[] for _ in succ]
    for x, row in enumerate(succ):
        for y in row.values():
            preds[y].append(x)
    cache: dict[int, tuple] = {}  # cell id -> summary, steps

    changed = True
    while changed:
        changed = False
        for x, row in enumerate(succ):
            home = cell_of[x]
            cell = members[home]
            if len(cell) == 1:
                continue
            known = cache.get(home)
            if known is None:
                steps: dict[int, int] = {}
                for y in cell:
                    for ev, t in succ[y].items():
                        t = cell_of[t]
                        if steps.setdefault(ev, t) != t:
                            steps[ev] = -1
                known = cache[home] = (_summary(ctx, agent, cell), steps)
            summary, steps = known
            if _clash(_summary(ctx, agent, (x,)), summary) or any(steps[ev] == -1 for ev in row):
                cell.remove(x)
                cell_of[x] = len(members)
                members.append([x])
                cache.pop(home, None)
                for p in preds[x]:
                    cache.pop(cell_of[p], None)
                changed = True
    return Cover(cell_of)


@dataclass(frozen=True)
class AgentMapping:
    """Maps each variant agent to a base agent, or to 0 for none."""

    base_agent_of: tuple[int, ...]

    @classmethod
    def identity(cls, n_variant: int, n_base: int | None = None) -> "AgentMapping":
        """Agent k maps to base agent k where that exists, otherwise to 0."""
        if n_base is None:
            n_base = n_variant
        return cls(tuple(k if k <= n_base else 0 for k in range(1, n_variant + 1)))

    def base_agent(self, variant_agent: int) -> int:
        if not 1 <= variant_agent <= len(self.base_agent_of):
            raise ValueError(f"variant agent {variant_agent} out of range")
        return self.base_agent_of[variant_agent - 1]

    def validate(self, n_base: int) -> None:
        for k, b in enumerate(self.base_agent_of, start=1):
            if not 0 <= b <= n_base:
                raise ValueError(f"mapping of agent {k} references unknown base agent {b}")


def tsl(
    base_covers,
    base_sup: Automaton,
    variant_plant: Automaton,
    variant_sup: Automaton,
    agents,
    mapping: AgentMapping,
    *,
    ctx: ControlContext | None = None,
) -> tuple[list[LocalSupervisor], list[Cover]]:
    """Transformational localization of the variant system.

    For each variant agent, the initial partition is either the isolated
    carry-over of the mapped base congruence or, when the mapping is 0, the
    singleton partition; the localization loop then merges cells, and the
    quotient automaton becomes the agent's local supervisor. Returns the
    local supervisors and the final covers (the covers seed the next round
    when the system is edited again). Pass ``ctx`` to reuse a precomputed
    variant control context.
    """
    base_covers = list(base_covers)
    agents = list(agents)
    mapping.validate(len(base_covers))
    if len(mapping.base_agent_of) != len(agents):
        raise ValueError("mapping length does not match the variant agent list")
    if ctx is None:
        ctx = build_context(variant_plant, variant_sup, agents)
    supervisors: list[LocalSupervisor] = []
    covers: list[Cover] = []
    for spec in agents:
        k = spec.agent_index
        mapped = mapping.base_agent(k)
        if mapped != 0:
            init = isolate(base_covers[mapped - 1], base_sup, variant_sup, ctx, k)
        else:
            init = Cover.singleton(variant_sup.n_states)
        cover = localize(variant_sup, ctx, k, init)
        supervisors.append(build_local_supervisor(variant_sup, cover, k))
        covers.append(cover)
    return supervisors, covers
