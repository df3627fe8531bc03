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

from collections import defaultdict
from itertools import compress, count
from operator import and_

from .automata import Automaton
from .context import ControlContext
from .localization import (
    Cover,
    _Cells,
    _check_agent,
    _clash,
    _merge_cells,
    _summary,
    build_local_supervisor,
)


class _Counts:
    """The counters of one cell of two or more states: how many members
    step into each cell on each event, and the mask ``split`` of the events
    on which they step into two or more cells."""

    __slots__ = ("steps", "split")

    def __init__(self, cell, succ, cell_of):
        steps: dict[int, dict[int, int]] = defaultdict(dict)
        for x in cell:
            for ev, t in succ[x].items():
                t = cell_of[t]
                targets = steps[ev]
                targets[t] = targets.get(t, 0) + 1
        self.steps = steps
        self.split = sum(1 << ev for ev, targets in steps.items() if len(targets) > 1)

    def remove(self, row, cell_of) -> None:
        """Take out the member whose successor row is ``row``."""
        steps = self.steps
        for ev, t in row.items():
            targets = steps[ev]
            t = cell_of[t]
            if targets[t] > 1:
                targets[t] -= 1
                continue
            del targets[t]
            if len(targets) == 1:
                self.split &= ~(1 << ev)

    def move(self, ev: int, old: int, new: int) -> None:
        """One member's successor on ``ev`` moved from cell old to cell new."""
        targets = self.steps[ev]
        if targets[old] > 1:
            targets[old] -= 1
        else:
            del targets[old]
        targets[new] = targets.get(new, 0) + 1
        if len(targets) > 1:
            self.split |= 1 << ev
        else:
            self.split &= ~(1 << ev)


def carry_over_cover(base_cover: Cover, base: Automaton, variant: Automaton) -> Cover:
    """Transplant a base-system cover onto the variant state set.

    States that disappeared are dropped from their cells (cells emptied this
    way vanish); states new to the variant become singleton cells.
    """
    if len(base_cover.cell_of) != base.n_states:
        raise ValueError("base cover size does not match the base supervisor")
    index = base._index()
    cell = base_cover.cell_of
    fresh = count(base_cover.n_cells)
    return Cover(cell[index[name]] if name in index else next(fresh) for name in variant.states)


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
    Pass ``carried`` to reuse a precomputed carry-over; a cover of the wrong
    size, an agent ``ctx`` lacks, a ``ctx`` built for a supervisor with
    another number of states than ``variant``, or a ``ctx`` that withholds
    from ``agent`` an event some state enables in that same state (which
    :func:`~suploc.context.build_context` never builds) raises
    ``ValueError``.

    The carried cover is walked into the store that ``localize`` merges and,
    if no cell is flagged, returned as it is. Otherwise cells of two or more
    states get :class:`_Counts`; a state is evicted when it enables an event
    its cellmates step on into two cells, or its summary clashes with its
    flagged cell's, and its predecessors' counts move to its new cell.
    """
    if carried is None:
        carried = carry_over_cover(base_cover, base, variant)
    elif len(carried.cell_of) != variant.n_states:
        raise ValueError("carried cover size does not match the variant supervisor")
    return _isolate(carried, variant, ctx, agent)[0]


def _isolate(carried: Cover, variant, ctx, agent) -> tuple[Cover, _Cells | None]:
    """:func:`isolate` of ``carried``, with the store over it if none evicted."""
    _check_agent(ctx, agent, variant)
    x = next(compress(count(), map(and_, ctx.enabled, ctx.disabled[agent])), None)
    if x is not None:
        raise ValueError(
            f"state {variant.states[x]!r} enables an event the context withholds from agent {agent}"
        )
    cells = _Cells(variant, ctx, agent, carried)
    if not cells.flawed:
        return carried, cells
    # The store is dropped after an eviction, so the sweep works on its lists.
    cell_of, members, sums = cells._cell, cells._members, cells._sum
    clashing = {c for c in cells.flawed if _clash(sums[c], sums[c])}
    succ = variant.succ_maps
    counts = [_Counts(cell, succ, cell_of) if len(cell) > 1 else None for cell in members]
    preds = variant.predecessors()
    enabled = ctx.enabled

    changed = True
    while changed:
        changed = False
        for x, row in enumerate(succ):
            old = cell_of[x]
            home = counts[old]
            if home is None:
                continue
            mine = old in clashing and _summary(ctx, agent, (x,))
            if not (enabled[x] & home.split or mine and _clash(mine, sums[old])):
                continue
            home.remove(row, cell_of)
            if mine:
                members[old].remove(x)
                s = sums[old] = _summary(ctx, agent, members[old])
                if not _clash(s, s):
                    clashing.discard(old)
            new = len(counts)
            counts.append(None)
            # A self-loop of x left the counters with x.
            for p, ev in preds[x]:
                kept = counts[cell_of[p]]
                if kept is not None and p != x:
                    kept.move(ev, old, new)
            cell_of[x] = new
            changed = True
    return Cover(cell_of), None


def tsl(
    base_covers,
    base_sup: Automaton,
    variant_sup: Automaton,
    ctx: ControlContext,
    mapping,
) -> tuple[list[Automaton], list[Cover]]:
    """Transformational localization of the variant system.

    The variant agents are those ``ctx`` has tables for, ascending;
    ``mapping[k-1]`` is variant agent k's base agent, or 0 for none. Each
    variant agent's carry-over of the mapped base congruence, or the
    singleton partition when the mapping is 0, is isolated; the localization
    loop then merges cells, and the quotient automaton becomes the agent's
    local supervisor. The loop merges the store :func:`isolate` walked over
    that partition, or after an eviction a new store over the isolated
    cover, as ``run_bench`` does; a ``ctx`` that :func:`isolate` refuses
    raises its ``ValueError``. Returns the local supervisors and the final
    covers (the covers seed the next round when the system is edited again).
    """
    base_covers = list(base_covers)
    agents = sorted(ctx.disabled)
    for k, b in enumerate(mapping, start=1):
        if not 0 <= b <= len(base_covers):
            raise ValueError(f"mapping of agent {k} references unknown base agent {b}")
    if len(mapping) != len(agents):
        raise ValueError("mapping length does not match the variant agent list")
    supervisors: list[Automaton] = []
    covers: list[Cover] = []
    for k, mapped in zip(agents, mapping):
        if mapped:
            carried = carry_over_cover(base_covers[mapped - 1], base_sup, variant_sup)
        else:
            carried = Cover.singleton(variant_sup.n_states)
        init, cells = _isolate(carried, variant_sup, ctx, k)
        cover = _merge_cells(variant_sup, ctx, k, cells or _Cells(variant_sup, ctx, k, init))
        supervisors.append(build_local_supervisor(variant_sup, cover, k))
        covers.append(cover)
    return supervisors, covers
