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

from itertools import compress, count
from operator import and_

from .automata import Automaton
from .context import ControlContext
from .localization import (
    Cover,
    _check_agent,
    _clash,
    _summary,
    build_local_supervisor,
    localize,
)


class _Counts:
    """The counters of one cell of two or more states: how many members
    step into each cell on each event, and the mask ``split`` of the events
    on which they step into two or more cells.

    A cell whose control summary clashes with itself also keeps that
    ``summary`` and its member list; other cells keep None. The cell is
    flawed, and may hold a pair of states that may not share it, iff
    ``split`` is nonzero or it keeps a summary. Each removal re-summarizes
    the members left, and once their summary stops clashing both are
    dropped. Members only leave, and :func:`_clash` is monotone, so the
    summary of any other cell can never clash and is not kept."""

    __slots__ = ("steps", "split", "summary", "members")

    def __init__(self, cell, succ, cell_of, ctx: ControlContext, agent: int):
        steps: dict[int, dict[int, int]] = {}
        for x in cell:
            for ev, t in succ[x].items():
                t = cell_of[t]
                targets = steps.get(ev)
                if targets is None:
                    steps[ev] = {t: 1}
                else:
                    targets[t] = targets.get(t, 0) + 1
        self.steps = steps
        self.split = sum(1 << ev for ev, targets in steps.items() if len(targets) > 1)
        summary = _summary(ctx, agent, cell)
        if _clash(summary, summary):
            self.summary, self.members = summary, cell
        else:
            self.summary = self.members = None

    def remove(self, x, row, cell_of, ctx, agent) -> None:
        """Take out member ``x``, whose successor row is ``row``."""
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
            elif not targets:
                del steps[ev]
        if self.members is not None:
            self.members.remove(x)
            summary = _summary(ctx, agent, self.members)
            if _clash(summary, summary):
                self.summary = summary
            else:
                self.summary = self.members = None

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

    Each carried cell of two or more states gets :class:`_Counts` before
    the sweep, and when none is flawed the carried cover is returned as it
    is. A state clashes with a cellmate iff its summary clashes with its
    cell's or it enables an event on which the members step into two cells.
    An eviction takes the state out of its cell's counters and moves each
    predecessor's count on that event to the state's new cell. New
    singletons get no counters, since isolation never merges, and a
    counted cell left with one member is clean.
    """
    _check_agent(ctx, agent, variant)
    x = next(compress(count(), map(and_, ctx.enabled, ctx.disabled[agent])), None)
    if x is not None:
        raise ValueError(
            f"state {variant.states[x]!r} enables an event the context withholds from agent {agent}"
        )
    if carried is None:
        carried = carry_over_cover(base_cover, base, variant)
    elif len(carried.cell_of) != variant.n_states:
        raise ValueError("carried cover size does not match the variant supervisor")
    succ = variant.succ_maps
    cell_of = list(carried.cell_of)
    counts = [
        _Counts(cell, succ, cell_of, ctx, agent) if len(cell) > 1 else None
        for cell in carried.cells()
    ]
    if not any(c.split or c.summary for c in counts if c):
        return carried
    preds = variant.predecessors()
    enabled = ctx.enabled

    changed = True
    while changed:
        changed = False
        for x, row in enumerate(succ):
            home = counts[cell_of[x]]
            if home is None:
                continue
            mine = home.summary and _summary(ctx, agent, (x,))
            if not (enabled[x] & home.split or mine and _clash(mine, home.summary)):
                continue
            home.remove(x, row, cell_of, ctx, agent)
            old = cell_of[x]
            new = len(counts)
            counts.append(None)
            # A self-loop of x left the counters with x.
            for p, ev in preds[x]:
                kept = counts[cell_of[p]]
                if kept is not None and p != x:
                    kept.move(ev, old, new)
            cell_of[x] = new
            changed = True
    return Cover(cell_of)


def tsl(
    base_covers,
    base_sup: Automaton,
    variant_sup: Automaton,
    ctx: ControlContext,
    mapping,
) -> tuple[list[Automaton], list[Cover]]:
    """Transformational localization of the variant system.

    The variant agents are those ``ctx`` has tables for, ascending;
    ``mapping[k-1]`` is variant agent k's base agent, or 0 for none. For each
    variant agent, the initial partition is either the isolated carry-over
    of the mapped base congruence or, when the mapping is 0, the singleton
    partition; the localization loop then merges cells, and the quotient
    automaton becomes the agent's local supervisor. Returns the local
    supervisors and the final covers (the covers seed the next round when
    the system is edited again).
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
        init = None
        if mapped:
            init = isolate(base_covers[mapped - 1], base_sup, variant_sup, ctx, k)
        cover = localize(variant_sup, ctx, k, init)
        supervisors.append(build_local_supervisor(variant_sup, cover, k))
        covers.append(cover)
    return supervisors, covers
