"""Control covers and congruences: merge machinery, the localization loop,
local-supervisor construction, and validators.

A cover here is always a partition of the supervisor state set (the
algorithms only ever merge or split whole states between cells, so general
overlapping covers never arise). Two states may share a cell for agent k when
they are control consistent: neither enables an event the other's supervisor
withholds from agent k, and their markings agree whenever their
plant-marking indicators agree. A partition is a control congruence when
every cell is pairwise control consistent and, per event, all defined
successors of a cell land in a single cell; the quotient automaton of a
congruence is then a deterministic local supervisor for the agent.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .automata import Automaton, FormatError, _content_lines
from .context import ControlContext


class InvalidCoverError(ValueError):
    """A supplied cover violates the congruence conditions."""


class Cover:
    """Partition of supervisor states into cells.

    ``cell_of[x]`` is the cell id of state x. Ids are canonical: whatever
    ints the constructor is given, it renumbers the cells 0..n_cells-1 in
    order of their least members. Two covers of one partition therefore have
    the same ``cell_of``, and cell k of ``cells()`` has id k.
    """

    __slots__ = ("cell_of", "n_cells")

    def __init__(self, cell_of: Iterable[int]):
        # A cell is first seen at its least member, so first-sight order is
        # least-member order.
        canon: dict[int, int] = {}
        self.cell_of = tuple([canon.setdefault(ident, len(canon)) for ident in cell_of])
        self.n_cells = len(canon)

    @classmethod
    def singleton(cls, n_states: int) -> "Cover":
        """Every state in its own cell; trivially a control congruence."""
        return cls(range(n_states))

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]], n_states: int) -> "Cover":
        cell_of = [-1] * n_states
        for ident, cell in enumerate(cells):
            for x in cell:
                if not 0 <= x < n_states:
                    raise ValueError(f"state index {x} out of range")
                if cell_of[x] != -1:
                    raise ValueError(f"state {x} appears in two cells")
                cell_of[x] = ident
        if -1 in cell_of:
            x = cell_of.index(-1)
            raise ValueError(f"cells do not cover every state: state {x} is in no cell")
        return cls(cell_of)

    @property
    def n_states(self) -> int:
        return len(self.cell_of)

    def cells(self) -> list[list[int]]:
        """Cells by id, which is least-member order; members ascending."""
        groups: list[list[int]] = [[] for _ in range(self.n_cells)]
        for x, ident in enumerate(self.cell_of):
            groups[ident].append(x)
        return groups

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.cell_of == other.cell_of

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, cell)) + "}" for cell in self.cells())
        return f"Cover[{inner}]"


def write_cover(cover: Cover, automaton: Automaton) -> str:
    """One line per cell: ``cell <id>: <state-name>...``, canonical order."""
    lines = []
    for ident, cell in enumerate(cover.cells()):
        names = " ".join(automaton.states[x] for x in cell)
        lines.append(f"cell {ident}: {names}")
    return "\n".join(lines) + "\n"


def parse_cover(text: str, automaton: Automaton) -> Cover:
    # cell_of[x] is the line of x's cell, -1 until x is placed.
    cell_of = [-1] * automaton.n_states
    ids: set[int] = set()
    for lineno, line in _content_lines(text):
        head, colon, body = line.partition(":")
        tag = head.split()
        if not colon or len(tag) != 2 or tag[0] != "cell" or not tag[1].isdecimal():
            raise FormatError("cover line needs: cell <id>: <state-name>...", lineno)
        ident = int(tag[1])
        if ident in ids:
            raise FormatError(f"duplicate cell id {ident}", lineno)
        ids.add(ident)
        try:
            members = [automaton.index_of(name) for name in body.split()]
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        if not members:
            raise FormatError("empty cell", lineno)
        for x in members:
            if cell_of[x] != -1:
                where = "twice in one cell" if cell_of[x] == lineno else "in two cells"
                raise FormatError(f"state {automaton.states[x]!r} appears {where}", lineno)
            cell_of[x] = lineno
    if -1 in cell_of:
        x = cell_of.index(-1)
        raise FormatError(
            f"cells do not cover every state: state {automaton.states[x]!r} is in no cell"
        )
    return Cover(cell_of)


def load_cover(path, automaton: Automaton) -> Cover:
    return parse_cover(Path(path).read_text(encoding="utf-8"), automaton)


def save_cover(cover: Cover, automaton: Automaton, path) -> None:
    Path(path).write_text(write_cover(cover, automaton), encoding="utf-8")


class _Cells:
    """Cells of a partition under merging, for one agent.

    ``_cell[x]`` is the slot of state x's cell; each slot keeps its cell's
    member list, least member, control :func:`_summary` and row ``{event:
    the successor of its first member that enables it}``, filled in one pass
    over the states. Only a cell whose summary clashes with itself, or whose
    member steps outside the cell of the row's successor, can hold a pair
    that fails :func:`_pair_clash`; ``flawed`` lists their slots ascending.
    (A state whose summary clashes with itself, which ``build_context`` never
    builds, flags its cell even when every pair there passes.) A union
    relabels the members of the smaller cell, so a state is relabeled at
    most log2(n) times.
    """

    __slots__ = ("_cell", "_min", "_members", "_sum", "_row", "flawed")

    def __init__(self, sup: Automaton, ctx: ControlContext, agent: int, cover: Cover):
        enabled, dis = ctx.enabled, ctx.disabled[agent]
        marked, plant_marked = ctx.marked, ctx.plant_marked
        cell_of = self._cell = list(cover.cell_of)
        members, sums, rows = ([None] * cover.n_cells for _ in range(3))
        flawed = set()
        for x, out in enumerate(sup.succ_maps):
            c = cell_of[x]
            row = rows[c]
            if row is None:
                members[c] = [x]
                sums[c] = (enabled[x], dis[x], 1 << (2 * plant_marked[x] + marked[x]))
                rows[c] = dict(out)
                continue
            members[c].append(x)
            for ev, y in out.items():
                if cell_of[row.setdefault(ev, y)] != cell_of[y]:
                    flawed.add(c)
        for c, cell in enumerate(members):
            if len(cell) > 1:
                s = sums[c] = _summary(ctx, agent, cell)
                if _clash(s, s):
                    flawed.add(c)
        self._members, self._sum, self._row = members, sums, rows
        self._min = [cell[0] for cell in members]
        self.flawed = sorted(flawed)

    def union(self, a: int, b: int, floor: int, pending: list[tuple[int, int]]):
        """Unite the cells in slots a and b, and append to ``pending`` the
        two successors of each event both rows hold that lie in two cells
        other than a and b; returns the record :meth:`undo` takes. When a
        and b, or two such cells, are not control consistent or hold a
        least member below ``floor``, nothing changes and None is returned.
        """
        cell = self._cell
        cell_min = self._min
        sums = self._sum
        if cell_min[a] < floor or cell_min[b] < floor or _clash(sums[a], sums[b]):
            return None
        members = self._members
        if len(members[a]) < len(members[b]):
            a, b = b, a
        row = self._row[a]
        width = len(row)
        # An event only the emptied row holds is appended to the kept row,
        # whose insertion order lets undo pop exactly those events.
        for ev, y in self._row[b].items():
            z = row.setdefault(ev, y)
            c, d = cell[z], cell[y]
            if c != d and not (c in (a, b) and d in (a, b)):
                if cell_min[c] < floor or cell_min[d] < floor or _clash(sums[c], sums[d]):
                    while len(row) > width:
                        row.popitem()
                    return None
                pending.append((z, y))
        kept = sums[a]
        record = (a, b, len(members[a]), width, cell_min[a], kept)
        for m in members[b]:
            cell[m] = a
        members[a].extend(members[b])
        members[b] = []
        if cell_min[b] < cell_min[a]:
            cell_min[a] = cell_min[b]
        gone = sums[b]
        sums[a] = (kept[0] | gone[0], kept[1] | gone[1], kept[2] | gone[2])
        return record

    def undo(self, records) -> None:
        """Split the cells of ``records``' unions again, latest first. An
        emptied slot keeps its summary and row, so only the kept ones are
        restored."""
        members = self._members
        cell = self._cell
        for a, b, size, width, least, summary in reversed(records):
            moved = members[a][size:]
            del members[a][size:]
            members[b] = moved
            for m in moved:
                cell[m] = b
            row = self._row[a]
            while len(row) > width:
                row.popitem()
            self._min[a] = least
            self._sum[a] = summary

    def to_cover(self) -> Cover:
        return Cover(self._cell)


def _witness(sup: Automaton, ctx: ControlContext, agent: int, cells: _Cells) -> str | None:
    """The witness of the first pair in the flagged cells of unmerged ``cells``,
    in id order, that fails :func:`_pair_clash`; None for a congruence."""
    members, cell_of = cells._members, cells._cell
    pairs = (pair for c in cells.flawed for pair in combinations(members[c], 2))
    witnesses = (_pair_clash(sup, ctx, agent, cell_of, x, y) for x, y in pairs)
    return next(filter(None, witnesses), None)


def _pair_clash(
    sup: Automaton, ctx: ControlContext, agent: int, cell_of, x: int, y: int
) -> str | None:
    """Why states x and y may not share a cell of ``cell_of`` for ``agent``.

    They may iff they are control consistent and, on every event both
    enable, their successors lie in one cell. Returns None when they may,
    otherwise a witness naming both states and the reason. A partition is a
    control congruence iff every pair of cellmates passes this test.
    """
    names = sup.states
    if _clash(_summary(ctx, agent, (x,)), _summary(ctx, agent, (y,))):
        return (
            f"states {names[x]!r} and {names[y]!r} share a cell but are "
            f"not control consistent for agent {agent}"
        )
    succ_y = sup.succ_maps[y]
    for ev, tx in sup.succ_maps[x].items():
        ty = succ_y.get(ev)
        if ty is not None and cell_of[tx] != cell_of[ty]:
            return (
                f"states {names[x]!r} and {names[y]!r} share a cell but step "
                f"to two cells on {sup.alphabet.events[ev]!r}"
            )
    return None


def _check_agent(ctx: ControlContext, agent: int, sup: Automaton) -> None:
    """Raise ``ValueError`` naming ``agent`` and the agents ``ctx`` has
    tables for, unless it is one of them, or naming both sizes when ``ctx``
    has tables for another number of states than ``sup``."""
    if agent not in ctx.disabled:
        known = sorted(ctx.disabled)
        if known and known[-1] - known[0] == len(known) - 1:
            have = f"{known[0]}..{known[-1]}"
        else:
            have = ", ".join(map(str, known)) or "none"
        raise ValueError(f"unknown agent {agent}: the context has agents {have}")
    if len(ctx.enabled) != sup.n_states:
        raise ValueError(
            f"the context has tables for {len(ctx.enabled)} states, "
            f"the supervisor has {sup.n_states}"
        )


def _summary(ctx: ControlContext, agent: int, states) -> tuple[int, int, int]:
    """The control summary of ``states`` for ``agent``: the OR of their
    enabled masks, the OR of their disabled masks, and bit ``2 *
    plant_marked + marked`` per state. Two state sets are pairwise control
    consistent iff their summaries do not :func:`_clash`."""
    enabled = ctx.enabled
    dis = ctx.disabled[agent]
    marked = ctx.marked
    plant_marked = ctx.plant_marked
    on = off = classes = 0
    for x in states:
        on |= enabled[x]
        off |= dis[x]
        classes |= 1 << (2 * plant_marked[x] + marked[x])
    return on, off, classes


def _clash(s: tuple[int, int, int], t: tuple[int, int, int]) -> bool:
    """Whether some state summarized by ``s`` is not control consistent with
    some state summarized by ``t``: one enables an event the other's
    supervisor withholds, or their plant markings agree and their markings
    differ (an even class bit against the odd bit above it)."""
    return bool(s[0] & t[1] or t[0] & s[1] or (s[2] << 1 & t[2] | t[2] << 1 & s[2]) & 0b1010)


def _check_merge(x_i: int, x_j: int, floor: int, cells: _Cells) -> bool:
    """Merge the two cells of ``x_i`` and ``x_j`` in place, with every merge
    that entails; returns whether the merge is accepted.

    A merge is a congruence closure, kept on a stack of state pairs whose
    cells must be united: first the caller's pair, then, for each union, one
    pair per event both united rows hold whose successors lie in two cells.
    It is refused when two cells it would unite are not control consistent,
    or when it would unite a cell whose least member is below ``floor``;
    every union is then undone, so ``cells`` is exactly as before. A pair is
    tested when a union queues it, before any member moves, since the
    closure must unite its cells and cells only grow, and again when it is
    popped. The closure is the least congruence coarser than the cells and
    the caller's pair, so neither the verdict nor the merged cells depend on
    visit order.
    """
    cell = cells._cell
    records = []
    pending = [(x_i, x_j)]
    while pending:
        x, y = pending.pop()
        if cell[x] != cell[y]:
            record = cells.union(cell[x], cell[y], floor, pending)
            if record is None:
                cells.undo(records)
                return False
            records.append(record)
    return True


def localize(
    sup: Automaton,
    ctx: ControlContext,
    agent: int,
    init: Cover | None = None,
) -> Cover:
    """Merge cells of ``init`` into a maximally reduced control congruence.

    ``init`` must itself be a control congruence for the current system (the
    singleton partition, the default, always is); one that is not raises
    :class:`InvalidCoverError` naming a pair of cellmates that fails. An
    agent ``ctx`` lacks, or a ``ctx`` built for a supervisor with another
    number of states, raises ``ValueError``. The loop is :func:`_merge_cells`.
    """
    _check_agent(ctx, agent, sup)
    if init is None:
        init = Cover.singleton(sup.n_states)
    if len(init.cell_of) != sup.n_states:
        raise ValueError("init cover size does not match the supervisor")
    return _merge_cells(sup, ctx, agent, _Cells(sup, ctx, agent, init))


def _merge_cells(sup: Automaton, ctx: ControlContext, agent: int, cells: _Cells) -> Cover:
    """:func:`localize`'s loop, which merges the unmerged ``cells`` in place
    once :func:`_witness` finds no failing pair. It scans candidate state
    pairs in ascending index order, skipping states that are not the least
    member of their cell, and asks the merge engine to merge the cells of
    each pair. Cells only grow, so only the least members of ``cells`` are
    scanned."""
    witness = _witness(sup, ctx, agent, cells)
    if witness:
        raise InvalidCoverError(f"cover is not a control congruence: {witness}")
    cell, cell_min = cells._cell, cells._min
    leaders = cell_min[:]
    for pos, i in enumerate(leaders):
        if i > cell_min[cell[i]]:
            continue
        for j in leaders[pos + 1 :]:
            if j == cell_min[cell[j]]:
                _check_merge(i, j, i, cells)
    return cells.to_cover()


def build_local_supervisor(sup: Automaton, cover: Cover, agent: int) -> Automaton:
    """Build the quotient automaton of a control congruence, the local
    supervisor of the agent whose cover it is (``agent`` does not change it).

    Each state stands for one cell and is named after the cell's least
    member. A cell steps to the cell containing any member's successor; the
    congruence successor condition guarantees this is well defined, and a
    conflict (two members stepping into different cells on one event) raises
    :class:`InvalidCoverError` naming the first such cell. The initial cell
    contains the supervisor's initial state; a cell is marked iff it
    contains a marked state.
    """
    if len(cover.cell_of) != sup.n_states:
        raise ValueError("cover size does not match the supervisor")
    # Quotient state k is cell k of the cover. Its leader, its least member,
    # is met first in state order and starts its row. splits names, for each
    # cell whose members step into two cells on one event, the first such
    # event met.
    cell_pos = cover.cell_of
    leaders: list[int] = []
    rows: list[dict[int, int]] = []
    splits: dict[int, int] = {}
    for x, (pos, out) in enumerate(zip(cell_pos, sup.succ_maps)):
        if pos == len(leaders):
            leaders.append(x)
            rows.append({ev: cell_pos[y] for ev, y in out.items()})
            continue
        row = rows[pos]
        for ev, y in out.items():
            tgt = cell_pos[y]
            if row.setdefault(ev, tgt) != tgt:
                splits.setdefault(pos, ev)
    if splits:
        pos = min(splits)
        raise InvalidCoverError(
            f"cover is not a control congruence: cell of {sup.states[leaders[pos]]!r} "
            f"steps to two cells on {sup.alphabet.events[splits[pos]]!r}"
        )
    # A row is its leader's ascending row followed by the events only later
    # members enable, so only a row longer than the leader's needs sorting.
    for pos, x in enumerate(leaders):
        if len(rows[pos]) > len(sup.succ_maps[x]):
            rows[pos] = dict(sorted(rows[pos].items()))
    return Automaton.__new__(Automaton)._from_rows(
        [sup.states[x] for x in leaders],
        sup.alphabet,
        rows,
        cell_pos[sup.initial],
        [cell_pos[x] for x in sup.marked],
    )


@dataclass(frozen=True)
class CoverVerdict:
    """Validation outcome; ``witness`` describes one violation when invalid."""

    valid: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def is_control_congruence(
    sup: Automaton, ctx: ControlContext, agent: int, cover: Cover
) -> CoverVerdict:
    """Check both congruence conditions in O(states + transitions) by the
    pass that fills :class:`_Cells`: cellmates must be pairwise control
    consistent and step into one cell on each event both enable. An agent
    ``ctx`` lacks, or a ``ctx`` for another number of states, raises ``ValueError``."""
    _check_agent(ctx, agent, sup)
    if len(cover.cell_of) != sup.n_states:
        return CoverVerdict(False, "cover size does not match the supervisor")
    witness = _witness(sup, ctx, agent, _Cells(sup, ctx, agent, cover))
    return CoverVerdict(witness is None, witness)
