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

from .automata import Automaton, FormatError, _mask_events
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
            raise ValueError("cells do not cover every state")
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
    cells: list[list[int]] = []
    line_of: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        if not head.startswith("cell") or not _:
            raise FormatError("cover line needs: cell <id>: <state-name>...", lineno)
        try:
            members = [automaton.index_of(name) for name in body.split()]
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        if not members:
            raise FormatError("empty cell", lineno)
        for x in members:
            if x in line_of:
                where = "twice in one cell" if line_of[x] == lineno else "in two cells"
                raise FormatError(f"state {automaton.states[x]!r} appears {where}", lineno)
            line_of[x] = lineno
        cells.append(members)
    try:
        return Cover.from_cells(cells, automaton.n_states)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_cover(path, automaton: Automaton) -> Cover:
    return parse_cover(Path(path).read_text(encoding="utf-8"), automaton)


def save_cover(cover: Cover, automaton: Automaton, path) -> None:
    Path(path).write_text(write_cover(cover, automaton), encoding="utf-8")


class _Cells:
    """Cells of a cover under merging.

    ``_cell[x]`` is the slot of state x's cell, and each slot keeps its
    cell's member list, least member and member bitmask (bit x for state x).
    Slots start as the cover's cell ids.
    A union relabels the members of the smaller cell, so a state is
    relabeled at most log2(n) times.
    """

    __slots__ = ("_cell", "_min", "_members", "_bits")

    def __init__(self, cover: Cover):
        self._cell = list(cover.cell_of)
        self._members = cover.cells()
        self._min = [members[0] for members in self._members]
        self._bits = [sum(1 << x for x in members) for members in self._members]

    def union_states(self, x: int, y: int) -> None:
        a = self._cell[x]
        b = self._cell[y]
        if a == b:
            return
        if len(self._members[a]) < len(self._members[b]):
            a, b = b, a
        for m in self._members[b]:
            self._cell[m] = a
        self._members[a].extend(self._members[b])
        self._members[b] = []
        self._bits[a] |= self._bits[b]
        self._bits[b] = 0
        if self._min[b] < self._min[a]:
            self._min[a] = self._min[b]

    def to_cover(self) -> Cover:
        return Cover(self._cell)


def control_consistent(ctx: ControlContext, agent: int, x: int, y: int) -> bool:
    """Whether two supervisor states may share a cell for ``agent``.

    Holds iff neither state enables an event the supervisor withholds from
    the agent in the other state, and the markings agree whenever the
    plant-marking indicators agree. Symmetric in x and y.
    """
    dis = ctx.disabled[agent]
    if ctx.enabled[x] & dis[y] or ctx.enabled[y] & dis[x]:
        return False
    if ctx.plant_marked[x] == ctx.plant_marked[y] and ctx.marked[x] != ctx.marked[y]:
        return False
    return True


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
    if not control_consistent(ctx, agent, x, y):
        return (
            f"states {names[x]!r} and {names[y]!r} share a cell but are "
            f"not control consistent for agent {agent}"
        )
    succ_y = sup.succ_maps[y]
    for ev, tx in sup.out(x):
        ty = succ_y.get(ev)
        if ty is not None and cell_of[tx] != cell_of[ty]:
            return (
                f"states {names[x]!r} and {names[y]!r} share a cell but step "
                f"to two cells on {sup.alphabet.events[ev]!r}"
            )
    return None


def _check_merge(
    x_i: int,
    x_j: int,
    floor: int,
    sup: Automaton,
    ctx: ControlContext,
    cells: _Cells,
    agent: int,
) -> list[tuple[int, int]] | None:
    """Decide whether the cells of ``x_i`` and ``x_j`` can merge.

    Examines every state pair drawn from the two cells and the cells already
    linked to them, fails on the first control-consistency violation or when
    a shared-event successor pair would drag in a cell whose least member
    index is below ``floor``, and otherwise links the pair and follows its
    successor pairs. Returns None on failure. On success it returns the
    joins: each linked state pair that united two components of linked
    cells, in the order linked. They form a spanning forest over the cells,
    so uniting each pair commits every merge the candidate merge entails,
    and there are as many joins as cells the commit removes. ``cells`` is
    never changed.

    Each call of the textbook recursion is a generator ``explore(a, b)`` on
    an explicit stack, so call depth cannot overflow on large supervisors. It
    snapshots the extended members of a and b (their cells plus every cell
    linked to them, directly or through other cells, which is the cell each
    would join if the joins were committed) as state bitmasks when it
    starts, and yields None on failure or the next successor pair to
    explore, in the recursion's visit order. Members are walked in ascending
    index order. For each left member it walks only the right members not
    yet linked to it, and checks the live links again before each pair,
    because nested frames add links; links are only ever added, so the pairs
    it processes are exactly those of the full cross product. Linked cells
    form components over cell slots: ``joined`` maps a slot to the slot it
    joined, and each component root's extended mask is the OR of its cells'
    member masks.
    """
    enabled = ctx.enabled
    succ = sup.succ_maps
    cell = cells._cell
    cell_min = cells._min
    bits = cells._bits
    joins: list[tuple[int, int]] = []
    adj = [0] * sup.n_states  # state -> mask of the states it is linked to
    extended = list(bits)  # component root slot -> mask of its members
    joined: dict[int, int] = {}  # linked cell slot -> the slot it joined
    shared_events: dict[int, tuple[int, ...]] = {}

    def find(r: int) -> int:
        while r in joined:
            r = joined[r]
        return r

    def explore(a: int, b: int):
        left = extended[find(cell[a])]
        right = extended[find(cell[b])]
        while left:
            low = left & -left
            left ^= low
            xp = low.bit_length() - 1
            # Right members not yet linked to xp. xp itself is left out: a
            # self-pair, possible when the extended sets overlap, is a no-op.
            todo = right & ~(adj[xp] | low)
            while todo:
                bit = todo & -todo
                todo ^= bit
                links = adj[xp]
                if links & bit:
                    continue
                xq = bit.bit_length() - 1
                if not control_consistent(ctx, agent, xp, xq):
                    yield None
                adj[xp] = links | bit
                adj[xq] |= low
                rp = cell[xp]
                rq = cell[xq]
                if rp != rq:
                    rp = find(rp)
                    rq = find(rq)
                    if rp != rq:
                        joined[rq] = rp
                        extended[rp] |= extended[rq]
                        joins.append((xp, xq))
                sx = succ[xp]
                sy = succ[xq]
                mask = enabled[xp] & enabled[xq]
                events = shared_events.get(mask)
                if events is None:
                    events = shared_events[mask] = _mask_events(mask)
                for ev in events:
                    sp = sx[ev]
                    sq = sy[ev]
                    ra = cell[sp]
                    rb = cell[sq]
                    if ra == rb or adj[sp] >> sq & 1:
                        continue
                    if cell_min[ra] < floor or cell_min[rb] < floor:
                        yield None
                    yield sp, sq

    stack = [explore(x_i, x_j)]
    while stack:
        step = next(stack[-1], False)
        if step is False:
            stack.pop()
        elif step is None:
            return None
        else:
            stack.append(explore(*step))
    return joins


def localize(
    sup: Automaton,
    ctx: ControlContext,
    agent: int,
    init: Cover | None = None,
) -> Cover:
    """Merge cells of ``init`` into a maximally reduced control congruence.

    ``init`` must itself be a control congruence for the current system (the
    singleton partition, the default, always is). The loop scans candidate
    state pairs in ascending index order, skipping states that are not the
    least member of their cell, and commits a merge by uniting the state
    pairs of each join the merge-exploration engine returns.
    """
    n = sup.n_states
    if init is None:
        init = Cover.singleton(n)
    if len(init.cell_of) != n:
        raise ValueError("init cover size does not match the supervisor")
    cells = _Cells(init)
    cell = cells._cell
    cell_min = cells._min
    for i in range(n - 1):
        if i > cell_min[cell[i]]:
            continue
        for j in range(i + 1, n):
            if j > cell_min[cell[j]]:
                continue
            # The first pair the engine would examine is exactly (i, j), so a
            # direct consistency violation can be rejected without setting up
            # an exploration.
            if not control_consistent(ctx, agent, i, j):
                continue
            joins = _check_merge(i, j, i, sup, ctx, cells, agent)
            if joins is not None:
                for p, q in joins:
                    cells.union_states(p, q)
    return cells.to_cover()


@dataclass(frozen=True)
class LocalSupervisor:
    """Quotient automaton of a control congruence for one agent.

    Each state stands for one cell of the congruence and is named after the
    cell's least-indexed member state.
    """

    automaton: Automaton
    agent: int


def build_local_supervisor(sup: Automaton, cover: Cover, agent: int) -> LocalSupervisor:
    """Build the quotient automaton of a control congruence.

    A cell steps to the cell containing any member's successor; the
    congruence successor condition guarantees this is well defined, and a
    conflict (two members stepping into different cells on one event) raises
    :class:`InvalidCoverError`. The initial cell contains the supervisor's
    initial state; a cell is marked iff it contains a marked state.
    """
    if len(cover.cell_of) != sup.n_states:
        raise ValueError("cover size does not match the supervisor")
    # Quotient state k is cell k of the cover; its leader is its least member.
    cell_pos = cover.cell_of
    leaders = [cell[0] for cell in cover.cells()]
    rows: list[dict[int, int]] = [{} for _ in leaders]
    clash = None
    for x, pos in enumerate(cell_pos):
        row = rows[pos]
        for ev, y in sup.succ_maps[x].items():
            tgt = cell_pos[y]
            if row.setdefault(ev, tgt) != tgt and (clash is None or pos < clash[0]):
                clash = (pos, ev)
    if clash is not None:
        pos, ev = clash
        raise InvalidCoverError(
            f"cover is not a control congruence: cell of {sup.states[leaders[pos]]!r} "
            f"steps to two cells on {sup.alphabet.events[ev]!r}"
        )
    # A row is its leader's ascending row followed by the events only later
    # members enable, so only a row longer than the leader's needs sorting.
    for pos, x in enumerate(leaders):
        if len(rows[pos]) > len(sup.succ_maps[x]):
            rows[pos] = dict(sorted(rows[pos].items()))
    aut = Automaton.__new__(Automaton)._from_rows(
        [sup.states[x] for x in leaders],
        sup.alphabet,
        rows,
        cell_pos[sup.initial],
        [cell_pos[x] for x in sup.marked],
    )
    return LocalSupervisor(automaton=aut, agent=agent)


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
    """Check both congruence conditions directly.

    Every intra-cell state pair must be control consistent, and on every
    event both states enable, their successors must lie in one cell. The
    first violating pair found is reported as the witness.
    """
    if len(cover.cell_of) != sup.n_states:
        return CoverVerdict(False, "cover size does not match the supervisor")
    for cell in cover.cells():
        for x, y in combinations(cell, 2):
            witness = _pair_clash(sup, ctx, agent, cover.cell_of, x, y)
            if witness is not None:
                return CoverVerdict(False, witness)
    return CoverVerdict(True)
