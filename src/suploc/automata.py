"""Finite automata over a shared event table: data model, text format, products.

All automata here are deterministic. States are named, and the position of a
state in the state list is its index; the localization algorithms order their
work by state index, so reindexing (``apply_state_order``) changes results
while preserving the language.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem
from pathlib import Path


class FormatError(ValueError):
    """Malformed automaton or cover text. ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and the content of each line of ``text`` that is
    not blank once its ``#`` comment and surrounding whitespace are cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _check_token(name: str, what: str) -> None:
    if not name:
        raise ValueError(f"{what} name must be non-empty")
    if name.split() != [name] or "#" in name or name.startswith("["):
        raise ValueError(f"invalid {what} name {name!r}")


@dataclass(frozen=True)
class EventTable:
    """Shared alphabet: event names with controllability and owning agent.

    Every event is local to exactly one agent (agents are numbered from 1),
    so the per-agent event sets partition the alphabet.
    """

    events: tuple[str, ...]
    controllable: tuple[bool, ...]
    agent_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "controllable", tuple(bool(c) for c in self.controllable))
        object.__setattr__(self, "agent_of", tuple(int(a) for a in self.agent_of))
        if not (len(self.events) == len(self.controllable) == len(self.agent_of)):
            raise ValueError("events, controllable and agent_of must have equal lengths")
        seen: set[str] = set()
        for name in self.events:
            _check_token(name, "event")
            if name in seen:
                raise ValueError(f"duplicate event name {name!r}")
            seen.add(name)
        owned: set[int] = set()
        for agent in self.agent_of:
            if agent < 1:
                raise ValueError("agent indices start at 1")
            owned.add(agent)
        if owned and owned != set(range(1, max(owned) + 1)):
            raise ValueError("agent indices must be contiguous from 1")

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_agents(self) -> int:
        return max(self.agent_of, default=0)


def _ascending(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """``rows``, with each row given out of event order (as in a hand-written file) sorted."""
    return [row if list(row) == sorted(row) else dict(sorted(row.items())) for row in rows]


class Automaton:
    """Deterministic finite automaton over a shared :class:`EventTable`.

    ``transitions`` is a partial function (state index, event index) -> state
    index, supplied to the constructor as an iterable of (src, event, dst)
    index triples. ``succ_maps[x]`` is state x's ``{event: target}`` row,
    kept in ascending event order. Instances are immutable by convention;
    all operations in this package return new automata. Tables derived from
    the rows (name index, predecessors, event masks, moving mask) are built
    on first use and kept.
    """

    __slots__ = (
        "states", "alphabet", "initial", "marked", "succ_maps",
        "_name_index", "_preds", "_masks", "_moving",
    )

    def __init__(
        self,
        states: Iterable[str],
        alphabet: EventTable,
        transitions: Iterable[tuple[int, int, int]],
        initial: int,
        marked: Iterable[int] = (),
    ):
        states = tuple(states)
        if not states:
            raise ValueError("an automaton needs at least one state")
        for name in states:
            _check_token(name, "state")
        n = len(states)
        if not 0 <= initial < n:
            raise ValueError("initial state index out of range")
        marked = frozenset(marked)
        if any(not 0 <= x < n for x in marked):
            raise ValueError("marked state index out of range")
        succ: list[dict[int, int]] = [dict() for _ in range(n)]
        n_ev = alphabet.n_events
        for src, ev, dst in transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("transition endpoint out of range")
            if not 0 <= ev < n_ev:
                raise ValueError("transition event out of range")
            row = succ[src]
            if ev in row:
                raise ValueError(
                    f"nondeterministic duplicate transition from {states[src]!r} "
                    f"on {alphabet.events[ev]!r}"
                )
            row[ev] = dst
        self._from_rows(states, alphabet, _ascending(succ), initial, marked)

    def _from_rows(self, states, alphabet, rows, initial, marked) -> "Automaton":
        """Set every field from ascending ``{event: target}`` rows, and return
        self. Trusted callers start from ``Automaton.__new__(Automaton)``.

        Only name uniqueness is checked, since ``|``-joined product names can
        collide; token rules, index ranges and event order hold by
        construction for names joined, projected or copied from valid names.
        """
        states = tuple(states)
        if len(set(states)) != len(states):
            seen: set[str] = set()
            for name in states:
                if name in seen:
                    raise ValueError(f"duplicate state name {name!r}")
                seen.add(name)
        self.states = states
        self.alphabet = alphabet
        self.initial = initial
        self.marked = frozenset(marked)
        self.succ_maps = tuple(rows)
        self._name_index = None
        self._preds = None
        self._masks = None
        self._moving = None
        return self

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return sum(len(row) for row in self.succ_maps)

    def predecessors(self) -> list[list[tuple[int, int]]]:
        """``predecessors()[y]``: the (source, event) pair of each transition
        into y, by ascending source; built on first use and kept."""
        if self._preds is None:
            preds: list[list[tuple[int, int]]] = [[] for _ in self.succ_maps]
            for p, out in enumerate(self.succ_maps):
                for ev, y in out.items():
                    preds[y].append((p, ev))
            self._preds = preds
        return self._preds

    def event_masks(self) -> tuple[int, ...]:
        """``event_masks()[x]``: the mask of the events state x enables, bit
        ``e`` standing for event index ``e``; built on first use and kept."""
        if self._masks is None:
            self._masks = tuple(map(_event_mask, self.succ_maps))
        return self._masks

    def moving_mask(self) -> int:
        """The mask of the events on which some state leaves itself; on every
        other event each state that enables it self-loops. Built on first use
        and kept."""
        if self._moving is None:
            moving = 0
            for x, row in enumerate(self.succ_maps):
                for ev, y in row.items():
                    if y != x:
                        moving |= 1 << ev
            self._moving = moving
        return self._moving

    def _index(self) -> dict[str, int]:
        """The name index ``{state name: position}``, built on first use and kept."""
        if self._name_index is None:
            self._name_index = {state: pos for pos, state in enumerate(self.states)}
        return self._name_index

    def index_of(self, name: str) -> int:
        """The position of the state named ``name``."""
        try:
            return self._index()[name]
        except KeyError:
            raise ValueError(f"unknown state {name!r}") from None

    def iter_transitions(self):
        """Yield (src, event, dst) ascending by (src, event)."""
        for src, row in enumerate(self.succ_maps):
            for ev, dst in row.items():
                yield src, ev, dst

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.initial == other.initial
            and self.marked == other.marked
            and self.succ_maps == other.succ_maps
        )

    def __repr__(self) -> str:
        return (
            f"<Automaton {self.n_states} states, {self.n_transitions} transitions, "
            f"{self.alphabet.n_events} events>"
        )


# ---------------------------------------------------------------------------
# Text format


def parse_automaton(text: str) -> Automaton:
    """Parse the line-based automaton format.

    Three sections in fixed order. ``#`` starts a comment, blank lines are
    ignored, tokens are whitespace-separated::

        [EVENTS]
        <name> <c|u> <agent:int>
        [STATES]
        <name> [initial] [marked]
        [TRANS]
        <src-state> <event> <dst-state>

    Exactly one state carries ``initial``. Duplicate names, duplicate
    (src, event) pairs and references to undeclared names are errors.
    """
    sections = ("[EVENTS]", "[STATES]", "[TRANS]")
    section = -1
    ev_ctrl: list[bool] = []
    ev_agent: list[int] = []
    ev_line: list[int] = []
    ev_seen: dict[str, int] = {}
    st_seen: dict[str, int] = {}
    initial: int | None = None
    marked: list[int] = []
    rows: list[dict[int, int]] = []

    for lineno, line in _content_lines(text):
        if line in sections:
            want = sections.index(line)
            if want != section + 1:
                raise FormatError(f"unexpected section header {line}", lineno)
            section = want
            continue
        tokens = line.split()
        if section == 0:
            if len(tokens) != 3:
                raise FormatError("event line needs: <name> <c|u> <agent>", lineno)
            name, flag, agent = tokens
            try:
                _check_token(name, "event")
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
            if name in ev_seen:
                raise FormatError(f"duplicate event name {name!r}", lineno)
            if flag not in ("c", "u"):
                raise FormatError(f"controllability flag must be 'c' or 'u', got {flag!r}", lineno)
            try:
                agent_ix = int(agent)
            except ValueError:
                raise FormatError(f"agent must be an integer, got {agent!r}", lineno) from None
            if agent_ix < 1:
                raise FormatError("agent indices start at 1", lineno)
            ev_seen[name] = len(ev_seen)
            ev_ctrl.append(flag == "c")
            ev_agent.append(agent_ix)
            ev_line.append(lineno)
        elif section == 1:
            name = tokens[0]
            try:
                _check_token(name, "state")
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
            if name in st_seen:
                raise FormatError(f"duplicate state name {name!r}", lineno)
            st_seen[name] = len(st_seen)
            rows.append({})
            flags = tokens[1:]
            if any(f not in ("initial", "marked") for f in flags) or len(set(flags)) != len(flags):
                raise FormatError("state flags must be at most one 'initial' and one 'marked'", lineno)
            if "initial" in flags:
                if initial is not None:
                    raise FormatError("second 'initial' state", lineno)
                initial = st_seen[name]
            if "marked" in flags:
                marked.append(st_seen[name])
        elif section == 2:
            if len(tokens) != 3:
                raise FormatError("transition line needs: <src> <event> <dst>", lineno)
            src, ev, dst = tokens
            if src not in st_seen:
                raise FormatError(f"undeclared state {src!r}", lineno)
            if dst not in st_seen:
                raise FormatError(f"undeclared state {dst!r}", lineno)
            if ev not in ev_seen:
                raise FormatError(f"undeclared event {ev!r}", lineno)
            row = rows[st_seen[src]]
            if ev_seen[ev] in row:
                raise FormatError(f"duplicate transition from {src!r} on {ev!r}", lineno)
            row[ev_seen[ev]] = st_seen[dst]
        else:
            raise FormatError("content before [EVENTS] section", lineno)

    if section < 2:
        raise FormatError(f"missing section {sections[section + 1]}")
    if initial is None:
        raise FormatError("no state carries 'initial'")
    gaps = set(range(1, max(ev_agent, default=0))).difference(ev_agent)
    if gaps:
        lineno = next(at for at, k in zip(ev_line, ev_agent) if k > min(gaps))
        raise FormatError("agent indices must be contiguous from 1", lineno)
    # Every name, reference, repeat and event-table rule was checked above.
    table = EventTable(tuple(ev_seen), tuple(ev_ctrl), tuple(ev_agent))
    return Automaton.__new__(Automaton)._from_rows(
        st_seen, table, _ascending(rows), initial, marked
    )


def write_automaton(a: Automaton) -> str:
    """Serialize to the text format; deterministic bytes for a given automaton."""
    lines = ["[EVENTS]"]
    t = a.alphabet
    for e in range(t.n_events):
        lines.append(f"{t.events[e]} {'c' if t.controllable[e] else 'u'} {t.agent_of[e]}")
    lines.append("[STATES]")
    for x, name in enumerate(a.states):
        flags = ""
        if x == a.initial:
            flags += " initial"
        if x in a.marked:
            flags += " marked"
        lines.append(name + flags)
    lines.append("[TRANS]")
    for src, ev, dst in a.iter_transitions():
        lines.append(f"{a.states[src]} {t.events[ev]} {a.states[dst]}")
    return "\n".join(lines) + "\n"


def load_automaton(path) -> Automaton:
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


def save_automaton(a: Automaton, path) -> None:
    Path(path).write_text(write_automaton(a), encoding="utf-8")


# ---------------------------------------------------------------------------
# Operations


def _event_mask(events: Iterable[int]) -> int:
    """Bitmask of event indices, such as the keys of a successor row."""
    mask = 0
    for ev in events:
        mask |= 1 << ev
    return mask


def _mask_events(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    events = []
    while mask:
        low = mask & -mask
        events.append(low.bit_length() - 1)
        mask ^= low
    return tuple(events)


def _check_alphabet(automata: Sequence[Automaton]) -> None:
    """Raise ``ValueError`` unless every automaton has the first one's alphabet."""
    first = automata[0].alphabet
    if any(a.alphabet != first for a in automata[1:]):
        raise ValueError("alphabet mismatch between product components")


def _product(automata: Sequence[Automaton]):
    """Breadth-first reachable synchronous product over one shared alphabet.

    Returns ``(order, rows)``: the component-state tuples in discovery order
    (index 0 is the initial tuple) and a generator that yields, per tuple of
    ``order`` in turn, its ``{event: target index}`` row with events
    ascending. ``order`` grows as rows are drawn: ``order[i]`` is there when
    row ``i`` is drawn, and every target of a drawn row is there too, so the
    list is complete once the generator is exhausted. Callers that need every
    row keep them (``list(rows)``); one that reads each row once keeps none.

    An event is enabled in a product state iff it is enabled in every
    component: the enabled set is the AND of the components' event masks
    (``Automaton.event_masks``, kept by each component). A component whose
    ``moving_mask`` lacks an event self-loops on it wherever it enables it,
    so ``movers[ev]`` lists the (position, rows) of the components that can
    move on ``ev``, and a target tuple is the source tuple with only those
    positions stepped.
    """
    _check_alphabet(automata)
    first = automata[0]
    masks = [a.event_masks() for a in automata]
    movers = [[] for _ in range(first.alphabet.n_events)]
    for i, a in enumerate(automata):
        for ev in _mask_events(a.moving_mask()):
            movers[ev].append((i, a.succ_maps))
    init = tuple(a.initial for a in automata)
    index: dict[tuple[int, ...], int] = {init: 0}
    order: list[tuple[int, ...]] = [init]

    def rows():
        for t in order:  # grows while it is walked: breadth-first order
            row: dict[int, int] = {}
            m = reduce(and_, map(getitem, masks, t))
            while m:  # the set bits of m, ascending, as in _mask_events
                low = m & -m
                m ^= low
                ev = low.bit_length() - 1
                moved = list(t)
                for i, succ in movers[ev]:
                    moved[i] = succ[t[i]][ev]
                tt = tuple(moved)
                tgt = index.get(tt)
                if tgt is None:
                    tgt = index[tt] = len(order)
                    order.append(tt)
                row[ev] = tgt
            yield row

    return order, rows()


def _tuple_names(automata: Sequence[Automaton], order) -> list[str]:
    """Product state names: component state names joined with ``|``."""
    names = [a.states for a in automata]
    return ["|".join(map(getitem, names, t)) for t in order]


def _tuple_marked(automata: Sequence[Automaton], order) -> list[bool]:
    """Per tuple, whether every component state is marked."""
    flags = [[x in a.marked for x in range(a.n_states)] for a in automata]
    return [all(map(getitem, flags, t)) for t in order]


def sync_product(automata: Sequence[Automaton]) -> Automaton:
    """Reachable synchronous product over one shared alphabet.

    An event is enabled in a product state iff it is enabled in every
    component; a product state is marked iff every component state is marked.
    Product states are named by joining component state names with ``|`` and
    are ordered by breadth-first discovery from the initial tuple.
    """
    if not automata:
        raise ValueError("sync_product needs at least one automaton")
    order, rows = _product(automata)
    rows = list(rows)
    marked = [i for i, m in enumerate(_tuple_marked(automata, order)) if m]
    return Automaton.__new__(Automaton)._from_rows(
        _tuple_names(automata, order), automata[0].alphabet, rows, 0, marked
    )


def reachable_trim(a: Automaton) -> Automaton:
    """Restrict to states reachable from the initial state.

    The relative order of surviving states is preserved.
    """
    seen = {a.initial}
    queue = deque((a.initial,))
    while queue:
        x = queue.popleft()
        for y in a.succ_maps[x].values():
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if len(seen) == a.n_states:
        return a
    # ``seen`` is closed under successors: every target of a kept state is kept.
    return _renumber(a, [x for x in range(a.n_states) if x in seen])


def apply_state_order(a: Automaton, order: Sequence[int]) -> Automaton:
    """Reindex states: position ``i`` of the result holds old state ``order[i]``.

    ``order`` must be a permutation of 0..n-1. The language and marked
    language are unchanged.
    """
    n = a.n_states
    if len(order) != n or sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the state indices")
    return _renumber(a, order)


def _renumber(a: Automaton, keep: Sequence[int]) -> Automaton:
    """Position ``i`` of the result holds old state ``keep[i]``. Every target
    of a kept state must be kept; marked states that are not kept drop out."""
    pos = [-1] * a.n_states
    for new, old in enumerate(keep):
        pos[old] = new
    return Automaton.__new__(Automaton)._from_rows(
        [a.states[old] for old in keep],
        a.alphabet,
        [{ev: pos[y] for ev, y in a.succ_maps[old].items()} for old in keep],
        pos[a.initial],
        [pos[x] for x in a.marked if pos[x] >= 0],
    )
