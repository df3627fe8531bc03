"""Parametric cat-and-mouse-tower benchmark generator.

A tower has ``levels`` floors of five rooms each. Cats circulate one way
through the rooms of a floor, mice the other way, and a bidirectional
uncontrollable cat door links rooms 2 and 4; all other doors are
controllable. Consecutive floors are joined by a bidirectional controllable
connection for both animals whose room number steps with the floor number
(floor 1 connects through room 1, floor 2 through room 2, and so on,
wrapping after room 5), which forms a spiral staircase. Cats start in room 1 of the
bottom floor, mice in room 5 of the top floor, and the requirement is that a
cat and a mouse never occupy one room at the same time.

Each floor is an agent owning every event whose source room lies on that
floor, including the upward connection to the next floor but not the
downward one back.

Variant edits (each applied to the base system, not cumulatively):

* v1: the cat door from room 3 to room 4 on floor 2 is removed.
* v2: every door is controllable.
* v3: an added requirement forbids cats from entering the top floor.
* v4: room 5 of floor 1 is removed together with its doors.
* v5: floor 1 gains a room 6 with bidirectional controllable cat and mouse
  doors to room 5.

Marking: the initial configuration (every animal in its start room) is the
marked configuration. This convention reproduces the published size of the
four-floor supervisor; marking all configurations does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Automaton, EventTable
from .context import _synthesize, agents_from_table

VARIANTS = ("base", "v1", "v2", "v3", "v4", "v5")

# Directed doors inside one floor, as (source room, destination room).
CAT_DOORS = ((1, 3), (3, 2), (2, 1), (3, 4), (4, 5), (5, 3))
CAT_DOORS_UNCONTROLLABLE = ((2, 4), (4, 2))
MOUSE_DOORS = ((3, 1), (1, 2), (2, 3), (3, 5), (5, 4), (4, 3))

CAT_START_ROOM = 1
MOUSE_START_ROOM = 5


@dataclass(frozen=True)
class CmtConfig:
    levels: int = 4
    animals: int = 1
    variant: str = "base"

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.animals < 1:
            raise ValueError("animals must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "v4" and self.levels == 1:
            raise ValueError("variant 'v4' removes the mice's start room L1R5 when levels is 1")


@dataclass(frozen=True)
class CmtSystem:
    plants: tuple[Automaton, ...]
    requirements: tuple[Automaton, ...]
    agents: tuple
    table: EventTable


def room_name(level: int, room: int) -> str:
    return f"L{level}R{room}"


def _rooms(cfg: CmtConfig) -> list[tuple[int, int]]:
    rooms = [(level, room) for level in range(1, cfg.levels + 1) for room in range(1, 6)]
    if cfg.variant == "v4":
        rooms.remove((1, 5))
    elif cfg.variant == "v5":
        rooms.insert(5, (1, 6))  # after the rooms of floor 1
    return rooms


def _doors(cfg: CmtConfig, kind: str) -> list[tuple[tuple[int, int], tuple[int, int], bool]]:
    """Directed doors for one animal kind: (src, dst, controllable)."""
    existing = set(_rooms(cfg))
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


def _animal_tags(cfg: CmtConfig) -> list[tuple[str, str]]:
    """(tag, kind) per individual animal; cats first."""
    if cfg.animals == 1:
        return [("c", "cat"), ("m", "mouse")]
    tags = [(f"c{i}", "cat") for i in range(1, cfg.animals + 1)]
    tags += [(f"m{i}", "mouse") for i in range(1, cfg.animals + 1)]
    return tags


def gen_cmt(cfg: CmtConfig) -> CmtSystem:
    """Generate plants, requirements, agent partition and event table.

    One position automaton per animal (states are rooms, events are directed
    door traversals named ``<tag><src-level>_<src-room>__<dst-level>_<dst-room>``,
    each owned by the agent of its source level), plus one occupancy monitor
    per room whose dead ``bad`` state forbids cat and mouse meeting there,
    plus the extra top-floor monitor under v3. Every row is filled in
    ascending event order and valid by construction, so each automaton is
    handed to the trusted constructor.
    """
    tags = _animal_tags(cfg)
    doors_of_kind = {"cat": _doors(cfg, "cat"), "mouse": _doors(cfg, "mouse")}

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

    rooms = _rooms(cfg)
    room_index = {r: i for i, r in enumerate(rooms)}
    names = tuple(room_name(*r) for r in rooms)
    start_of_kind = {
        "cat": room_index[(1, CAT_START_ROOM)],
        "mouse": room_index[(cfg.levels, MOUSE_START_ROOM)],
    }
    moves = [(owner, room_index[src], room_index[dst]) for owner, _, src, dst in ev_meta]

    plants = []
    for pos, (_, kind) in enumerate(tags):
        # In room x the animal takes its own doors out of x; every other
        # animal's event self-loops.
        rows = [
            {
                ev: dst if owner == pos else x
                for ev, (owner, src, dst) in enumerate(moves)
                if owner != pos or src == x
            }
            for x in range(len(rooms))
        ]
        start = start_of_kind[kind]
        plants.append(
            Automaton.__new__(Automaton)._from_rows(names, table, rows, start, [start])
        )

    requirements = _room_monitors(cfg, rooms, ev_meta, table)
    if cfg.variant == "v3":
        # A cat move onto the top floor from below leads to bad.
        top = cfg.levels
        row = {
            ev: int(kind == "cat" and dst[0] == top and src[0] != top)
            for ev, (_, kind, src, dst) in enumerate(ev_meta)
        }
        requirements.append(
            Automaton.__new__(Automaton)._from_rows(("ok", "bad"), table, [row, {}], 0, [0])
        )

    return CmtSystem(
        plants=tuple(plants),
        requirements=tuple(requirements),
        agents=agents_from_table(table),
        table=table,
    )


def _room_monitors(cfg, rooms, ev_meta, table) -> list[Automaton]:
    """One occupancy monitor per room: it counts the cats and mice present
    and falls into the dead ``bad`` state when both kinds would be inside
    at once."""
    k = cfg.animals
    # The valid occupancies (never both kinds at once), then bad.
    occ = [(0, 0)] + [(c, 0) for c in range(1, k + 1)] + [(0, m) for m in range(1, k + 1)]
    index = {o: x for x, o in enumerate(occ)}
    bad = len(occ)
    states = tuple(f"c{c}m{m}" for c, m in occ) + ("bad",)
    # Each occupancy's target when (0) a cat enters, (1) a mouse enters,
    # (2) a cat leaves, (3) a mouse leaves or (4) the room is untouched;
    # None where the move is disabled.
    targets = [
        (
            bad if m else index.get((c + 1, 0)),
            bad if c else index.get((0, m + 1)),
            index.get((c - 1, m)),
            index.get((c, m - 1)),
            x,
        )
        for x, (c, m) in enumerate(occ)
    ]
    start_of_room = {
        (1, CAT_START_ROOM): index[(k, 0)],
        (cfg.levels, MOUSE_START_ROOM): index[(0, k)],
    }
    steps = [(src, dst, kind == "mouse") for _, kind, src, dst in ev_meta]
    monitors = []
    for room in rooms:
        classes = [
            mouse + (0 if dst == room else 2) if room in (src, dst) else 4
            for src, dst, mouse in steps
        ]
        rows = [
            {ev: t for ev, t in enumerate(map(target.__getitem__, classes)) if t is not None}
            for target in targets
        ]
        rows.append({})
        start = start_of_room.get(room, 0)
        monitors.append(
            Automaton.__new__(Automaton)._from_rows(states, table, rows, start, range(bad))
        )
    return monitors


def synthesize_cmt(system: CmtSystem) -> Automaton:
    """Synthesize the monolithic supervisor with each state named after its
    animal configuration, the plant components of its tuple (the monitor
    components add no information, so this naming is injective on reachable
    supervisor states). Configuration names are stable across variants,
    which is what lets covers carry over."""
    return _synthesize(system.plants, system.requirements, len(system.plants))
