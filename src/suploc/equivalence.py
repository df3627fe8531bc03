"""Verify that a set of local supervisors controls a plant exactly like the
monolithic supervisor: same closed-loop language and same marked language.

Both sides are deterministic by construction, so equality is decided by a
joint breadth-first traversal of the two closed-loop automata, comparing
enabled-event sets and marking at every jointly reached state pair. The
first mismatch yields a shortest counterexample trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Automaton, sync_product


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a control-equivalence check.

    When not equivalent, ``counterexample`` is an event-name trace witnessing
    the discrepancy, ``failed`` names the violated property ("language" or
    "marked-language") and ``direction`` states which side admits the extra
    behavior.
    """

    equivalent: bool
    counterexample: tuple[str, ...] | None = None
    failed: str | None = None
    direction: str | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def controlled_behavior(plant: Automaton, locs) -> Automaton:
    """Reachable closed loop of the plant under all local supervisors.

    The product marking is the conjunction of component markings, so the
    same structure carries both the language and the marked language of the
    controlled system.
    """
    return sync_product([plant] + [loc.automaton for loc in locs])


def check_control_equivalence(plant: Automaton, sup: Automaton, locs) -> EquivalenceVerdict:
    """Compare plant-under-local-supervisors against plant-under-monolithic.

    Performs one joint breadth-first traversal of the two deterministic
    closed loops; they are equivalent iff at every jointly reached state pair
    the enabled-event sets coincide and the marked flags coincide.
    """
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
        ea = loop_locs.enabled(a)
        eb = loop_mono.enabled(b)
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
        ma = loop_locs.is_marked(a)
        mb = loop_mono.is_marked(b)
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
            nxt = (loop_locs.step(a, ev), loop_mono.step(b, ev))
            if nxt not in parent:
                parent[nxt] = (pair, ev)
                queue.append(nxt)
    return EquivalenceVerdict(equivalent=True)

