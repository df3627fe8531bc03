"""Verify that a set of local supervisors controls a plant exactly like the
monolithic supervisor: same closed-loop language and same marked language.

Both closed loops are deterministic and share the plant, so the state pairs
a joint breadth-first traversal of them reaches are exactly the tuples of
one product of supervisor, plant and local supervisors, in the same order.
Equality is decided on that product by comparing, at every tuple, the two
sides' enabled-event sets and marked flags. The first mismatch yields a
shortest counterexample trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem

from .automata import Automaton, _mask_events, _product


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


def _trace_to(comps, pos: int) -> tuple[str, ...]:
    """Event names of the breadth-first path to tuple ``pos`` of the product
    of ``comps``, which is walked again up to ``pos``: each tuple's parent is
    the first (source, event) of the rows before ``pos`` that reaches it."""
    parent: dict[int, tuple[int, int]] = {}
    for src, row in zip(range(pos), _product(comps)[1]):
        for ev, tgt in row.items():
            if tgt not in parent:
                parent[tgt] = (src, ev)
    events = comps[0].alphabet.events
    rev = []
    while pos:
        pos, ev = parent[pos]
        rev.append(events[ev])
    return tuple(reversed(rev))


def check_control_equivalence(plant: Automaton, sup: Automaton, locs) -> EquivalenceVerdict:
    """Compare plant-under-local-supervisors against plant-under-monolithic.

    Walks the product of ``sup``, ``plant`` and every local supervisor in
    breadth-first order. The two sides are equivalent iff at every tuple the
    monolithic enabled set (supervisor and plant) equals the local one (plant
    and every local supervisor), and so do the two marked flags. Each tuple
    is checked as its row is drawn and no row is kept; only a mismatch walks
    the product again, up to the failing tuple, for the counterexample.
    """
    comps = [sup, plant, *locs]
    order, rows = _product(comps)
    sup_masks, plant_masks, *loc_masks = [a.event_masks() for a in comps]
    loc_marked = [a.marked for a in comps[2:]]
    events = plant.alphabet.events
    for pos, _ in enumerate(rows):
        s, p, *ls = order[pos]
        plant_mask = plant_masks[p]
        mono = sup_masks[s] & plant_mask
        local = reduce(and_, map(getitem, loc_masks, ls), plant_mask)
        if mono != local:
            extra = local & ~mono
            if extra:
                direction = "local supervisors admit behavior the monolithic supervisor forbids"
            else:
                extra = mono & ~local
                direction = "local supervisors forbid behavior the monolithic supervisor admits"
            ev = _mask_events(extra)[0]
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=_trace_to(comps, pos) + (events[ev],),
                failed="language",
                direction=direction,
            )
        plant_marked = p in plant.marked
        mono_marked = plant_marked and s in sup.marked
        local_marked = plant_marked and all(x in m for m, x in zip(loc_marked, ls))
        if mono_marked != local_marked:
            direction = (
                "local supervisors mark behavior the monolithic supervisor does not"
                if local_marked
                else "local supervisors do not mark behavior the monolithic supervisor does"
            )
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=_trace_to(comps, pos),
                failed="marked-language",
                direction=direction,
            )
    return EquivalenceVerdict(equivalent=True)
