"""Verify that a set of local supervisors controls a plant exactly like the
monolithic supervisor: same closed-loop language and same marked language.

Both closed loops are deterministic and share the plant, so the state pairs
a joint breadth-first traversal of them reaches are exactly the tuples of
one product of supervisor, plant and local supervisors, in the same order.
Equality holds iff at every tuple the two sides' enabled-event sets and
marked flags agree.

Usually that product is a copy of the supervisor. A synthesized supervisor
is a homomorphic image of its plant, and the quotient of a control
congruence is a homomorphic image of the supervisor (through ``cell_of``):
each component C has a map phi_C from the supervisor's reachable states
with phi_C(initial) = C.initial and C stepping from phi_C(s) to phi_C(y) on
every supervisor transition s -ev-> y. When every such map exists, the
product's reachable tuples are exactly (s, phi(s)), so the check first
builds the maps on the supervisor's own rows and decides on them. Where a
map does not exist (a component lacks a supervisor event, or gives a state
two images) or the decision is "not equivalent", it walks the product
itself, and the first mismatch yields a shortest counterexample trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem

from .automata import Automaton, _check_alphabet, _mask_events, _product


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


def _image(sup: Automaton, comp: Automaton) -> list[int] | None:
    """The map phi from the supervisor's reachable states to ``comp``'s, with
    phi[initial] = comp.initial and comp stepping from phi[s] to phi[y] on
    every supervisor transition s -ev-> y; phi is -1 on the other states.
    None when ``comp`` lacks an event the supervisor moves on or gives a
    state two images."""
    sup_rows, rows = sup.succ_maps, comp.succ_maps
    phi = [-1] * sup.n_states
    phi[sup.initial] = comp.initial
    order = [sup.initial]
    try:
        for s in order:  # grows while it is walked: breadth-first order
            row = rows[phi[s]]
            for ev, y in sup_rows[s].items():
                t = row[ev]
                if phi[y] != t:
                    if phi[y] >= 0:
                        return None
                    phi[y] = t
                    order.append(y)
    except KeyError:
        return None
    return phi


def _certified(plant: Automaton, sup: Automaton, locs) -> bool:
    """Whether the supervisor's maps onto the plant and every local
    supervisor (``_image``) exist and show the two closed loops equivalent.

    With the maps, the product's reachable tuples are (s, phi(s)) for the
    supervisor's reachable states s, and each component enables at phi(s)
    every event s does. So the monolithic enabled set at s is s's own, and
    the local one exceeds it iff some event the plant enables at
    p = phi_plant(s) and s withholds is enabled by every local supervisor
    (by the plant alone when there is none); where p is marked, s must be
    marked iff every local supervisor's state is. False leaves the verdict,
    and any counterexample, to the product walk.
    """
    images = []
    for comp in (plant, *locs):
        phi = _image(sup, comp)
        if phi is None:
            return False
        images.append(phi)
    plant_phi, *loc_phis = images
    sup_masks, plant_masks = sup.event_masks(), plant.event_masks()
    loc_rows = [(a.succ_maps, phi) for a, phi in zip(locs, loc_phis)]
    loc_marked = [(a.marked, phi) for a, phi in zip(locs, loc_phis)]
    for s, p in enumerate(plant_phi):
        if p < 0:  # unreachable
            continue
        extra = plant_masks[p] & ~sup_masks[s]
        while extra:  # the set bits of extra, as in _mask_events
            low = extra & -extra
            extra ^= low
            ev = low.bit_length() - 1
            for rows, phi in loc_rows:
                if ev not in rows[phi[s]]:
                    break
            else:
                return False
        if p in plant.marked and (s in sup.marked) != all(
            phi[s] in marked for marked, phi in loc_marked
        ):
            return False
    return True


def check_control_equivalence(plant: Automaton, sup: Automaton, locs) -> EquivalenceVerdict:
    """Compare plant-under-local-supervisors against plant-under-monolithic.

    The two sides are equivalent iff at every tuple of the product of
    ``sup``, ``plant`` and every local supervisor the monolithic enabled set
    (supervisor and plant) equals the local one (plant and every local
    supervisor), and so do the two marked flags. When the supervisor maps
    onto every other component, the maps decide this without the product
    (``_certified``). Otherwise, or when they find a mismatch, the product
    is walked in breadth-first order: each tuple is checked as its row is
    drawn and no row is kept; only a mismatch walks the product again, up to
    the failing tuple, for the counterexample.
    """
    comps = [sup, plant, *locs]
    _check_alphabet(comps)
    if _certified(plant, sup, comps[2:]):
        return EquivalenceVerdict(equivalent=True)
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
