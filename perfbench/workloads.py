"""The benchmark's workloads, driven through suploc's public functions only.

``tower4-sl``
    Four-level, one-animal tower, variants v1-v5. Per system, every agent is
    localized from the singleton partition, then the quotient automata are
    built and the equivalence gate runs. The merge engine does over 99% of
    this work.
``tower4-tsl``
    The same systems and orders; base covers are computed in set-up. Per
    system the timed part is ``build_context``, then per agent
    ``carry_over_cover`` + ``isolate`` + initialized ``localize``, then the
    quotients and the gate. It uses the merge engine from large pre-merged
    cells and is the only workload that runs ``isolate``.
``tower3x2-synth``
    Three-level, two-animal tower. Set-up is generation only; the timed part
    is the plant product, synthesis of the 29,159-state supervisor,
    ``build_context``, the singleton-cover quotient per agent and the
    equivalence check. It never enters the merge engine.

State order moves the time of a single localization about 10x and the sum
over one order's 20 jobs by about +-35% (12-33 s over five random orders),
more than any regression bound can absorb. The base supervisor's state
orders are therefore fixed: successive permutations drawn from
``SplitMix64(7)``, the first being the order ``suploc bench --seed 7``
starts with. The benchmark seed places the states each edit adds (13 in v2,
41 in v5) and, on ``tower3x2-synth``, orders the whole supervisor. Systems
whose input does not depend on the seed (v1, v3, v4 and the base) are
checked against the reference cell counts at every seed, the others at the
reference seed.

``BENCHMARK.json`` lists ``tower4-tsl`` and ``tower3x2-synth`` only. A
``tower4-sl`` pass is dominated by one job (v3 agent 4, 6-13 s on a shared
2-CPU host), which a run within the time budget can repeat only twice, so its
unscaled wall time spread by 0.22-0.29 over ten seeds (IQR over median), too
close to the largest bound a metric may have (0.25); it stays runnable by
name and in ``--workload all``.

A run repeats the timed pass until ``seconds`` of passes have passed (at
least once). It sets up at least ``SETUP_REPS`` times and for at least
``SETUP_SECONDS`` in all, in slices of ``SETUP_SLICE`` before the first pass
and between passes, so that the median set-up time samples the host over the
run as the passes do; the passes use the inputs of the first slice. After
each pass, outside the timed region, every cover must be a control
congruence, every supervisor set control equivalent to the monolithic
supervisor, counts must repeat across passes and cell counts must match
``reference.json``; a call that raises counts as a failed operation and the
run goes on.

Work is timed in units: on the tower workloads each job, and per system
the context and the quotients with the gate; on ``tower3x2-synth`` and in
set-up each call into suploc. Before and after each unit, and every
``PROBE_EVERY`` seconds within it, ``probe`` times a fixed pure-Python loop
and gives the host factor: (loop time / reference loop time) **
``PROBE_POWER``, 1.0 on a host that runs the loop at ``PROBE_NS`` per
iteration. A unit's measured time leaves the probes out; its scaled time
is the measured time over the mean of its factors, i.e. seconds on that
reference host (``Meter``). ``wall_s`` sums each unit's median scaled time
over the passes, ``setup_s`` is the median scaled set-up. The measured and
scaled times, and the median factor of each pass, are kept in the result
file.

The host needs this. On a shared 2-CPU host the loop ran between 1.0x and
2.0x its fastest speed in spells of 20-60 s, with CPU time tracking wall
time and no steal time; one ``tower4-tsl`` pass took 2.95-7.1 s within two
minutes. Unscaled, the fastest-unit ``wall_s`` of ten seeds spread by
0.30-0.46 (IQR over median) in two sets of runs, and the two sets' median
``setup_s`` differed by 36%. The work slows more than the loop when the
host is busy: over 30 ``tower4-tsl`` passes in one process, measured time
over the loop's time spread by 0.081 (IQR over median), and over the
loop's time to the power 1.2 or 1.4 by 0.053 and 0.056. Over ten seeds
scaled at power 1.3, ``wall_s`` spread by 0.087 on ``tower4-tsl`` and 0.037
on ``tower3x2-synth``; the same runs rescaled to power 1.4 spread by 0.059
and 0.045 (each workload alone is steadiest near 1.5 and 1.3).
"""

from __future__ import annotations

import gc
import json
import signal
import traceback
from collections import Counter
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from statistics import median
from time import perf_counter

from suploc import (
    CmtConfig,
    Cover,
    SplitMix64,
    apply_state_order,
    build_context,
    build_local_supervisor,
    carry_over_cover,
    check_control_equivalence,
    gen_cmt,
    is_control_congruence,
    isolate,
    localize,
    reachable_trim,
    sync_product,
    synthesize_cmt,
)

from .tracer import Tracer, module_self_times, name_totals

PROTOCOL_SEED = 7
PROBE_LOOP = 10_000
PROBE_REPS = 3
PROBE_NS = 30.0
PROBE_EVERY = 0.1
PROBE_POWER = 1.4
SETUP_REPS = 3
SETUP_SECONDS = 2.0
SETUP_SLICE = 0.5
TAIL_BEYOND = 10
REFERENCE_PATH = Path(__file__).with_name("reference.json")
MODULES = ("automata", "bench", "cmt", "context", "equivalence", "localization", "transform")


@dataclass(frozen=True)
class Params:
    kind: str
    levels: int
    animals: int
    variants: tuple[str, ...] = ()
    orders: int = 0


VARIANTS = ("v1", "v2", "v3", "v4", "v5")
WORKLOADS = {
    "tower4-sl": Params("sl", 4, 1, VARIANTS, 1),
    "tower4-tsl": Params("tsl", 4, 1, VARIANTS, 1),
    "tower3x2-synth": Params("synth", 3, 2),
}


# --- host speed -------------------------------------------------------------


def probe() -> float:
    """How slowly the host runs now: the fastest of ``PROBE_REPS`` runs of a
    fixed pure-Python loop, in nanoseconds per iteration over ``PROBE_NS``,
    to the power ``PROBE_POWER``. A reference host gives 1.0."""
    best = inf
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        best = min(best, perf_counter() - t0)
    return (best / PROBE_LOOP * 1e9 / PROBE_NS) ** PROBE_POWER


class Meter:
    """Times units of work and probes the host around and during each: once
    before and after it, and every ``PROBE_EVERY`` seconds of it from a
    ``SIGALRM`` handler (in this thread). A unit's measured time leaves out
    the probes within it; its scaled time is the measured time over the mean
    of its probes. Times of units with one key add up. ``probing`` is the
    time spent in probes after the first."""

    def __init__(self):
        self.measured: Counter = Counter()
        self.scaled: Counter = Counter()
        self.probes = [probe()]
        self.probing = 0.0
        self._within: list[tuple[float, float]] = []

    def _probe(self, *_signal) -> None:
        t0 = perf_counter()
        self.probes.append(probe())
        t1 = perf_counter()
        self.probing += t1 - t0
        self._within.append((t0, t1))

    def time(self, key: str, fn, *args, **kwargs):
        first = len(self.probes) - 1
        self._within = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            seconds = t1 - t0 - sum(b - a for a, b in self._within if a >= t0 and b <= t1)
            self._probe()
            around = self.probes[first:]
            self.measured[key] += seconds
            self.scaled[key] += seconds / (sum(around) / len(around))

    def wrap(self, call):
        """``call`` (a tracer's), with every call into suploc a unit of its name."""
        return lambda name, fn, *args, **kwargs: self.time(name, call, name, fn, *args, **kwargs)


# --- failures ---------------------------------------------------------------


class Failed:
    """Stands in for the result of a call that raised."""

    def __init__(self, what: str):
        self.what = what


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception:  # reported by the gate, after the timed region
        return Failed(traceback.format_exc(limit=-2).strip().splitlines()[-1])


class Ledger:
    """Operations attempted, and a message for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.errors)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.errors.append(f"{what}: {problem}")


# --- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Prepared:
    system: object
    plant: object
    sup: object


def prepare(call, params: Params, variant: str) -> Prepared:
    system = call("cmt.gen", gen_cmt, CmtConfig(params.levels, params.animals, variant))
    product = call("automata.sync_product", sync_product, system.plants)
    plant = call("automata.reachable_trim", reachable_trim, product)
    sup = call("context.synthesize", synthesize_cmt, system)
    return Prepared(system, plant, sup)


def variant_order(base_sup, variant_sup, rng: SplitMix64) -> tuple[list[int], int]:
    """Index order for a variant supervisor: states it shares with the base
    in their base order, then the states the edit added, shuffled by ``rng``.
    Returns the order and the number of added states."""
    base_pos = {name: i for i, name in enumerate(base_sup.states)}
    names = variant_sup.states
    retained = sorted((x for x in range(len(names)) if names[x] in base_pos),
                      key=lambda x: base_pos[names[x]])
    added = [x for x in range(len(names)) if names[x] not in base_pos]
    rng.shuffle(added)
    return retained + added, len(added)


@dataclass
class TowerSystem:
    id: str
    plant: object
    sup: object
    agents: tuple
    ctx: object | None
    retained: int
    seeded: bool
    base_sup: object | None = None
    base_covers: list | None = None


@dataclass
class TowerInputs:
    systems: list[TowerSystem]
    bases: list[tuple[str, object, object, list]]
    counts: Counter


def setup_tower(params: Params, seed: int, tracer: Tracer, meter: Meter | None = None
                ) -> TowerInputs:
    call = meter.wrap(tracer.call) if meter else tracer.call
    relocalize = params.kind == "tsl"
    prepared = {}
    for v in ("base",) + params.variants:
        tracer.system = v
        prepared[v] = prepare(call, params, v)
    counts = Counter()
    for p in prepared.values():
        counts["automata.plant_states"] += p.plant.n_states
        counts["context.sup_states"] += p.sup.n_states
        counts["context.sup_transitions"] += p.sup.n_transitions

    proto = SplitMix64(PROTOCOL_SEED)
    rng = SplitMix64(seed)
    base = prepared["base"]
    systems, bases = [], []
    for o in range(params.orders):
        tracer.system = f"o{o}/base"
        base_sup = call("automata.reorder", apply_state_order, base.sup,
                        proto.permutation(base.sup.n_states))
        base_covers = None
        if relocalize:
            base_ctx = call("context.build_context", build_context, base.plant, base_sup,
                            base.system.agents)
            base_covers = [
                call("localization.localize", localize, base_sup, base_ctx, spec.agent_index)
                for spec in base.system.agents
            ]
            bases.append((tracer.system, base_sup, base_ctx, base_covers))
            counts["localization.merges"] += sum(base_sup.n_states - c.n_cells
                                                 for c in base_covers)
        for v in params.variants:
            p = prepared[v]
            tracer.system = f"o{o}/{v}"
            order, n_added = variant_order(base_sup, p.sup, rng)
            sup = call("automata.reorder", apply_state_order, p.sup, order)
            ctx = None
            if not relocalize:
                ctx = call("context.build_context", build_context, p.plant, sup, p.system.agents)
            systems.append(TowerSystem(
                id=tracer.system, plant=p.plant, sup=sup, agents=p.system.agents, ctx=ctx,
                retained=sup.n_states - n_added, seeded=n_added > 0,
                base_sup=base_sup, base_covers=base_covers,
            ))
    tracer.system = None
    return TowerInputs(systems, bases, counts)


# --- timed passes -----------------------------------------------------------


@dataclass
class Job:
    key: str
    seconds: float
    result: object
    cells: object = None


@dataclass
class PassOutput:
    """One timed pass: the measured and the scaled time of each unit of work
    (see ``Meter``), the median probe of the host, the jobs and what the gate
    checks afterwards."""

    units: dict[str, float]
    scaled: dict[str, float]
    factor: float
    jobs: list[Job]
    checks: list
    counts: Counter = field(default_factory=Counter)

    @classmethod
    def of(cls, meter: Meter, jobs: list[Job], checks: list) -> PassOutput:
        return cls(dict(meter.measured), dict(meter.scaled), median(meter.probes), jobs, checks)


def relocalize_job(call, s: TowerSystem, ctx, k: int):
    base_cover = s.base_covers[k - 1]
    carried = call("transform.carry_over", carry_over_cover, base_cover, s.base_sup, s.sup)
    iso = call("transform.isolate", isolate, base_cover, s.base_sup, s.sup, ctx, k,
               carried=carried)
    cover = call("localization.localize", localize, s.sup, ctx, k, iso)
    return carried, iso, cover


def quotient_and_check(call, plant, sup, covers):
    locs = [call("localization.quotient", build_local_supervisor, sup, cover, k)
            for k, cover in covers]
    return call("equivalence.check", check_control_equivalence, plant, sup, locs)


def tower_pass(inputs: TowerInputs, tracer: Tracer, relocalize: bool) -> PassOutput:
    """Per system: the context (relocalization only), each job and the
    quotients with the gate, each a unit of the meter."""
    call = tracer.call
    meter = Meter()
    jobs, checks = [], []
    with tracer.span("bench.pass"):
        for s in inputs.systems:
            tracer.system = s.id
            with tracer.span("bench.system"):
                ctx = s.ctx
                if relocalize:
                    ctx = meter.time(f"{s.id}/context", attempt, call, "context.build_context",
                                     build_context, s.plant, s.sup, s.agents)
                system_jobs = []
                for spec in s.agents:
                    k = spec.agent_index
                    key = f"{s.id}/a{k}"
                    with tracer.span("bench.job"):
                        if isinstance(ctx, Failed):
                            result = ctx
                        elif relocalize:
                            result = meter.time(key, attempt, relocalize_job, call, s, ctx, k)
                        else:
                            result = meter.time(key, attempt, call, "localization.localize",
                                                localize, s.sup, ctx, k)
                    system_jobs.append(Job(key, meter.measured[key], result))
                failed = [j.result for j in system_jobs if isinstance(j.result, Failed)]
                if failed:
                    verdict = Failed(f"skipped after a failed job: {failed[0].what}")
                else:
                    covers = [(spec.agent_index, j.result[-1] if relocalize else j.result)
                              for spec, j in zip(s.agents, system_jobs)]
                    verdict = meter.time(f"{s.id}/check", attempt, quotient_and_check, call,
                                         s.plant, s.sup, covers)
            jobs.extend(system_jobs)
            checks.append((s, ctx, system_jobs, verdict))
    tracer.system = None
    return PassOutput.of(meter, jobs, checks)


def equivalence_problem(verdict) -> str | None:
    if isinstance(verdict, Failed):
        return verdict.what
    if not verdict:
        return f"not control equivalent: {verdict.direction}; trace {verdict.counterexample}"
    return None


def congruence_problem(sup, ctx, k, covers) -> str | None:
    for cover in covers:
        verdict = is_control_congruence(sup, ctx, k, cover)
        if not verdict:
            return f"cover is not a control congruence: {verdict.witness}"
    return None


def gate_tower(out: PassOutput, ledger: Ledger, reference: dict | None, relocalize: bool) -> None:
    """Check every output of a tower pass and fill in its cell counts."""
    counts = out.counts
    for s, ctx, jobs, verdict in out.checks:
        for spec, job in zip(s.agents, jobs):
            k = spec.agent_index
            if isinstance(job.result, Failed):
                ledger.record(job.key, job.result.what)
                continue
            if relocalize:
                carried, iso, cover = job.result
                job.cells = [carried.n_cells, iso.n_cells, cover.n_cells]
                problem = congruence_problem(s.sup, ctx, k, (iso, cover))
                counts["localization.merges"] += iso.n_cells - cover.n_cells
                counts["transform.evictions"] += iso.n_cells - carried.n_cells
                counts["transform.retained"] += s.retained
            else:
                cover = job.result
                job.cells = cover.n_cells
                problem = congruence_problem(s.sup, ctx, k, (cover,))
                counts["localization.merges"] += s.sup.n_states - cover.n_cells
            counts["cells_total"] += cover.n_cells
            if problem is None and reference is not None and (
                not s.seeded or reference["seed_applies"]
            ):
                problem = reference_problem(reference, job.key, job.cells)
            ledger.record(job.key, problem)
        problem = equivalence_problem(verdict)
        counts["equivalence.failures"] += problem is not None
        ledger.record(f"{s.id}/equivalence", problem)


def reference_problem(reference: dict, key: str, value) -> str | None:
    expected = reference["values"].get(key)
    if value != expected:
        return f"{value} differs from the reference {expected}"
    return None


def gate_bases(inputs: TowerInputs, ledger: Ledger, reference: dict | None) -> dict:
    """Check the base covers made in set-up; returns their cell counts."""
    cells = {}
    for system_id, base_sup, base_ctx, covers in inputs.bases:
        for k, cover in enumerate(covers, start=1):
            key = f"{system_id}/a{k}"
            cells[key] = cover.n_cells
            problem = congruence_problem(base_sup, base_ctx, k, (cover,))
            if problem is None and reference is not None:
                problem = reference_problem(reference, key, cover.n_cells)
            ledger.record(key, problem)
    return cells


@dataclass
class SynthInputs:
    system: object
    seed: int


def setup_synth(params: Params, seed: int, tracer: Tracer, meter: Meter | None = None
                ) -> SynthInputs:
    call = meter.wrap(tracer.call) if meter else tracer.call
    tracer.system = "base"
    system = call("cmt.gen", gen_cmt, CmtConfig(params.levels, params.animals, "base"))
    tracer.system = None
    return SynthInputs(system, seed)


def synth_pass(inputs: SynthInputs, tracer: Tracer) -> PassOutput:
    """Product, synthesis, seeded reorder with context, and the singleton
    quotients with the equivalence check. Each call into suploc is a unit;
    calls are grouped into stages, each one operation for the gate. Drawing
    the seeded order is not timed."""
    system = inputs.system
    stages = {}
    meter = Meter()
    call = meter.wrap(tracer.call)

    def stage(name, fn, *args):
        stages[name] = result = attempt(fn, *args)
        return result

    def plant_product():
        product = call("automata.sync_product", sync_product, system.plants)
        return call("automata.reachable_trim", reachable_trim, product)

    def reorder_and_context(sup, order):
        sup = call("automata.reorder", apply_state_order, sup, order)
        return sup, call("context.build_context", build_context, plant, sup, system.agents)

    tracer.system = "base"
    with tracer.span("bench.pass"):
        plant = stage("plant", plant_product)
        sup = stage("synthesis", call, "context.synthesize", synthesize_cmt, system)
        if not isinstance(plant, Failed) and not isinstance(sup, Failed):
            order = SplitMix64(inputs.seed).permutation(sup.n_states)
            context = stage("context", reorder_and_context, sup, order)
            if not isinstance(context, Failed):
                singletons = [(spec.agent_index, Cover.singleton(sup.n_states))
                              for spec in system.agents]
                stage("equivalence", quotient_and_check, call, plant, context[0], singletons)
    tracer.system = None
    return PassOutput.of(meter, [], [stages])


SYNTH_STAGES = ("plant", "synthesis", "context", "equivalence")
SYNTH_COUNTS = ("automata.plant_states", "context.sup_states", "context.sup_transitions")


def gate_synth(out: PassOutput, ledger: Ledger, reference: dict | None) -> None:
    (stages,) = out.checks
    counts = out.counts
    plant, sup = stages["plant"], stages["synthesis"]
    if not isinstance(plant, Failed):
        counts["automata.plant_states"] += plant.n_states
    if not isinstance(sup, Failed):
        counts["context.sup_states"] += sup.n_states
        counts["context.sup_transitions"] += sup.n_transitions
    for stage in SYNTH_STAGES:
        result = stages.get(stage, Failed("skipped after an earlier failure"))
        if stage == "equivalence":
            problem = equivalence_problem(result)
            counts["equivalence.failures"] += problem is not None
        else:
            problem = result.what if isinstance(result, Failed) else None
        ledger.record(stage, problem)
    if reference is not None:
        for key in SYNTH_COUNTS:
            ledger.record(key, reference_problem(reference, key, counts[key]))


# --- a run ------------------------------------------------------------------


def load_reference(name: str, params: Params, seed: int) -> dict | None:
    """The reference entries of a workload at its default parameters."""
    if params != WORKLOADS.get(name):
        return None
    with open(REFERENCE_PATH) as f:
        data = json.load(f)
    return {"values": data["workloads"][name], "seed_applies": seed == data["seed"]}


@dataclass
class Report:
    """What one run measured and checked."""

    params: Params
    attempted: int
    failed: int
    errors: list[str]
    end_to_end: dict
    per_layer: dict
    jobs: dict
    checked: dict
    passes: dict
    spans: list


def job_tail(values, beyond: int = TAIL_BEYOND):
    """The highest order statistic with ``beyond`` samples above it, as
    (value, rank from the bottom, sample count); None with too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    return xs[n - beyond - 1], n - beyond, n


def run(name: str, seed: int, seconds: float, trace: bool, params: Params | None = None) -> Report:
    """Set up, run timed passes for ``seconds``, check every output and
    compute the metrics. With ``trace`` the passes alternate untraced and
    traced (at least one of each); per-layer metrics come from the traced
    ones and the end-to-end metrics from the untraced ones."""
    params = params or WORKLOADS[name]
    reference = load_reference(name, params, seed)
    ledger = Ledger()
    tower = params.kind != "synth"

    setup_times, setup_scaled, setup_tracers = [], [], []

    def set_up():
        """Time set-ups for ``SETUP_SLICE`` seconds (at least one), each
        call into suploc a unit of a meter; return the last one's inputs."""
        spent = 0.0
        while spent < SETUP_SLICE:
            tracer = Tracer(trace)
            meter = Meter()
            gc.collect()
            t0 = perf_counter()
            with tracer.span("bench.setup"):
                if tower:
                    built = setup_tower(params, seed, tracer, meter)
                else:
                    built = setup_synth(params, seed, tracer, meter)
            seconds = perf_counter() - t0 - meter.probing
            between = seconds - sum(meter.measured.values())
            setup_times.append(seconds)
            setup_scaled.append(sum(meter.scaled.values()) + between / median(meter.probes))
            setup_tracers.append((tracer, median(meter.probes)))
            spent += seconds
        return built

    def more_set_ups() -> bool:
        return len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS

    inputs = set_up()
    checked = gate_bases(inputs, ledger, reference) if tower else {}

    untraced: list[PassOutput] = []
    traced: list[tuple[PassOutput, Tracer]] = []
    start = perf_counter()
    while True:
        tracer = Tracer(trace and len(untraced) > len(traced))
        gc.collect()
        if tower:
            out = tower_pass(inputs, tracer, params.kind == "tsl")
            gate_tower(out, ledger, reference, params.kind == "tsl")
        else:
            out = synth_pass(inputs, tracer)
            gate_synth(out, ledger, reference)
        first = (untraced or [out])[0]
        same = (out.counts == first.counts
                and [j.cells for j in out.jobs] == [j.cells for j in first.jobs])
        ledger.record("repeat", None if same else "counts differ between passes of one run")
        # Checked outputs are dropped, so that memory does not grow with passes.
        out.checks = []
        for job in out.jobs:
            job.result = None
        if tracer.enabled:
            traced.append((out, tracer))
        else:
            untraced.append(out)
        if more_set_ups():
            t0 = perf_counter()
            set_up()
            start += perf_counter() - t0
        if perf_counter() - start >= seconds and (not trace or traced):
            break
    while more_set_ups():
        set_up()

    first = untraced[0]
    typical = {unit: median(p.scaled[unit] for p in untraced if unit in p.scaled)
               for unit in first.scaled}
    jobs = {}
    for job in first.jobs:
        jobs[job.key] = {
            "seconds": typical[job.key],
            "runs_measured_s": [p.units[job.key] for p in untraced],
            "runs_scaled_s": [p.scaled[job.key] for p in untraced],
            "cells": job.cells,
        }
        checked[job.key] = job.cells
    if not tower:
        checked.update({key: first.counts[key] for key in SYNTH_COUNTS})
    end_to_end = {
        "setup_s": (median(setup_scaled), "s"),
        "wall_s": (sum(typical.values()), "s"),
    }
    if jobs:
        job_seconds = [j["seconds"] for j in jobs.values()]
        end_to_end["job_p50_s"] = (median(job_seconds), "s")
        tail = job_tail(job_seconds)
        if tail is not None:
            value, rank, n = tail
            end_to_end["job_tail_s"] = (value, "s", f"rank {rank} of {n}, p{100 * rank / n:.0f}")
        end_to_end["cells_total"] = (first.counts["cells_total"], "count")
    end_to_end["fail_rate"] = (ledger.failed / ledger.attempted, "1")
    end_to_end["host_factor"] = (median(p.factor for p in untraced), "1")

    per_layer = {}
    if trace:
        setup_counts = inputs.counts if tower else Counter()
        per_layer = layer_metrics(setup_tracers, setup_counts, traced, untraced)

    spans = [{"phase": f"setup{i}", "spans": t.records()}
             for i, (t, _) in enumerate(setup_tracers)]
    spans += [{"phase": f"pass{i}", "spans": t.records()} for i, (_, t) in enumerate(traced)]
    passes = {"setups": len(setup_times), "untraced": len(untraced), "traced": len(traced),
              "setup_measured_s": setup_times, "setup_scaled_s": setup_scaled,
              "pass_factors": [p.factor for p in untraced],
              "units_measured_s": [p.units for p in untraced],
              "units_scaled_s": [p.scaled for p in untraced]}
    return Report(params, ledger.attempted, ledger.failed, ledger.errors,
                  end_to_end, per_layer, jobs, checked, passes, spans if trace else [])


LAYER_TIMES = {
    "localization.localize_s": ("localization.localize",),
    "localization.quotient_s": ("localization.quotient",),
    "equivalence.check_s": ("equivalence.check",),
    "transform.carry_over_s": ("transform.carry_over",),
    "transform.isolate_s": ("transform.isolate",),
    "context.synthesize_s": ("context.synthesize",),
    "automata.plant_product_s": ("automata.sync_product", "automata.reachable_trim"),
    "context.build_context_s": ("context.build_context",),
    "cmt.gen_s": ("cmt.gen",),
    "automata.reorder_s": ("automata.reorder",),
}
LAYER_COUNTS = (
    "localization.merges",
    "transform.evictions",
    "equivalence.failures",
    "automata.plant_states",
    "context.sup_states",
    "context.sup_transitions",
)


def scaled_totals(tracer: Tracer, factor: float) -> tuple:
    """Seconds and calls per span name, self seconds per module and the
    number of spans, with times divided by the host factor."""
    seconds, calls = name_totals(tracer.spans)
    own = module_self_times(tracer.spans)
    return ({k: v / factor for k, v in seconds.items()}, calls,
            {k: v / factor for k, v in own.items()}, len(tracer.spans))


def layer_metrics(setup_tracers, setup_counts, traced, untraced) -> dict:
    """Per-layer figures for one set-up plus one timed pass: a time is the
    median over set-ups plus the median over traced passes, each scaled by
    the median probe of its set-up or pass."""
    phases = [
        [scaled_totals(t, factor) for t, factor in setup_tracers],
        [scaled_totals(t, p.factor) for p, t in traced],
    ]

    def both(pick):
        return sum(median([pick(*entry) for entry in phase]) for phase in phases)

    def both_count(pick):  # the same in every set-up and every pass
        return int(both(pick))

    metrics = {}
    for metric, names in LAYER_TIMES.items():
        seconds = both(lambda sec, calls, own, n: sum(sec.get(x, 0.0) for x in names))
        metrics[metric] = (seconds, "s")
    pass_counts = traced[0][0].counts
    counts = {key: setup_counts[key] + pass_counts[key] for key in LAYER_COUNTS}
    counts["transform.retained"] = pass_counts["transform.retained"]
    metrics["localization.localize_calls"] = (
        both_count(lambda sec, calls, own, n: calls.get("localization.localize", 0)), "count")
    metrics["localization.merges"] = (counts["localization.merges"], "count")
    localize_s = metrics["localization.localize_s"][0]
    metrics["localization.merges_per_s"] = (
        counts["localization.merges"] / localize_s if localize_s else 0.0, "1/s")
    metrics["equivalence.checks"] = (
        both_count(lambda sec, calls, own, n: calls.get("equivalence.check", 0)), "count")
    metrics["equivalence.failures"] = (counts["equivalence.failures"], "count")
    metrics["transform.evictions"] = (counts["transform.evictions"], "count")
    retained = counts["transform.retained"]
    metrics["transform.kept_ratio"] = (
        (retained - counts["transform.evictions"]) / retained if retained else 0.0, "ratio")
    for key in ("automata.plant_states", "context.sup_states", "context.sup_transitions"):
        metrics[key] = (counts[key], "count")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (both(lambda sec, calls, own, n: own.get(module, 0.0)), "s")
    metrics["trace.spans"] = (both_count(lambda sec, calls, own, n: n), "count")
    metrics["trace.overhead_s"] = (
        median([sum(p.scaled.values()) for p, _ in traced])
        - median([sum(p.scaled.values()) for p in untraced]), "s")
    return metrics
