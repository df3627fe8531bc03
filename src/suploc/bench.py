"""Benchmark harness comparing from-scratch localization against the
transformational pipeline on the cat-and-mouse-tower systems.

Protocol per run: draw one random state order for the base supervisor from a
seeded portable generator, reindex the base supervisor with it and localize
it from the singleton partition to obtain the base covers; reindex each
variant supervisor consistently (states shared with the base keep their
relative base order, new states are appended in shuffled order); then, per
agent, time from-scratch localization and the carry-over/isolate/localize
pipeline on the identically indexed variant. Every produced supervisor set
is verified control equivalent to its monolithic supervisor; a failure
aborts the benchmark because it can only mean an implementation bug.

Context-table construction is excluded from all timings (it is identical
work for both procedures), as is the equivalence gate; each gate's quotient
construction and check are timed on their own (``GateRow``) and reported
only in the JSON summary.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .automata import Automaton, apply_state_order, sync_product
from .cmt import CmtConfig, CmtSystem, VARIANTS, gen_cmt, synthesize_cmt
from .context import build_context
from .equivalence import check_control_equivalence
from .localization import Cover, _Cells, _merge_cells, build_local_supervisor, localize
from .rng import SplitMix64
from .transform import _isolate, carry_over_cover

BENCH_VARIANTS = tuple(v for v in VARIANTS if v != "base")


class EquivalenceGateError(RuntimeError):
    """A produced supervisor set failed the control-equivalence gate."""


@dataclass(frozen=True)
class BenchRow:
    variant: str
    agent: int
    run: int
    sl_seconds: float
    isolate_seconds: float
    init_localize_seconds: float
    tsl_seconds: float
    cells_sl: int
    cells_initial_guess: int
    cells_isolated: int
    cells_tsl: int
    # Per section of ``TIMED_COLUMNS``, the generation-2 garbage collections
    # that started inside it; a collection's pause counts in that section's time.
    gen2_collections: tuple[int, int, int]


@dataclass(frozen=True)
class GateRow:
    """One run's equivalence gate on one side ("from-scratch" or
    "transformational") of a variant: the time to build the quotients, then
    the time of the check."""

    variant: str
    side: str
    run: int
    quotient_seconds: float
    check_seconds: float


# The CSV columns are the row's fields before ``gen2_collections``;
# ``BenchReport.to_json`` summarizes those after the first three per
# (variant, agent), and the timed sections are the three before ``tsl_seconds``.
CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))[:-1]
JSON_COLUMNS = CSV_COLUMNS[3:]
TIMED_COLUMNS = CSV_COLUMNS[3:6]
GATE_COLUMNS = tuple(f.name for f in fields(GateRow))[3:]


@dataclass(frozen=True)
class BenchAggregate:
    """Mean values over all runs for one (variant, agent) pair."""

    variant: str
    agent: int
    sl_seconds: float
    isolate_seconds: float
    init_localize_seconds: float
    tsl_seconds: float
    pct_change: float
    cells_sl: float
    cells_initial_guess: float
    cells_isolated: float
    cells_tsl: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    runs: int
    seed: int
    levels: int
    animals: int
    variants: tuple[str, ...]
    gates: tuple[GateRow, ...]

    @property
    def aggregates(self) -> tuple[BenchAggregate, ...]:
        """The means of ``rows`` per (variant, agent), in order of first appearance."""
        aggregates = []
        for (variant, agent), sub in _groups(self.rows).items():
            means = {c: sum(getattr(r, c) for r in sub) / len(sub) for c in JSON_COLUMNS}
            sl = means["sl_seconds"]
            pct_change = (means["tsl_seconds"] - sl) / sl * 100.0
            aggregates.append(BenchAggregate(variant, agent, pct_change=pct_change, **means))
        return tuple(aggregates)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            values = [getattr(row, c) for c in CSV_COLUMNS]
            out.write(
                ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in values) + "\n"
            )
        return out.getvalue()

    def to_json(self) -> str:
        """The environment, the protocol and, per (variant, agent), the
        median, min and max over the runs of each column of ``JSON_COLUMNS``
        and, per timed column, the total over the runs of generation-2
        collections that started in that section (``gen2_collections``);
        and, per (variant, side) of the equivalence gate, the median, min
        and max over the runs of each column of ``GATE_COLUMNS``. The
        environment names the commit of the code, as :func:`_git_commit`
        finds it."""
        results = []
        for (variant, agent), sub in _groups(self.rows).items():
            entry: dict = {"variant": variant, "agent": agent, **_spreads(sub, JSON_COLUMNS)}
            entry["gen2_collections"] = dict(
                zip(TIMED_COLUMNS, map(sum, zip(*(r.gen2_collections for r in sub))))
            )
            results.append(entry)
        gates = [
            {"variant": variant, "side": side, **_spreads(sub, GATE_COLUMNS)}
            for (variant, side), sub in _groups(self.gates, "side").items()
        ]
        document = {
            "environment": {
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "commit": _git_commit(),
            },
            "protocol": {
                "seed": self.seed,
                "runs": self.runs,
                "levels": self.levels,
                "animals": self.animals,
                "variants": list(self.variants),
            },
            "results": results,
            "gates": gates,
        }
        return json.dumps(document, indent=2) + "\n"

    def to_markdown(self) -> str:
        header = (
            "| variant | agent | SL [s] | isolate [s] | init localize [s] | TSL [s] "
            "| change | cells SL | initial guess | isolated | TSL |"
        )
        rule = "|---|---|---|---|---|---|---|---|---|---|---|"
        lines = [header, rule]
        for agg in self.aggregates:
            lines.append(
                f"| {agg.variant} | {agg.agent} | {agg.sl_seconds:.3f} | "
                f"{agg.isolate_seconds:.3f} | {agg.init_localize_seconds:.3f} | "
                f"{agg.tsl_seconds:.3f} | {agg.pct_change:+.0f}% | {agg.cells_sl:.1f} | "
                f"{agg.cells_initial_guess:.1f} | {agg.cells_isolated:.1f} | {agg.cells_tsl:.1f} |"
            )
        return "\n".join(lines) + "\n"

    @property
    def overall_pct_change(self) -> float:
        return sum(a.pct_change for a in self.aggregates) / len(self.aggregates)


def _groups(rows, by: str = "agent") -> dict[tuple, list]:
    """``rows`` grouped by (variant, ``by``), in order of first appearance."""
    groups: dict[tuple, list] = {}
    for r in rows:
        groups.setdefault((r.variant, getattr(r, by)), []).append(r)
    return groups


def _spreads(rows, columns) -> dict[str, dict]:
    """Per column, the median, min and max of its values over ``rows``."""
    spreads = {}
    for column in columns:
        values = [getattr(r, column) for r in rows]
        spreads[column] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
        }
    return spreads


def _git_commit() -> str | None:
    """The commit checked out in the git tree that holds this package, with
    ``-dirty`` appended when tracked files differ from it; None when there
    is no such tree or git cannot be run."""
    here = Path(__file__).resolve().parent

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=here, capture_output=True, text=True, timeout=30
        )

    try:
        head = git("rev-parse", "--verify", "HEAD")
        if head.returncode != 0:
            return None
        clean = git("diff", "--quiet", "HEAD", "--").returncode == 0
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() + ("" if clean else "-dirty")


@dataclass(frozen=True)
class _Prepared:
    name: str
    system: CmtSystem
    plant: Automaton
    sup: Automaton


def _prepare(cfg: CmtConfig) -> _Prepared:
    system = gen_cmt(cfg)
    plant = sync_product(system.plants)
    sup = synthesize_cmt(system)
    return _Prepared(cfg.variant, system, plant, sup)


def _variant_order(base_sup: Automaton, variant_sup: Automaton, rng: SplitMix64) -> list[int]:
    """Indices for the variant supervisor: retained states sorted by their
    base index, new states appended in shuffled order."""
    base_pos = base_sup._index()
    retained = [x for x in range(variant_sup.n_states) if variant_sup.states[x] in base_pos]
    retained.sort(key=lambda x: base_pos[variant_sup.states[x]])
    added = [x for x in range(variant_sup.n_states) if variant_sup.states[x] not in base_pos]
    rng.shuffle(added)
    return retained + added


def _gen2_collections() -> int:
    """How many generation-2 collections the collector has run so far."""
    return gc.get_stats()[2]["collections"]


def run_bench(
    variants=BENCH_VARIANTS,
    levels: int = 4,
    animals: int = 1,
    runs: int = 10,
    seed: int = 1,
    log=None,
) -> BenchReport:
    """Run the full protocol and aggregate means per (variant, agent).

    Agent pipelines run one after another so wall-clock numbers are uncontaminated,
    and each run collects garbage before its timed sections. Each row counts, per
    timed section, the generation-2 collections run inside it, since their pauses
    are part of that section's time; the counts are read from the collector's
    statistics at the section boundaries. An empty variant list, a repeated variant
    or a (levels, animals, variant) that ``CmtConfig`` refuses raises ``ValueError``
    before any system is generated.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    variants = tuple(variants)
    if not variants:
        raise ValueError("no variant given")
    configs = [CmtConfig(levels=levels, animals=animals)]
    for pos, v in enumerate(variants):
        configs.append(CmtConfig(levels=levels, animals=animals, variant=v))
        if v in variants[:pos]:
            raise ValueError(f"variant {v!r} given twice")

    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    base, *prepared = map(_prepare, configs)
    say(
        f"base supervisor: {base.sup.n_states} states, {base.sup.n_transitions} transitions; "
        + ", ".join(f"{p.name}: {p.sup.n_states}/{p.sup.n_transitions}" for p in prepared)
    )

    rng = SplitMix64(seed)
    n_agents = base.system.table.n_agents
    rows: list[BenchRow] = []
    gates: list[GateRow] = []
    for run in range(1, runs + 1):
        order = rng.permutation(base.sup.n_states)
        base_sup = apply_state_order(base.sup, order)
        base_ctx = build_context(base.plant, base_sup, base.system.agents)
        base_covers = [localize(base_sup, base_ctx, k) for k in range(1, n_agents + 1)]
        gc.collect()
        for item in prepared:
            variant_sup = apply_state_order(item.sup, _variant_order(base_sup, item.sup, rng))
            ctx = build_context(item.plant, variant_sup, item.system.agents)

            covers_sl: list[Cover] = []
            covers_tsl: list[Cover] = []
            for k in range(1, n_agents + 1):
                n0, t0 = _gen2_collections(), time.perf_counter()
                cover_sl = localize(variant_sup, ctx, k)
                n1, t1 = _gen2_collections(), time.perf_counter()
                carried = carry_over_cover(base_covers[k - 1], base_sup, variant_sup)
                cover_iso, cells = _isolate(carried, variant_sup, ctx, k)
                n2, t2 = _gen2_collections(), time.perf_counter()
                cover_tsl = _merge_cells(
                    variant_sup, ctx, k, cells or _Cells(variant_sup, ctx, k, cover_iso)
                )
                n3, t3 = _gen2_collections(), time.perf_counter()
                rows.append(
                    BenchRow(
                        variant=item.name,
                        agent=k,
                        run=run,
                        sl_seconds=t1 - t0,
                        isolate_seconds=t2 - t1,
                        init_localize_seconds=t3 - t2,
                        tsl_seconds=(t2 - t1) + (t3 - t2),
                        cells_sl=cover_sl.n_cells,
                        cells_initial_guess=carried.n_cells,
                        cells_isolated=cover_iso.n_cells,
                        cells_tsl=cover_tsl.n_cells,
                        gen2_collections=(n1 - n0, n2 - n1, n3 - n2),
                    )
                )
                covers_sl.append(cover_sl)
                covers_tsl.append(cover_tsl)

            for side, covers in (("from-scratch", covers_sl), ("transformational", covers_tsl)):
                t0 = time.perf_counter()
                locs = [
                    build_local_supervisor(variant_sup, cover, k)
                    for k, cover in enumerate(covers, start=1)
                ]
                t1 = time.perf_counter()
                verdict = check_control_equivalence(item.plant, variant_sup, locs)
                t2 = time.perf_counter()
                if not verdict:
                    raise EquivalenceGateError(
                        f"{side} supervisors for {item.name} run {run} are not control "
                        f"equivalent: {verdict.direction}; trace {verdict.counterexample}"
                    )
                gates.append(GateRow(item.name, side, run, t1 - t0, t2 - t1))
            say(f"run {run}/{runs} {item.name}: ok")
    return BenchReport(tuple(rows), runs, seed, levels, animals, variants, tuple(gates))
