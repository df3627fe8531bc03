"""Command-line interface.

Subcommands: gen-cmt, synthesize, localize, isolate, tsl, check-equiv, bench.
Exit codes: 0 success, 1 verification failure (inequivalence, empty
synthesis, a cover that is not a congruence, benchmark gate), 2 usage or
input-format errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .automata import FormatError, _content_lines, load_automaton, save_automaton, sync_product
from .bench import BENCH_VARIANTS, EquivalenceGateError, run_bench
from .cmt import VARIANTS, CmtConfig, _animal_tags, gen_cmt
from .context import SynthesisEmptyError, agents_from_table, build_context, synthesize_monolithic
from .equivalence import check_control_equivalence
from .localization import (
    InvalidCoverError,
    build_local_supervisor,
    is_control_congruence,
    load_cover,
    localize,
    save_cover,
)
from .transform import isolate, tsl


def _load_plants(paths):
    plants = [load_automaton(p) for p in paths]
    for path, plant in zip(paths[1:], plants[1:]):
        if plant.alphabet != plants[0].alphabet:
            raise FormatError(f"--plant {path}: event table differs from the first plant's")
    return plants


def _load_over(table, flag, path):
    aut = load_automaton(path)
    if aut.alphabet != table:
        raise FormatError(f"{flag} {path}: event table differs from the plant's")
    return aut


def _load_plant_and_sup(args):
    """The reachable plant product and the supervisor, whose event table is
    checked against the plants' before any product is built."""
    plants = _load_plants(args.plant)
    sup = _load_over(plants[0].alphabet, "--sup", args.sup)
    return sync_product(plants), sup


def _cmd_gen_cmt(args) -> int:
    cfg = CmtConfig(levels=args.levels, animals=args.animals, variant=args.variant)
    system = gen_cmt(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for (tag, kind), plant in zip(_animal_tags(cfg), system.plants):
        save_automaton(plant, out / f"{kind}{tag[1:]}.aut")
    for i, req in enumerate(system.requirements):
        save_automaton(req, out / f"req_{i:03d}.aut")
    lines = []
    for spec in system.agents:
        names = " ".join(system.table.events[e] for e in sorted(spec.controllable))
        lines.append(f"agent {spec.agent_index}: {names}")
    (out / "agents.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(system.plants)} plants and {len(system.requirements)} requirements to {out}")
    return 0


def _cmd_synthesize(args) -> int:
    if args.name_components < 0:
        raise FormatError("--name-components must be at least 0")
    plants = _load_plants(args.plant)
    requirements = [_load_over(plants[0].alphabet, "--req", p) for p in args.req]
    sup = synthesize_monolithic(plants, requirements, args.name_components)
    save_automaton(sup, args.out)
    print(f"supervisor: {sup.n_states} states, {sup.n_transitions} transitions -> {args.out}")
    return 0


def _agent_range(args, table):
    if args.agent is not None:
        if not 1 <= args.agent <= table.n_agents:
            raise FormatError(f"agent {args.agent} not in 1..{table.n_agents}")
        return [args.agent]
    return list(range(1, table.n_agents + 1))


def _all_congruent(sup, ctx, covers) -> bool:
    """Whether every (agent, cover) is a control congruence; the first that
    is not is reported on stderr."""
    for k, cover in covers:
        verdict = is_control_congruence(sup, ctx, k, cover)
        if not verdict:
            print(f"verification failure: agent {k}: {verdict.witness}", file=sys.stderr)
            return False
    return True


def _save_agent(prefix, sup, k, cover, loc) -> None:
    cover_path = f"{prefix}.agent{k}.cover"
    loc_path = f"{prefix}.agent{k}.loc.aut"
    save_cover(cover, sup, cover_path)
    save_automaton(loc, loc_path)
    print(f"agent {k}: {cover.n_cells} cells -> {cover_path}, {loc_path}")


def _cmd_localize(args) -> int:
    plant, sup = _load_plant_and_sup(args)
    agents = agents_from_table(sup.alphabet)
    ctx = build_context(plant, sup, agents)
    prefix = args.out_prefix or Path(args.sup).stem
    covers = {k: localize(sup, ctx, k) for k in _agent_range(args, sup.alphabet)}
    if not _all_congruent(sup, ctx, covers.items()):
        return 1
    for k, cover in covers.items():
        _save_agent(prefix, sup, k, cover, build_local_supervisor(sup, cover, k))
    return 0


def _cmd_isolate(args) -> int:
    base_sup = load_automaton(args.base_sup)
    plant, sup = _load_plant_and_sup(args)
    (agent,) = _agent_range(args, sup.alphabet)
    base_cover = load_cover(args.base_cover, base_sup)
    agents = agents_from_table(sup.alphabet)
    ctx = build_context(plant, sup, agents)
    cover = isolate(base_cover, base_sup, sup, ctx, agent)
    if not _all_congruent(sup, ctx, [(agent, cover)]):
        return 1
    save_cover(cover, sup, args.out)
    print(f"agent {agent}: {cover.n_cells} cells -> {args.out}")
    return 0


def _parse_mapping(path, n_variant: int, n_base: int) -> tuple[int, ...]:
    entries = {}
    for lineno, line in _content_lines(Path(path).read_text(encoding="utf-8")):
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError("mapping line needs: <variant-agent> <base-agent-or-0>", lineno)
        try:
            k, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError("mapping entries must be integers", lineno) from None
        if not 1 <= k <= n_variant:
            raise FormatError(f"variant agent {k} not in 1..{n_variant}", lineno)
        if k in entries:
            raise FormatError(f"variant agent {k} mapped twice", lineno)
        if not 0 <= b <= n_base:
            raise FormatError(f"base agent {b} not in 0..{n_base}", lineno)
        entries[k] = b
    return tuple(entries.get(k, 0) for k in range(1, n_variant + 1))


def _cmd_tsl(args) -> int:
    base_sup = load_automaton(args.base_sup)
    plant, sup = _load_plant_and_sup(args)
    base_covers = [load_cover(p, base_sup) for p in args.base_cover]
    agents = agents_from_table(sup.alphabet)
    if args.mapping:
        mapping = _parse_mapping(args.mapping, len(agents), len(base_covers))
    else:
        mapping = tuple(k if k <= len(base_covers) else 0 for k in range(1, len(agents) + 1))
    ctx = build_context(plant, sup, agents)
    supervisors, covers = tsl(base_covers, base_sup, sup, ctx, mapping)
    if not _all_congruent(sup, ctx, zip((spec.agent_index for spec in agents), covers)):
        return 1
    prefix = args.out_prefix or Path(args.sup).stem
    for spec, loc, cover in zip(agents, supervisors, covers):
        _save_agent(prefix, sup, spec.agent_index, cover, loc)
    return 0


def _cmd_check_equiv(args) -> int:
    plants = _load_plants(args.plant)
    table = plants[0].alphabet
    sup = _load_over(table, "--sup", args.sup)
    locs = [_load_over(table, "--loc", path) for path in args.loc]
    plant = sync_product(plants)
    verdict = check_control_equivalence(plant, sup, locs)
    if verdict:
        print("EQUIVALENT")
        return 0
    print("NOT EQUIVALENT")
    print(f"property: {verdict.failed}")
    print(f"direction: {verdict.direction}")
    print("trace: " + (" ".join(verdict.counterexample) if verdict.counterexample else "<empty>"))
    return 1


def _cmd_bench(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("DES_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise FormatError(f"DES_SEED must be an integer, got {env_seed!r}") from None
    outputs = {flag: getattr(args, flag) for flag in ("csv", "md", "json") if getattr(args, flag)}
    for flag, path in outputs.items():
        if not Path(path).parent.is_dir():
            raise FormatError(f"--{flag} {path}: directory does not exist")
    report = run_bench(
        variants=BENCH_VARIANTS if args.variant == "all" else args.variant.split(","),
        levels=args.levels,
        animals=args.animals,
        runs=args.runs,
        seed=seed,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    print(report.to_markdown())
    print(f"overall mean change: {report.overall_pct_change:+.0f}%")
    render = {"csv": report.to_csv, "md": report.to_markdown, "json": report.to_json}
    for flag, path in outputs.items():
        Path(path).write_text(render[flag](), encoding="utf-8")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suploc",
        description="Supervisor localization for discrete-event systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cmt", help="generate cat-and-mouse-tower model files")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--animals", type=int, default=1)
    p.add_argument("--variant", choices=VARIANTS, default="base")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_cmt)

    p = sub.add_parser("synthesize", help="synthesize a monolithic supervisor")
    p.add_argument("--plant", action="append", required=True, help="plant file (repeatable)")
    p.add_argument("--req", action="append", default=[], help="requirement file (repeatable)")
    p.add_argument("--name-components", type=int, default=0,
                   help="name each state by its first this many components, plants "
                        "then requirements; 0 keeps all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("localize", help="compute local supervisors from scratch")
    p.add_argument("--plant", action="append", required=True)
    p.add_argument("--sup", required=True)
    p.add_argument("--agent", type=int, default=None, help="agent index; default all agents")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("isolate", help="carry a base cover to a variant and isolate conflicts")
    p.add_argument("--base-cover", required=True)
    p.add_argument("--base-sup", required=True)
    p.add_argument("--plant", action="append", required=True, help="variant plant file")
    p.add_argument("--sup", required=True, help="variant supervisor file")
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_isolate)

    p = sub.add_parser("tsl", help="transformational localization of a variant system")
    p.add_argument("--base-cover", action="append", required=True,
                   help="base cover files in base-agent order (repeatable)")
    p.add_argument("--base-sup", required=True)
    p.add_argument("--plant", action="append", required=True, help="variant plant file")
    p.add_argument("--sup", required=True, help="variant supervisor file")
    p.add_argument("--mapping", default=None,
                   help="file with '<variant-agent> <base-agent-or-0>' lines; default identity")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=_cmd_tsl)

    p = sub.add_parser("check-equiv", help="verify control equivalence of local supervisors")
    p.add_argument("--plant", action="append", required=True)
    p.add_argument("--sup", required=True)
    p.add_argument("--loc", action="append", required=True, help="local supervisor file (repeatable)")
    p.set_defaults(func=_cmd_check_equiv)

    p = sub.add_parser("bench", help="run the SL versus TSL benchmark")
    p.add_argument("--variant", default="all", help="comma-separated variants or 'all'")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--animals", type=int, default=1)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="overridden by env var DES_SEED")
    p.add_argument("--csv", default=None, help="write per-run rows to this CSV file")
    p.add_argument("--md", default=None, help="write the aggregate table to this file")
    p.add_argument("--json", default=None,
                   help="write the environment, protocol and per-agent spreads to this file")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidCoverError, SynthesisEmptyError, EquivalenceGateError) as exc:
        # First: InvalidCoverError is a ValueError, raised only on covers suploc made.
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
