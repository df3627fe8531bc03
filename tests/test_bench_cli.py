"""Benchmark harness schema and determinism, and the command-line interface."""

import csv
import gc
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import suploc

from suploc.automata import apply_state_order, write_automaton
from suploc.bench import (
    BENCH_VARIANTS,
    CSV_COLUMNS,
    GATE_COLUMNS,
    JSON_COLUMNS,
    TIMED_COLUMNS,
    BenchReport,
    EquivalenceGateError,
    _git_commit,
    _prepare,
    _variant_order,
    run_bench,
)
from suploc.cli import main
from suploc.cmt import CmtConfig, gen_cmt, synthesize_cmt
from suploc.context import build_context
from suploc.equivalence import EquivalenceVerdict
from suploc.localization import localize
from suploc.rng import SplitMix64
from suploc.transform import carry_over_cover, isolate, tsl

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def small_report():
    # two-level tower keeps this quick; one run, all variants
    return run_bench(levels=2, runs=1, seed=9)


def test_report_schema_and_arithmetic(small_report):
    text = small_report.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 5 * 2  # five variants, two agents, one run
    for row in rows:
        tsl = float(row["tsl_seconds"])
        parts = float(row["isolate_seconds"]) + float(row["init_localize_seconds"])
        assert abs(tsl - parts) < 2e-6  # columns are rounded to microseconds
        assert int(row["cells_isolated"]) >= int(row["cells_initial_guess"])
    for agg in small_report.aggregates:
        assert abs(agg.tsl_seconds - (agg.isolate_seconds + agg.init_localize_seconds)) < 1e-9
        want = (agg.tsl_seconds - agg.sl_seconds) / agg.sl_seconds * 100.0
        assert abs(agg.pct_change - want) < 1e-9


def test_report_cells_are_the_library_covers(small_report):
    # small_report's ordered systems, drawn from seed 9 as run_bench draws run 1
    rng = SplitMix64(9)
    base = _prepare(CmtConfig(levels=2, animals=1, variant="base"))
    base_sup = apply_state_order(base.sup, rng.permutation(base.sup.n_states))
    base_ctx = build_context(base.plant, base_sup, base.system.agents)
    agents = range(1, base.system.table.n_agents + 1)
    base_covers = [localize(base_sup, base_ctx, k) for k in agents]
    rows = {(r.variant, r.agent): r for r in small_report.rows}
    assert len(rows) == len(BENCH_VARIANTS) * len(agents)
    for v in BENCH_VARIANTS:
        item = _prepare(CmtConfig(levels=2, animals=1, variant=v))
        sup = apply_state_order(item.sup, _variant_order(base_sup, item.sup, rng))
        ctx = build_context(item.plant, sup, item.system.agents)
        _, covers = tsl(base_covers, base_sup, sup, ctx, list(agents))
        for k, cover in zip(agents, covers):
            base_cover, row = base_covers[k - 1], rows[v, k]
            assert row.cells_sl == localize(sup, ctx, k).n_cells
            assert row.cells_initial_guess == carry_over_cover(base_cover, base_sup, sup).n_cells
            assert row.cells_isolated == isolate(base_cover, base_sup, sup, ctx, k).n_cells
            assert row.cells_tsl == cover.n_cells


def test_report_json_schema(small_report):
    doc = json.loads(small_report.to_json())
    assert set(doc) == {"environment", "protocol", "results", "gates"}
    assert doc["environment"] == {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }
    assert doc["protocol"] == {
        "seed": 9,
        "runs": 1,
        "levels": 2,
        "animals": 1,
        "variants": ["v1", "v2", "v3", "v4", "v5"],
    }
    assert JSON_COLUMNS == (
        "sl_seconds", "isolate_seconds", "init_localize_seconds", "tsl_seconds",
        "cells_sl", "cells_initial_guess", "cells_isolated", "cells_tsl",
    )
    results = doc["results"]
    assert [(e["variant"], e["agent"]) for e in results] == [
        (a.variant, a.agent) for a in small_report.aggregates
    ]
    for entry in results:
        assert set(entry) == {"variant", "agent", *JSON_COLUMNS, "gen2_collections"}
        rows = [
            r for r in small_report.rows
            if (r.variant, r.agent) == (entry["variant"], entry["agent"])
        ]
        for column in JSON_COLUMNS:
            values = [getattr(r, column) for r in rows]
            assert entry[column] == {
                "median": statistics.median(values), "min": min(values), "max": max(values),
            }
        assert entry["gen2_collections"] == {
            column: sum(r.gen2_collections[i] for r in rows)
            for i, column in enumerate(TIMED_COLUMNS)
        }
    # one gate per (variant, side), each run timing the quotients, then the check
    assert GATE_COLUMNS == ("quotient_seconds", "check_seconds")
    sides = ("from-scratch", "transformational")
    assert [(e["variant"], e["side"]) for e in doc["gates"]] == [
        (v, side) for v in ("v1", "v2", "v3", "v4", "v5") for side in sides
    ]
    assert len(small_report.gates) == 5 * 2
    for entry, gate in zip(doc["gates"], small_report.gates):
        assert set(entry) == {"variant", "side", *GATE_COLUMNS}
        assert (gate.variant, gate.side, gate.run) == (entry["variant"], entry["side"], 1)
        for column in GATE_COLUMNS:
            value = getattr(gate, column)
            assert value > 0
            assert entry[column] == {"median": value, "min": value, "max": value}


def test_report_json_spreads_over_runs():
    report = run_bench(variants=("v4",), levels=2, runs=3, seed=5)
    doc = json.loads(report.to_json())
    assert doc["protocol"]["runs"] == 3 and doc["protocol"]["variants"] == ["v4"]
    for entry in doc["results"]:
        times = sorted(
            r.sl_seconds for r in report.rows if r.agent == entry["agent"]
        )
        assert entry["sl_seconds"] == {"median": times[1], "min": times[0], "max": times[2]}
    assert [e["side"] for e in doc["gates"]] == ["from-scratch", "transformational"]
    for entry in doc["gates"]:
        for column in GATE_COLUMNS:
            times = sorted(getattr(g, column) for g in report.gates if g.side == entry["side"])
            assert entry[column] == {"median": times[1], "min": times[0], "max": times[2]}


def test_report_json_names_the_commit_or_null(tmp_path):
    # in this tree: the checked-out commit, marked dirty when tracked files
    # differ from it
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(suploc.__file__).parent, capture_output=True,
            text=True,
        )
    except OSError:  # no git to run
        head = None
    commit = _git_commit()
    if head is not None and head.returncode == 0:
        assert commit in (head.stdout.strip(), head.stdout.strip() + "-dirty")
    else:
        assert commit is None
    # a copy of the package outside any git tree, run from there: null
    shutil.copytree(Path(suploc.__file__).parent, tmp_path / "suploc")
    script = (
        "import json; from suploc.bench import BenchReport; "
        "print(json.loads(BenchReport((), (), 1, 1, 2, 1, (), ()).to_json())"
        "['environment']['commit'])"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "GIT_CEILING_DIRECTORIES": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"
    assert BenchReport((), (), 1, 1, 2, 1, (), ()).to_json()


def test_markdown_table_contains_all_rows(small_report):
    md = small_report.to_markdown()
    lines = md.strip().splitlines()
    assert len(lines) == 2 + len(small_report.aggregates)
    assert lines[0].startswith("| variant | agent |")


def test_bench_counts_gen2_collections_per_timed_section(monkeypatch):
    # Each patched call announces 100 generation-2 starts to the collector's
    # callbacks, and as many generation-0 starts and generation-2 stops,
    # which must not count. A real collection in the run adds a few at most,
    # so a section's count divided by 100 is the number of patched calls it
    # saw. The base covers are localized outside every timed section.
    from suploc import bench

    def announce():
        for callback in list(gc.callbacks):
            for _ in range(100):
                callback("start", {"generation": 2, "collected": 0, "uncollectable": 0})
                callback("start", {"generation": 0, "collected": 0, "uncollectable": 0})
                callback("stop", {"generation": 2, "collected": 0, "uncollectable": 0})

    real_localize, real_merge, real_isolate = bench.localize, bench._merge_cells, bench._isolate

    def localize(sup, ctx, agent, init=None):
        if agent == 1:
            announce()
        return real_localize(sup, ctx, agent, init)

    # the initialized localize is the merge loop over the store
    def merge_cells(sup, ctx, agent, cells):
        if agent == 1:
            announce()
        return real_merge(sup, ctx, agent, cells)

    def isolate(*args):
        if args[3] == 2:
            announce()
        return real_isolate(*args)

    monkeypatch.setattr(bench, "localize", localize)
    monkeypatch.setattr(bench, "_merge_cells", merge_cells)
    monkeypatch.setattr(bench, "_isolate", isolate)
    callbacks = list(gc.callbacks)
    report = run_bench(variants=("v1", "v3"), levels=2, runs=2, seed=5)
    assert gc.callbacks == callbacks
    expected = {1: (1, 0, 1), 2: (0, 1, 0)}
    for row in report.rows:
        assert tuple(n // 100 for n in row.gen2_collections) == expected[row.agent]
    assert "gen2" not in report.to_csv() + report.to_markdown()
    for entry in json.loads(report.to_json())["results"]:
        totals = entry["gen2_collections"]
        assert list(totals) == list(TIMED_COLUMNS)
        assert tuple(n // 100 for n in totals.values()) == tuple(
            2 * n for n in expected[entry["agent"]]
        )
    # the callback is also removed when the run fails
    failing = EquivalenceVerdict(False, ("a",), "language", "local supervisors forbid")
    monkeypatch.setattr(bench, "check_control_equivalence", lambda *args: failing)
    with pytest.raises(EquivalenceGateError):
        run_bench(variants=("v1",), levels=2, runs=1, seed=5)
    assert gc.callbacks == callbacks


def test_base_as_variant_is_a_fixed_point():
    # unchanged system: nothing is isolated and the transformational result
    # equals the from-scratch result at the same indexing
    report = run_bench(variants=("base",), levels=2, runs=1, seed=4)
    for row in report.rows:
        assert row.cells_initial_guess == row.cells_isolated
        assert row.cells_isolated == row.cells_tsl
        assert row.cells_tsl == row.cells_sl


def test_bench_deterministic_cells_given_seed():
    a = run_bench(variants=("v1", "v4"), levels=2, runs=2, seed=31)
    b = run_bench(variants=("v1", "v4"), levels=2, runs=2, seed=31)
    key = lambda r: (r.variant, r.agent, r.run)
    for ra, rb in zip(sorted(a.rows, key=key), sorted(b.rows, key=key)):
        assert (ra.cells_sl, ra.cells_initial_guess, ra.cells_isolated, ra.cells_tsl) == (
            rb.cells_sl,
            rb.cells_initial_guess,
            rb.cells_isolated,
            rb.cells_tsl,
        )


def test_bench_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_bench(runs=0)
    with pytest.raises(ValueError, match="unknown variant 'v9'"):
        run_bench(variants=("v9",), levels=2)
    # an empty list used to localize the base system and return a report
    # whose overall_pct_change divides by zero
    with pytest.raises(ValueError, match="^no variant given$"):
        run_bench(variants=(), levels=2)
    # a repeated variant would run, print and average its rows twice
    with pytest.raises(ValueError, match="variant 'v1' given twice"):
        run_bench(variants=("v1", "v1"), levels=2, runs=1, seed=3)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_localize_writes_cover_and_local_supervisor(tmp_path):
    prefix = tmp_path / "out"
    code = run_cli(
        "localize",
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--agent", "1",
        "--out-prefix", str(prefix),
    )
    assert code == 0
    cover_text = (tmp_path / "out.agent1.cover").read_text(encoding="utf-8")
    assert cover_text == "cell 0: x0 x3 x4\ncell 1: x1 x2\n"
    from suploc.automata import load_automaton

    loc = load_automaton(tmp_path / "out.agent1.loc.aut")
    assert loc.n_states == 2


def test_cli_full_transformational_pipeline(tmp_path):
    prefix = tmp_path / "base"
    assert run_cli(
        "localize",
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(prefix),
    ) == 0
    iso_out = tmp_path / "iso.cover"
    assert run_cli(
        "isolate",
        "--base-cover", str(tmp_path / "base.agent1.cover"),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_variant_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--agent", "1",
        "--out", str(iso_out),
    ) == 0
    assert iso_out.read_text(encoding="utf-8") == "cell 0: x0\ncell 1: x1 x2\ncell 2: x3 x4\n"
    assert run_cli(
        "tsl",
        "--base-cover", str(tmp_path / "base.agent1.cover"),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_variant_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(tmp_path / "variant"),
    ) == 0
    text = (tmp_path / "variant.agent1.cover").read_text(encoding="utf-8")
    assert text == "cell 0: x0\ncell 1: x1 x2 x3 x4\n"
    assert run_cli(
        "check-equiv",
        "--plant", str(DATA / "example1_variant_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--loc", str(tmp_path / "variant.agent1.loc.aut"),
    ) == 0


def test_cli_tsl_builds_the_variant_context_once(tmp_path, monkeypatch):
    from suploc import cli, context

    calls = []

    def counted(*args):
        calls.append(args)
        return context.build_context(*args)

    monkeypatch.setattr(cli, "build_context", counted)
    base_cover = tmp_path / "base.cover"
    base_cover.write_text("cell 0: x0 x3 x4\ncell 1: x1 x2\n", encoding="utf-8")
    assert run_cli(
        "tsl",
        "--base-cover", str(base_cover),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_variant_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(tmp_path / "variant"),
    ) == 0
    assert len(calls) == 1
    text = (tmp_path / "variant.agent1.cover").read_text(encoding="utf-8")
    assert text == "cell 0: x0\ncell 1: x1 x2 x3 x4\n"


def test_cli_check_equiv_detects_mutant(tmp_path, capsys):
    # a one-state local supervisor that enables everything is too permissive
    from suploc.automata import load_automaton, save_automaton, Automaton

    sup = load_automaton(DATA / "example1.aut")
    table = sup.alphabet
    allow_all = Automaton(
        ["top"], table, [(0, e, 0) for e in range(table.n_events)], 0, [0]
    )
    mutant = tmp_path / "mutant.aut"
    save_automaton(allow_all, mutant)
    code = run_cli(
        "check-equiv",
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--loc", str(mutant),
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT EQUIVALENT" in out
    assert "trace:" in out


def test_cli_check_equiv_rejects_loc_over_other_events(tmp_path, capsys, monkeypatch):
    from suploc import cli
    from suploc.automata import Automaton, EventTable, save_automaton

    def no_product(automata):
        raise AssertionError("a product was built before the --loc files were checked")

    monkeypatch.setattr(cli, "sync_product", no_product)
    one_event = Automaton(["q"], EventTable(("z",), (True,), (1,)), [(0, 0, 0)], 0, [0])
    loc = tmp_path / "one_event.aut"
    save_automaton(one_event, loc)
    code = run_cli(
        "check-equiv",
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--loc", str(loc),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: --loc {loc}: event table differs from the plant's\n"


@pytest.mark.parametrize(
    "command, flag",
    [("check-equiv", "--sup"), ("localize", "--plant"), ("synthesize", "--req"),
     ("localize", "--sup"), ("isolate", "--sup"), ("tsl", "--sup")],
)
def test_cli_names_file_over_other_events(tmp_path, capsys, monkeypatch, command, flag):
    from suploc import cli
    from suploc.automata import Automaton, EventTable, save_automaton

    def too_early(*args):
        raise AssertionError("a product or context was built before the event tables were checked")

    for name in ["sync_product", "_synthesize", "build_context"]:
        monkeypatch.setattr(cli, name, too_early)
    one_event = Automaton(["q"], EventTable(("z",), (True,), (1,)), [(0, 0, 0)], 0, [0])
    other = tmp_path / "one_event.aut"
    save_automaton(one_event, other)
    base_cover = tmp_path / "base.cover"
    base_cover.write_text("cell 0: x0 x3 x4\ncell 1: x1 x2\n", encoding="utf-8")
    plant, sup = str(DATA / "example1_plant.aut"), str(DATA / "example1.aut")
    base = ("--base-cover", str(base_cover), "--base-sup", sup)
    out = str(tmp_path / "out")
    argv = {
        ("check-equiv", "--sup"): ("--plant", plant, "--sup", str(other), "--loc", sup),
        ("localize", "--plant"): ("--plant", plant, "--plant", str(other), "--sup", sup,
                                  "--out-prefix", out),
        ("synthesize", "--req"): ("--plant", plant, "--req", str(other), "--out", out),
        ("localize", "--sup"): ("--plant", plant, "--sup", str(other), "--out-prefix", out),
        ("isolate", "--sup"): (*base, "--plant", plant, "--sup", str(other), "--agent", "1",
                               "--out", out),
        ("tsl", "--sup"): (*base, "--plant", plant, "--sup", str(other), "--out-prefix", out),
    }[command, flag]
    reference = "the first plant's" if flag == "--plant" else "the plant's"
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} {other}: event table differs from {reference}\n"
    )
    assert set(tmp_path.iterdir()) == {other, base_cover}


def test_cli_localize_refuses_non_congruence(tmp_path, capsys, monkeypatch):
    from suploc import cli
    from suploc.localization import Cover

    # one cell for every state: example1's agent 1 needs two cells
    monkeypatch.setattr(cli, "localize", lambda sup, ctx, k: Cover([0] * sup.n_states))
    code = run_cli(
        "localize",
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("verification failure: agent 1: states ")
    assert list(tmp_path.iterdir()) == []


def test_cli_tsl_refuses_non_congruence(tmp_path, capsys, monkeypatch):
    from suploc import cli
    from suploc.localization import Cover

    # one cell for every state: example1's agent 1 needs two cells
    def one_cell(base_covers, base_sup, sup, ctx, mapping):
        return [None], [Cover([0] * sup.n_states)]

    monkeypatch.setattr(cli, "tsl", one_cell)
    base_cover = tmp_path / "base.cover"
    base_cover.write_text("cell 0: x0 x3 x4\ncell 1: x1 x2\n", encoding="utf-8")
    code = run_cli(
        "tsl",
        "--base-cover", str(base_cover),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("verification failure: agent 1: states ")
    assert list(tmp_path.iterdir()) == [base_cover]


def test_cli_tsl_exits_1_when_its_quotient_refuses_the_cover(tmp_path, capsys, monkeypatch):
    from suploc import transform
    from suploc.localization import Cover

    # {x1,x2} step to two cells on c while x3 and x4 stay apart, so tsl's
    # own quotient raises before the CLI checks the cover
    monkeypatch.setattr(
        transform,
        "_merge_cells",
        lambda sup, ctx, k, cells: Cover.from_cells([[0], [1, 2], [3], [4]], 5),
    )
    base_cover = tmp_path / "base.cover"
    base_cover.write_text("cell 0: x0 x3 x4\ncell 1: x1 x2\n", encoding="utf-8")
    code = run_cli(
        "tsl",
        "--base-cover", str(base_cover),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(tmp_path / "out"),
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "verification failure: cover is not a control congruence: "
        "cell of 'x1' steps to two cells on 'c'\n"
    )
    assert list(tmp_path.iterdir()) == [base_cover]


def test_cli_isolate_refuses_non_congruence(tmp_path, capsys, monkeypatch):
    from suploc import cli
    from suploc.localization import Cover

    # one cell for every state: example1's agent 1 needs two cells
    def one_cell(base_cover, base_sup, sup, ctx, agent):
        return Cover([0] * sup.n_states)

    monkeypatch.setattr(cli, "isolate", one_cell)
    base_cover = tmp_path / "base.cover"
    base_cover.write_text("cell 0: x0 x3 x4\ncell 1: x1 x2\n", encoding="utf-8")
    code = run_cli(
        "isolate",
        "--base-cover", str(base_cover),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--agent", "1",
        "--out", str(tmp_path / "iso.cover"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("verification failure: agent 1: states ")
    assert list(tmp_path.iterdir()) == [base_cover]


@pytest.mark.parametrize("command", ["isolate", "tsl"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("cellar: x0 x3 x4\ncell 1: x1 x2\n",
         "line 1: cover line needs: cell <id>: <state-name>..."),
        ("cell 0: x0 x3 x4\ncell 0: x1 x2\n", "line 2: duplicate cell id 0"),
    ],
)
def test_cli_rejects_malformed_cover_header(tmp_path, capsys, command, text, message):
    base_cover = tmp_path / "base.cover"
    base_cover.write_text(text, encoding="utf-8")
    argv = [
        command,
        "--base-cover", str(base_cover),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_variant_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
    ]
    if command == "isolate":
        argv += ["--agent", "1", "--out", str(tmp_path / "iso.cover")]
    else:
        argv += ["--out-prefix", str(tmp_path / "variant")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [base_cover]


def test_cli_gen_cmt_files_parse_and_synthesize(tmp_path):
    from suploc.automata import load_automaton

    for animals, want in [
        (1, ["cat.aut", "mouse.aut"]),
        (2, ["cat1.aut", "cat2.aut", "mouse1.aut", "mouse2.aut"]),
    ]:
        out = tmp_path / f"cmt{animals}"
        assert run_cli(
            "gen-cmt", "--levels", "2", "--animals", str(animals), "--variant", "base",
            "--out", str(out),
        ) == 0
        plants = sorted(p.name for p in out.glob("*.aut") if not p.name.startswith("req"))
        assert plants == want
        reqs = sorted(out.glob("req_*.aut"))
        assert len(reqs) == 10
        assert (out / "agents.txt").exists()
        sup_path = tmp_path / f"sup{animals}.aut"
        code = run_cli(
            "synthesize",
            *[arg for name in plants for arg in ("--plant", str(out / name))],
            *[arg for r in reqs for arg in ("--req", str(r))],
            "--name-components", str(2 * animals),
            "--out", str(sup_path),
        )
        assert code == 0
        sup = load_automaton(sup_path)
        assert sup.states[sup.initial] == "|".join(["L1R1"] * animals + ["L2R5"] * animals)
        # the plant files in name order are the cats, then the mice, as in gen_cmt
        system = gen_cmt(CmtConfig(2, animals, "base"))
        assert sup_path.read_text(encoding="utf-8") == write_automaton(synthesize_cmt(system))


def test_cli_gen_cmt_rejects_v4_on_one_level(tmp_path, capsys):
    code = run_cli("gen-cmt", "--levels", "1", "--variant", "v4", "--out", str(tmp_path / "d"))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: variant 'v4' removes the mice's start room L1R5 when levels is 1\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_cli_synthesize_names_states_by_component(tmp_path, capsys):
    # The plant's state names hold "|": each supervisor state is named by its
    # first k components, not by the first k "|"-separated parts of its name.
    from suploc.automata import Automaton, EventTable, load_automaton, save_automaton

    table = EventTable(("e", "f"), (True, False), (1, 1))
    plant = Automaton(["a|x", "a|y"], table, [(0, 0, 1), (1, 1, 0)], 0, [0, 1])
    one = Automaton(["r"], table, [(0, 0, 0), (0, 1, 0)], 0, [0])
    # r0 and r1 both meet each plant state, so naming by the plant repeats names
    two = Automaton(["r0", "r1"], table, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 0, [0, 1])
    for name, aut in [("plant", plant), ("one", one), ("two", two)]:
        save_automaton(aut, tmp_path / f"{name}.aut")
    out = tmp_path / "sup.aut"

    def synthesize(req, count):
        return run_cli(
            "synthesize", "--plant", str(tmp_path / "plant.aut"), "--req", str(tmp_path / req),
            "--name-components", count, "--out", str(out),
        )

    assert synthesize("one.aut", "1") == 0
    assert load_automaton(out).states == ("a|x", "a|y")
    assert synthesize("two.aut", "2") == 0
    assert load_automaton(out).states == ("a|x|r0", "a|y|r1", "a|x|r1", "a|y|r0")
    capsys.readouterr()
    out.unlink()
    assert synthesize("two.aut", "1") == 2
    assert capsys.readouterr().err == "error: state-name projection is not injective\n"
    assert not out.exists()


@pytest.mark.parametrize("count", ["-1", "-12"])
def test_cli_synthesize_rejects_negative_name_components(tmp_path, capsys, count):
    out = tmp_path / "sup.aut"
    code = run_cli(
        "synthesize",
        "--plant", str(DATA / "example1_plant.aut"),
        "--name-components", count,
        "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --name-components must be at least 0\n"
    assert not out.exists()


def test_cli_usage_error_exit_code(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("[EVENTS]\nnot enough tokens\n", encoding="utf-8")
    code = run_cli("localize", "--plant", str(bad), "--sup", str(bad))
    assert code == 2


def test_cli_isolate_rejects_agent_out_of_range(tmp_path, capsys):
    for agent in ("0", "3"):
        code = run_cli(
            "isolate",
            "--base-cover", str(tmp_path / "never-read.cover"),
            "--base-sup", str(DATA / "example1.aut"),
            "--plant", str(DATA / "example1_variant_plant.aut"),
            "--sup", str(DATA / "example1.aut"),
            "--agent", agent,
            "--out", str(tmp_path / "iso.cover"),
        )
        assert code == 2
        assert f"agent {agent} not in 1..1" in capsys.readouterr().err
    assert not (tmp_path / "iso.cover").exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        ("1 1\n5 1\n", "line 2: variant agent 5 not in 1..1"),
        ("0 1\n", "line 1: variant agent 0 not in 1..1"),
        ("1 1\n1 0\n", "line 2: variant agent 1 mapped twice"),
        ("# base agents\n1 2\n", "line 2: base agent 2 not in 0..1"),
        ("1 -1\n", "line 1: base agent -1 not in 0..1"),
    ],
)
def test_cli_tsl_rejects_bad_mapping(tmp_path, capsys, lines, message):
    base = tmp_path / "base"
    assert run_cli(
        "localize",
        "--plant", str(DATA / "example1_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--out-prefix", str(base),
    ) == 0
    mapping = tmp_path / "mapping.txt"
    mapping.write_text(lines, encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        "tsl",
        "--base-cover", str(tmp_path / "base.agent1.cover"),
        "--base-sup", str(DATA / "example1.aut"),
        "--plant", str(DATA / "example1_variant_plant.aut"),
        "--sup", str(DATA / "example1.aut"),
        "--mapping", str(mapping),
        "--out-prefix", str(tmp_path / "variant"),
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "variant.agent1.cover").exists()


def test_cli_rejects_supervisor_outside_plant(tmp_path, capsys):
    # one transition more than example1_plant.aut has: a at x3
    text = (DATA / "example1.aut").read_text(encoding="utf-8") + "x3 a x0\n"
    sup = tmp_path / "sup.aut"
    sup.write_text(text, encoding="utf-8")
    plant = str(DATA / "example1_plant.aut")
    base_cover = tmp_path / "base.cover"
    base_cover.write_text("cell 0: x0 x3 x4\ncell 1: x1 x2\n", encoding="utf-8")
    commands = [
        ("localize", "--plant", plant, "--sup", str(sup), "--out-prefix", str(tmp_path / "l")),
        ("isolate", "--base-cover", str(base_cover), "--base-sup", str(sup),
         "--plant", plant, "--sup", str(sup), "--agent", "1", "--out", str(tmp_path / "i.cover")),
        ("tsl", "--base-cover", str(base_cover), "--base-sup", str(sup),
         "--plant", plant, "--sup", str(sup), "--out-prefix", str(tmp_path / "t")),
    ]
    for argv in commands:
        assert run_cli(*argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "not a sub-behavior of the plant" in err
        assert "supervisor state 'x3' takes 'a'" in err
    assert set(tmp_path.iterdir()) == {base_cover, sup}


def test_cli_bench_writes_reports(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "rows.csv"
    md_path = tmp_path / "table.md"
    json_path = tmp_path / "bench.json"
    monkeypatch.setenv("DES_SEED", "12")
    code = run_cli(
        "bench", "--variant", "v1", "--levels", "2", "--runs", "1",
        "--seed", "99", "--csv", str(csv_path), "--md", str(md_path),
        "--json", str(json_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "| variant | agent |" in out
    assert "overall mean change:" in out
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert md_path.read_text(encoding="utf-8").startswith("| variant")
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["protocol"]["seed"] == 12 and doc["protocol"]["variants"] == ["v1"]
    assert [entry["agent"] for entry in doc["results"]] == [1, 2]
    # the environment seed must beat the flag: rerun with the same env seed
    monkeypatch.setenv("DES_SEED", "12")
    code = run_cli("bench", "--variant", "v1", "--levels", "2", "--runs", "1",
                   "--seed", "1", "--csv", str(csv_path))
    assert code == 0
    rows2 = list(csv.DictReader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
    for a, b in zip(rows, rows2):
        assert a["cells_sl"] == b["cells_sl"]
        assert a["cells_tsl"] == b["cells_tsl"]


def test_cli_bench_rejects_non_integer_des_seed(capsys, monkeypatch):
    from suploc import bench, cli

    def no_bench(*args, **kwargs):
        raise AssertionError("bench work started")

    monkeypatch.setattr(cli, "run_bench", no_bench)
    monkeypatch.setenv("DES_SEED", "abc")
    assert run_cli("bench", "--variant", "v1", "--levels", "2", "--runs", "1") == 2
    assert capsys.readouterr().err == "error: DES_SEED must be an integer, got 'abc'\n"
    # run_bench rejects a repeated variant before it prepares any system
    monkeypatch.undo()
    monkeypatch.setattr(bench, "_prepare", no_bench)
    assert run_cli("bench", "--variant", "v1,v1", "--levels", "2", "--runs", "1") == 2
    assert capsys.readouterr().err == "error: variant 'v1' given twice\n"


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "suploc.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gen-cmt" in proc.stdout and "bench" in proc.stdout


def test_python_dash_m_suploc_help():
    proc = subprocess.run(
        [sys.executable, "-m", "suploc", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: suploc ")


def test_perfbench_imports_and_call_shapes_bind():
    # perfbench's own suite is slow; this fails at once when a name it
    # imports from suploc is gone or a call it makes no longer binds
    from perfbench import workloads

    shapes = {
        workloads.isolate: (("base_cover", "base_sup", "sup", "ctx", 1), {"carried": "carried"}),
        workloads.localize: (("sup", "ctx", 1, "init"), {}),
        workloads.build_local_supervisor: (("sup", "cover", 1), {}),
        workloads.build_context: (("plant", "sup", "agents"), {}),
    }
    for func, (args, kwargs) in shapes.items():
        inspect.signature(func).bind(*args, **kwargs)
