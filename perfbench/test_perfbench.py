"""Tests for the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import suploc
from perfbench import run as run_module
from perfbench import workloads
from perfbench.tracer import Span, Tracer, module_self_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {
    "sl": workloads.Params("sl", 2, 1, workloads.VARIANTS, 1),
    "tsl": workloads.Params("tsl", 2, 1, workloads.VARIANTS, 1),
}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("bench.pass", 0.0, 10.0, None, None),
        Span("localization.localize", 1.0, 4.0, 0, "o0/v1"),
        Span("equivalence.check", 3.0, 6.0, 0, "o0/v1"),  # overlaps its sibling by 1
        Span("transform.isolate", 7.0, 8.0, 0, "o0/v2"),
        Span("automata.reorder", 2.0, 3.0, 1, "o0/v1"),
        Span("context.build_context", 9.5, 11.0, 0, "o0/v2"),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 3.0, 1.0, 1.0, 1.5])
    assert module_self_times(spans) == pytest.approx({
        "bench": 3.5, "localization": 2.0, "equivalence": 3.0, "transform": 1.0,
        "automata": 1.0, "context": 1.5,
    })


def test_tracer_records_parents_and_system_ids():
    tracer = Tracer(True)
    tracer.system = "o0/v1"
    with tracer.span("bench.system"):
        assert tracer.call("cmt.gen", lambda a, b=0: a + b, 1, b=2) == 3
    tracer.system = "o0/v2"
    tracer.call("cmt.gen", int)
    names = [(s.name, s.parent, s.system) for s in tracer.spans]
    assert names == [("bench.system", None, "o0/v1"), ("cmt.gen", 0, "o0/v1"),
                     ("cmt.gen", None, "o0/v2")]
    assert all(s.start <= s.end for s in tracer.spans)

    off = Tracer(False)
    with off.span("bench.system"):
        assert off.call("cmt.gen", int, "5") == 5
    assert off.spans == []


def test_meter_scales_each_unit_by_the_probes_around_it(monkeypatch):
    probes = iter([1.0, 3.0, 2.0, 2.0])
    monkeypatch.setattr(workloads, "probe", lambda: next(probes))
    clock = iter([0.0, 4.0, 4.0, 4.0, 4.0, 10.0, 10.0, 10.0, 10.0, 12.0, 12.0, 12.0])
    monkeypatch.setattr(workloads, "perf_counter", lambda: next(clock))
    meter = workloads.Meter()
    assert meter.time("a", int, "7") == 7
    meter.time("b", int)
    meter.time("b", int)
    assert meter.measured == {"a": 4.0, "b": 8.0}
    # a: 4 s between probes 1 and 3; b: 6 s between 3 and 2, then 2 s between 2 and 2.
    assert meter.scaled == pytest.approx({"a": 2.0, "b": 6 / 2.5 + 1.0})
    assert meter.probes == [1.0, 3.0, 2.0, 2.0]


def test_meter_probes_during_a_unit_and_leaves_the_probes_out():
    meter = workloads.Meter()

    def busy(seconds):
        end = workloads.perf_counter() + seconds
        while workloads.perf_counter() < end:
            pass

    meter.time("busy", busy, 0.35)
    assert len(meter.probes) >= 4  # before, at least two within, after
    assert meter.measured["busy"] < 0.35
    assert meter.scaled["busy"] > 0


def test_job_tail_keeps_ten_samples_beyond():
    assert workloads.job_tail(range(40)) == (29, 30, 40)
    assert workloads.job_tail(range(20)) == (9, 10, 20)
    assert workloads.job_tail(range(10)) is None


def counts_of(report):
    layer_counts = {k: v for k, (v, unit) in report.per_layer.items() if unit == "count"}
    cells = {key: job["cells"] for key, job in report.jobs.items()}
    return report.end_to_end.get("cells_total"), cells, layer_counts


@pytest.mark.parametrize("kind", ["sl", "tsl"])
def test_tiny_tower_counts_repeat_at_one_seed(kind):
    first = workloads.run(kind, 3, 0, True, TINY[kind])
    second = workloads.run(kind, 3, 0, True, TINY[kind])
    assert first.failed == 0 and second.failed == 0
    assert first.attempted == second.attempted
    assert counts_of(first) == counts_of(second)


def test_seed_changes_the_inputs():
    def inputs(seed):
        built = workloads.setup_tower(TINY["sl"], seed, Tracer(False))
        return [s.sup.states for s in built.systems]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_tiny_synthesis_counts_repeat_across_seeds():
    synth = workloads.Params("synth", 2, 1)
    one = workloads.run("synth", 1, 0, True, synth)
    two = workloads.run("synth", 2, 0, True, synth)
    assert one.failed == 0 and two.failed == 0
    assert counts_of(one)[2] == counts_of(two)[2]
    assert one.per_layer["context.sup_states"][0] > 0


def test_a_raising_job_is_counted_and_the_run_goes_on(monkeypatch):
    real = workloads.localize

    def flaky(sup, ctx, agent, *rest):
        if agent == 2:
            raise RuntimeError("injected")
        return real(sup, ctx, agent, *rest)

    monkeypatch.setattr(workloads, "localize", flaky)
    report = workloads.run("sl", 1, 0, False, TINY["sl"])
    # 5 systems of 2 jobs and a gate, and the repeat check: the agent-2 job
    # and the gate fail in each system.
    assert report.failed == 10
    assert report.attempted == 16
    assert any("injected" in e for e in report.errors)
    assert report.end_to_end["fail_rate"][0] == pytest.approx(10 / 16)


def test_a_cover_that_is_not_a_congruence_fails_the_gate(monkeypatch):
    def one_cell(sup, ctx, agent, *rest):
        return suploc.Cover([0] * sup.n_states)

    monkeypatch.setattr(workloads, "localize", one_cell)
    report = workloads.run("sl", 1, 0, False, TINY["sl"])
    assert report.failed > 0
    assert any("not a control congruence" in e for e in report.errors)


def harness_files():
    return sorted(p for p in HERE.glob("*.py") if not p.name.startswith(("test_", "conftest")))


REMOVED_BY_ROADMAP = {"check_merge", "WaitList", "enabled_sorted", "language_upto",
                      "marked_language_upto"}


def test_harness_uses_only_public_names_that_stay():
    for path in harness_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("suploc"):
                assert node.module == "suploc", f"{path.name} imports from {node.module}"
                for alias in node.names:
                    assert alias.name in suploc.__all__, f"{path.name}: {alias.name}"
                    assert not alias.name.startswith("_")
                    assert alias.name not in REMOVED_BY_ROADMAP
            if isinstance(node, ast.Import):
                assert all(a.name == "suploc" or not a.name.startswith("suploc")
                           for a in node.names)
            if isinstance(node, ast.Attribute):
                assert node.attr not in REMOVED_BY_ROADMAP, f"{path.name}: .{node.attr}"
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                assert own or not node.attr.startswith("_") or node.attr.startswith("__"), \
                    f"{path.name}: .{node.attr}"
            if isinstance(node, ast.keyword):
                assert node.arg != "timing", f"{path.name} passes timing="


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run_module.END_TO_END)
    report = workloads.run("tsl", 1, 0, True, TINY["tsl"])
    printed = list(report.per_layer) + ["env.calib_s", "env.host_factor"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(printed)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(HERE / "reference.json", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower4-sl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
