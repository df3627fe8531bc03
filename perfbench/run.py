"""Run the suploc benchmark.

    python3 perfbench/run.py --workload tower4-tsl --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 45
    PYTHONPATH=src python -m pytest -q perfbench      # tests of the harness

One workload runs in this process; the workloads and how a run is timed are
described in ``workloads.py``. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload untraced and then traced, each in a
child process of its own so that peak memory stays per workload. The exit
code is 0 only when every output passed its check.

With ``--trace 0`` the run prints its end-to-end metrics:

* ``setup_s``: median over the set-ups;
* ``wall_s``: the timed work of one pass of the job set, each unit of work
  at its fastest over the passes;
* ``job_p50_s`` and ``job_tail_s`` (tower workloads), over the jobs, a job
  being one (system, agent) localization or relocalization; the tail is the
  highest order statistic with ten jobs above it, printed with its rank and
  the number of jobs;
* ``cells_total`` (tower workloads): states of all local supervisors;
* ``peak_rss_mb``, and ``fail_rate``: failed over attempted operations;
* ``host_factor``: the median probe of the host over the passes, 1.0 on the
  reference host.

The times among these are scaled to the reference host by probes of the
host taken between units of work (see ``workloads.py``); a shared host's
speed drifts by up to 2x in spells of tens of seconds, far more than any
bound.
Only ``setup_s``, ``wall_s`` and ``peak_rss_mb`` exist on every workload, so
only they are in the JSON line and in ``BENCHMARK.json``.

With ``--trace 1`` passes alternate untraced and traced, and the run prints
per-layer metrics. Each call into suploc runs in a span named
``<layer>.<call>``; a layer's time is its median time in one set-up plus its
median time in one traced pass, and ``<layer>.self_s`` subtracts the time of
child spans; these times are scaled by the median probe of their set-up or
pass. ``trace.overhead_s`` is the median scaled traced pass minus the median
scaled untraced pass. ``env.host_factor`` is the median probe over the
untraced passes; ``env.calib_s`` times a fixed pure-Python loop before and
after the run and scales nothing. Both show a slowed host. Layers a workload does not run report 0.

The full result, with the environment (Python, CPUs, platform, commit,
calibration), the protocol with every measured and scaled time and the
median probe of every pass, every job and every span, is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``. The suploc sources
are imported from ``src/`` next to this directory; without them the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
CALIB_LOOP = 1_000_000
CALIB_SAMPLES = 3


def calibrate() -> list[float]:
    """Time a fixed pure-Python loop, to show how fast the host runs now."""
    times = []
    for _ in range(CALIB_SAMPLES):
        t0 = perf_counter()
        total = 0
        for i in range(CALIB_LOOP):
            total += i
        times.append(perf_counter() - t0)
    return times


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fmt(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def print_table(metrics: dict) -> None:
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"{name:<32} {fmt(value):>16} {unit}{extra}")


def run_one(args, workloads) -> int:
    calib_before = calibrate()
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    calib_after = calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = dict(report.end_to_end)
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MB")
    per_layer = dict(report.per_layer)
    if args.trace:
        per_layer["env.calib_s"] = (statistics.median(calib_before + calib_after), "s")
        per_layer["env.host_factor"] = report.end_to_end["host_factor"]
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
    }
    protocol = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": asdict(report.params),
        "protocol_seed": workloads.PROTOCOL_SEED,
        "passes": report.passes,
    }

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# protocol " + " ".join(f"{k}={v}" for k, v in protocol.items()))
    if args.trace:
        print_table(per_layer)
    else:
        print_table(end_to_end)
    print(f"# {report.failed} of {report.attempted} operations failed")
    for error in report.errors:
        print(f"perfbench: {error}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as f:
        json.dump({
            "env": env,
            "protocol": protocol,
            "end_to_end": {k: list(v) for k, v in end_to_end.items()},
            "per_layer": {k: list(v) for k, v in per_layer.items()},
            "attempted": report.attempted,
            "failed": report.failed,
            "errors": report.errors,
            "jobs": report.jobs,
            "checked": report.checked,
            "trace": report.spans,
        }, f)

    chosen = per_layer if args.trace else {k: end_to_end[k] for k in END_TO_END}
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in chosen.items()},
    }))
    return 0 if report.failed == 0 else 1


def run_all(args, workloads) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            code = subprocess.run(cmd, check=False).returncode
            if code != 0:
                print(f"perfbench: {name} trace={trace} exited with {code}", file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "suploc" / "__init__.py").is_file():
        print(f"perfbench: no suploc sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import suploc
    from perfbench import workloads

    if Path(suploc.__file__).resolve().parent != SRC / "suploc":
        print(f"perfbench: suploc was imported from {suploc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected all or one of {', '.join(workloads.WORKLOADS)}")
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
