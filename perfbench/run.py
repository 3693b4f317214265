"""Closed-loop benchmark of the transopt CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs seeded CLI commands one after another (the next starts when
the previous exits) as `python -m transopt.cli` with the checkout's `src` on
the path, for S seconds.  Every output is checked afterwards against
references computed at set-up without transopt (see check.py); any mismatch
counts as a failed command.

--trace 0 reports the end-to-end metrics: ops_per_s (commands per second of
loop wall time), op_s_p50 (the median over command kinds of each kind's
median wall time per command), peak_rss_mib (highest ru_maxrss of any child,
from os.wait4) and setup_s (median of several set-ups: instance generation,
references, instance files).  error_rate and certified_ratio are printed as
text lines, since they read 0 on some workloads; the failures are also in the
result's `failed` count.

--trace 1 runs each command untraced and then through traced_cli.py, which
records spans around transopt's layer functions, and reports per-command
means of the per-layer metrics plus trace.overhead_s, the traced minus the
untraced wall time per command.

The last line of standard output is the JSON result.  Without the program's
sources in the checkout the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from check import Verdict, check_output, reference
from spans import layer_metrics
from workloads import HELD_OUT_SEED, WORKLOADS, make_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

SETUP_REPEATS = 3
# Every run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 160.0


class Child(NamedTuple):
    code: int
    out: str
    err: str
    wall: float
    maxrss_kib: int


class Run:
    """State of one benchmark run: its work directory, child environment
    and the deadline that bounds every child."""

    def __init__(self, workdir: Path, seconds: int) -> None:
        self.workdir = workdir
        self.started = perf_counter()
        self.seconds = seconds
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))

    def command(self, argv: list[str]) -> Child:
        """Run one child to completion.  A child still running when the run's
        budget is spent is killed, and its exit code reads -9."""
        remaining = RUN_BUDGET_S - (perf_counter() - self.started)
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT
            )
            watchdog = threading.Timer(max(remaining, 1.0), proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                watchdog.cancel()
            wall = perf_counter() - start
        return Child(
            proc.returncode,
            out.decode("utf-8", "replace"),
            err_path.read_text("utf-8", "replace").strip(),
            wall,
            usage.ru_maxrss,
        )


def set_up(workload: str, seed: int, workdir: Path):
    """Seeded instances, their references, and their files on disk."""
    pool = make_pool(workload, seed)
    refs = [reference(inst) for inst in pool]
    paths = []
    for k, inst in enumerate(pool):
        path = workdir / f"instance_{k}.txt"
        path.write_text(inst.text(), encoding="utf-8")
        paths.append(str(path))
    return pool, refs, paths


def cli_argv(argv: tuple[str, ...], path: str) -> list[str]:
    return [argv[0], path, *argv[1:]]


def schedule(pool, paths, block: int):
    """Blocks of (instance, kind, argv) in run order: `block` consecutive
    instances' commands at a time, cycling through the pool."""
    k = 0
    while True:
        yield [
            (index, kind, cli_argv(argv, paths[index]))
            for index in ((k + b) % len(pool) for b in range(block))
            for kind, argv in pool[index].commands
        ]
        k += block


def summarise(verdicts: list[Verdict]) -> dict:
    certs = [v.certified for v in verdicts if v.certified is not None]
    failed = [v for v in verdicts if not v.ok]
    return {
        "attempted": len(verdicts),
        "failed": len(failed),
        "reasons": sorted({v.reason for v in failed}),
        "certified_ratio": sum(certs) / len(certs) if certs else None,
        "certificates": len(certs),
        "false_uncertified": sum(v.false_uncertified for v in verdicts),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90 that leaves at least ten samples beyond it."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def measure(run: Run, workload: str, seed: int, trace: bool) -> tuple[dict, dict, list[str]]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pool, refs, paths = set_up(workload, seed, run.workdir)
        setup_times.append(perf_counter() - start)

    py = [sys.executable, "-m", "transopt.cli"]
    # Untimed warm-up: fills the bytecode and file caches.  The first
    # instance's last command is the cheapest (the nw solve on monge_nw).
    _, warm_argv = pool[0].commands[-1]
    run.command(py + cli_argv(warm_argv, paths[0]))

    timed: list[tuple[int, str, Child]] = []
    traced: list[tuple[int, str, Child]] = []
    span_lists = []
    spans_path = run.workdir / "spans.json"
    deadline = perf_counter() + run.seconds
    loop_start = perf_counter()
    for commands in schedule(pool, paths, WORKLOADS[workload].block):
        if perf_counter() >= deadline:
            break
        for index, kind, argv in commands:
            timed.append((index, kind, run.command(py + argv)))
            if trace:
                spans_path.unlink(missing_ok=True)
                command = [sys.executable, str(TRACED_CLI), str(spans_path), str(len(traced))]
                traced.append((index, kind, run.command(command + argv)))
                if spans_path.exists():
                    span_lists.append(json.loads(spans_path.read_text(encoding="utf-8")))
    loop_wall = perf_counter() - loop_start

    verdicts = []
    for index, kind, child in timed + traced:
        verdict = check_output(pool[index], refs[index], kind, child.code, child.out)
        if not verdict.ok and child.err:
            verdict = replace(verdict, reason=f"{verdict.reason}; stderr: {child.err[-300:]}")
        verdicts.append(verdict)
    summary = summarise(verdicts)

    walls = [child.wall for _, _, child in timed]
    lines = [f"setup runs: {len(setup_times)}, command samples: {len(walls)}"]
    kind_p50 = []
    for kind in sorted({kind for _, kind, _ in timed}):
        times = [child.wall for _, k, child in timed if k == kind]
        kind_p50.append(statistics.median(times))
        lines.append(f"op_s p50 of {kind}: {kind_p50[-1]:.4f} s ({len(times)} samples)")
    if trace:
        metrics = layer_metrics(span_lists)
        metrics["trace.overhead_s"] = statistics.fmean(
            t.wall - u.wall for (_, _, t), (_, _, u) in zip(traced, timed)
        )
        metrics["cli.output_bytes"] = statistics.fmean(len(t.out.encode()) for _, _, t in traced)
        metrics["cli.certified_ratio"] = summary["certified_ratio"] or 0.0
    else:
        metrics = {
            "ops_per_s": len(walls) / loop_wall,
            # The median of each command kind's median.  On monge_nw half the
            # commands are check-monge, so a median over all commands would
            # sit between the two kinds and move with their extreme samples.
            "op_s_p50": statistics.median(kind_p50),
            "peak_rss_mib": max(child.maxrss_kib for _, _, child in timed) / 1024,
            "setup_s": statistics.median(setup_times),
        }
        tail = tail_percentile(walls)
        lines.append(
            f"op_s tail: p{tail[0]} = {tail[1]:.4f} s"
            if tail
            else f"op_s tail: none (needs 100 samples, have {len(walls)})"
        )
    return metrics, summary, lines


E2E_METRICS = {"ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
# per-layer metrics measured by this file rather than from spans
TRACE_EXTRA_METRICS = ("trace.overhead_s", "cli.output_bytes", "cli.certified_ratio")


def unit_of(name: str) -> str:
    if name in E2E_METRICS:
        return E2E_METRICS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "transopt" / "cli.py").is_file():
        print(f"error: no transopt sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, summary, lines = measure(
            Run(workdir, args.seconds), args.workload, args.seed, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    workload = WORKLOADS[args.workload]
    print(f"workload: {workload.name}: {workload.why}")
    print(
        f"seed: {args.seed} (held-out seed: {HELD_OUT_SEED}); python "
        f"{platform.python_version()}; nproc {len(os.sched_getaffinity(0))}; "
        f"closed loop, 1 client, {args.seconds} s"
    )
    print(*lines, sep="\n")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"error_rate = {failed / attempted:.4f} ratio ({failed}/{attempted})")
    ratio = summary["certified_ratio"]
    print(
        f"certified_ratio = {'n/a' if ratio is None else f'{ratio:.4f} ratio'} "
        f"({summary['certificates']} certificates; optimal but reported "
        f"not verified: {summary['false_uncertified']})"
    )
    for reason in summary["reasons"]:
        print(f"failure: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
