"""fatflats benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is taken from ``src``.  With
``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` is the
median, over 21 fresh processes, of the time from process start
until fatflats is imported and the inputs are made; between them, one more
process runs whole rounds of the workload until ``--seconds`` have passed.
Every gated time is at the reference speed of ``refclock``, which cancels
the host's speed drift; the wall-clock figures are printed beside them.
With ``--trace 1`` the same rounds run twice in fresh processes, plain and
under the span tracer, for the per-layer metrics and the tracing overhead.
``--rounds N`` runs exactly N rounds instead, starting none after
2 * seconds + 20: ``--rounds 19 --seconds 60`` on grid runs the whole
361-configuration grid once.

Every output is checked; an item that raises, times out or fails its
check counts in ``failed``.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refclock
from refclock import RefClock
from workloads import REMOVED_ENV, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BUDGET_S = 170  # every process this run starts is gone before this

# set-up-only processes, half before and half after the measured loop so the
# samples span the run
SETUP_SAMPLES = 21
PROBES = 5
TAIL_PERCENTILE = 90
TRACE_SECONDS = 10  # a traced pass runs fixed rounds; none of its items starts after 40 s

TRACED_SPANS = {  # per-layer metric -> (span, field of [calls, total_s, self_s])
    "polynomials.eval.calls": ("polynomials.eval", 0),
    "polynomials.eval.self_s": ("polynomials.eval", 2),
    "polynomials.poly_divmod.calls": ("polynomials.poly_divmod", 0),
    "polynomials.poly_divmod.self_s": ("polynomials.poly_divmod", 2),
    "roots.sturm_chain.calls": ("roots.sturm_chain", 0),
    "roots.count_roots_in.calls": ("roots.count_roots_in", 0),
    "roots.count_roots_in.self_s": ("roots.count_roots_in", 2),
    "roots.isolate_largest_root.total_s": ("roots.isolate_largest_root", 1),
    "roots.refine.calls": ("roots.refine", 0),
    "roots.sign_at.calls": ("roots.sign_at", 0),
    "roots.sign_at.total_s": ("roots.sign_at", 1),
    "hilbert.conditions_count.calls": ("hilbert.conditions_count", 0),
    "hilbert.conditions_count.self_s": ("hilbert.conditions_count", 2),
    "hilbert.hilbert_poly_symbolic.calls": ("hilbert.hilbert_poly_symbolic", 0),
    "hilbert.hilbert_poly_symbolic.total_s": ("hilbert.hilbert_poly_symbolic", 1),
    "asymptotic.lambda_poly.calls": ("asymptotic.lambda_poly", 0),
    "asymptotic.lambda_poly.total_s": ("asymptotic.lambda_poly", 1),
    "asymptotic.g_value.total_s": ("asymptotic.g_value", 1),
    "waldschmidt.e_empirical.self_s": ("waldschmidt.e_empirical", 2),
    "waldschmidt.e_empirical.total_s": ("waldschmidt.e_empirical", 1),
    "waldschmidt.e_certify.total_s": ("waldschmidt.e_certify", 1),
    "waldschmidt.bounds_report.total_s": ("waldschmidt.bounds_report", 1),
    "verifier.nosymetry_enumerate.self_s": ("verifier.nosymetry_enumerate", 2),
    "verifier.nosymetry_bounds.total_s": ("verifier.nosymetry_bounds", 1),
}

IMPORT_PROBE = (
    "import sys, time; before = len(sys.modules); start = time.perf_counter(); "
    "import fatflats.cli; print(time.perf_counter() - start, len(sys.modules) - before)"
)


def unit(name: str) -> str:
    if name.endswith("calls") or name.endswith("_checked") or name.endswith("modules"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


class Runner:
    def __init__(self):
        self.env = child_env()
        self.start = time.perf_counter()

    def left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.start)

    def spawn(self, argv: list[str]) -> tuple[float, list[str], int]:
        """Run a child; returns (seconds until it printed READY, its stdout lines, exit code).

        A watchdog kills the child if the run's budget runs out.
        """
        began = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(self.left(), 1), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - began
            lines = [first] + proc.stdout.readlines()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return ready, [line.rstrip("\n") for line in lines], proc.returncode

    def worker(self, *args) -> tuple[float, list[str]]:
        ready, lines, rc = self.spawn([sys.executable, str(WORKER), *map(str, args)])
        if rc != 0 or not lines or lines[0] != "READY":
            raise RuntimeError(f"worker {' '.join(map(str, args))} failed with exit code {rc}")
        return ready, lines[1:]

    def setup_s(self, workload: str, seed: int, samples: int) -> list[tuple[float, float]]:
        """(wall, reference) seconds until READY of ``samples`` set-up-only processes."""
        clock = RefClock.for_processes()
        timed = []
        for _ in range(samples):
            began = time.perf_counter()
            timed.append((began, self.worker("setup", workload, seed)[0]))
            clock.tick()
        return [(ready, clock.ref_seconds(began, ready)) for began, ready in timed]

    def measure(self, workload: str, seed: int, seconds: float, rounds: int, traced: bool) -> dict:
        return json.loads(self.worker("run", workload, seed, seconds, rounds, int(traced))[1][-1])

    def probes(self) -> dict:
        bare, imports, modules = [], [], set()
        for _ in range(PROBES):
            began = time.perf_counter()
            self.spawn([sys.executable, "-c", "pass"])
            bare.append(time.perf_counter() - began)
            _, lines, rc = self.spawn([sys.executable, "-c", IMPORT_PROBE])
            if rc != 0:
                raise RuntimeError("importing fatflats.cli failed")
            seconds, count = lines[-1].split()
            imports.append(float(seconds))
            modules.add(int(count))
        return {
            "cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports),
            "cli.import_modules": max(modules),
        }


def context(runner: Runner, cpu: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_to_cpu": cpu,
        "child_env": {
            "PYTHONPATH": runner.env["PYTHONPATH"],
            "removed": list(REMOVED_ENV),
            **{k: v for k, v in runner.env.items() if k.startswith("PYTHON") and k != "PYTHONPATH"},
        },
        "src_lines": {
            p.name: len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "fatflats").glob("*.py"))
        },
    }


def tail(ms: list[float]) -> tuple[float, int]:
    """(value, samples beyond it) at the nearest-rank 90th percentile.

    A fixed percentile, not "ten samples beyond": rounds hold a fixed mix,
    so p90 stays inside one class of items however many rounds a run holds,
    while the rank ten from the top moves across classes as speed changes.
    """
    ordered = sorted(ms)
    index = math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1
    return ordered[index], len(ordered) - 1 - index


# a worker's record: [round, label, wall s, reference s, error, certified]
WALL, REF, ERROR, CERTIFIED = 2, 3, 4, 5


def failures(records: list) -> list:
    return [r for r in records if r[ERROR] is not None]


def round_rates(records: list, field: int) -> list[float]:
    """Items per busy second of each whole round; every round holds the same mix."""
    rounds: dict[int, list[float]] = {}
    for r in records:
        rounds.setdefault(r[0], []).append(r[field])
    return [len(times) / sum(times) for times in rounds.values()]


def end_to_end(runner: Runner, args) -> tuple[dict, list, list[str]]:
    runner.setup_s(args.workload, args.seed, 1)  # untimed: leaves the bytecode caches warm
    setups = runner.setup_s(args.workload, args.seed, SETUP_SAMPLES // 2)
    result = runner.measure(args.workload, args.seed, args.seconds, args.rounds, False)
    setups += runner.setup_s(args.workload, args.seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    records = result["records"]
    wall_ms, ref_ms = ([r[field] * 1000 for r in records] for field in (WALL, REF))
    tail_ms, beyond = tail(ref_ms)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "ref_items_per_s": (statistics.median(round_rates(records, REF)), "1/s"),
        "ref_item_ms_p50": (statistics.median(ref_ms), "ms"),
        "ref_item_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    failed = len(failures(records))
    notes = [
        f"setup_s: median of {len(setups)} fresh processes; wall {statistics.median(w for w, _ in setups):.4f} s",
        f"ref_items_per_s: median over {len({r[0] for r in records})} rounds; {len(records)} items "
        f"in {sum(ref_ms) / 1000:.3f} s busy (wall {sum(wall_ms) / 1000:.3f} s)",
        f"ref_item_ms_tail: p{TAIL_PERCENTILE} of {len(records)} items, {beyond} beyond it",
        f"wall clock: items_per_s {statistics.median(round_rates(records, WALL)):.6g}, "
        f"item_ms_p50 {statistics.median(wall_ms):.6g}, item_ms_tail {tail(wall_ms)[0]:.6g}",
        f"host speed: {result['speed']:.3f} of the reference (from the median kernel time)",
        f"failed_share: {failed}/{len(records)} = {failed / len(records):.4f}",
    ]
    if args.workload == "grid":
        certified = sum(1 for r in records if r[CERTIFIED])
        notes.append(f"certified_share: {certified}/{len(records)} = {certified / len(records):.4f}")
    return metrics, records, notes


def per_layer(runner: Runner, args) -> tuple[dict, list, list[str]]:
    rounds = args.rounds or WORKLOADS[args.workload].trace_rounds
    metrics = {name: (value, unit(name)) for name, value in runner.probes().items()}
    plain = runner.measure(args.workload, args.seed, TRACE_SECONDS, rounds, False)
    traced = runner.measure(args.workload, args.seed, TRACE_SECONDS, rounds, True)
    totals, counters = traced["totals"], traced["counters"]
    for name, (span, field) in TRACED_SPANS.items():
        metrics[name] = (totals.get(span, [0, 0.0, 0.0])[field], unit(name))
    attempts = totals.get("waldschmidt.e_certify", [0])[0]
    metrics["waldschmidt.e_certify.success_ratio"] = (
        counters.get("e_certify.returned", 0) / attempts if attempts else 0.0,
        "ratio",
    )
    for name in ("verifier.cases_checked", "verifier.pairs_checked"):
        metrics[name] = (counters.get(name, 0), "count")
    busy = [sum(r[REF] for r in run["records"]) for run in (plain, traced)]
    metrics["trace.overhead_ratio"] = (busy[1] / busy[0], "ratio")
    records = plain["records"] + traced["records"]
    item = totals.get("item", [0, 0.0, 0.0])
    notes = [
        f"traced rounds: {rounds} ({len(traced['records'])} items), plain {busy[0]:.3f} s, "
        f"traced {busy[1]:.3f} s at the reference speed",
        f"untraced self time of the items (benchmark and untraced library code): {item[2]:.3f} s of {item[1]:.3f} s",
    ]
    if traced.get("missing"):
        notes.append(f"functions not found, reported as 0: {', '.join(traced['missing'])}")
    return metrics, records, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    args = parser.parse_args()
    if not (ROOT / "src" / "fatflats" / "__init__.py").is_file():
        print(f"no fatflats sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = refclock.pin()
    runner = Runner()
    try:
        metrics, records, notes = (per_layer if args.trace else end_to_end)(runner, args)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    failed = failures(records)
    print(f"fatflats benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("context " + json.dumps(context(runner, cpu), sort_keys=True))
    for name, (value, unit_name) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit_name}")
    for note in notes:
        print(f"  # {note}")
    for record in failed[:10]:
        print(f"  FAILED {record[1]}: {record[ERROR]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
