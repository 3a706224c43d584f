"""Child process of the benchmark; ``run.py`` starts it and reads its stdout.

    worker.py setup WORKLOAD SEED          import fatflats, make the inputs, print READY
    worker.py run WORKLOAD SEED SECONDS ROUNDS TRACED
                                           the same, then run the loop and print one
                                           JSON line (ROUNDS 0: run for SECONDS); no
                                           item starts after 2 * SECONDS + 20
    worker.py cli-traced ARGS...           run one CLI command in-process under the
                                           tracer; print its exit code, stdout and
                                           layer totals as one JSON line

fatflats is imported from the checkout's ``src`` (run.py puts it on
PYTHONPATH), and anything else is refused.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_library():
    import fatflats

    if SRC not in Path(fatflats.__file__).resolve().parents:
        raise SystemExit(f"fatflats was imported from {fatflats.__file__}, not from {SRC}")
    return fatflats


def cli_traced(argv: list[str]) -> int:
    import contextlib
    import io
    import json

    import tracer

    import_library()
    trace = tracer.Tracer()
    tracer.install(trace)
    from fatflats import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = trace.item(cli.main)(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    print(json.dumps({"rc": rc, "stdout": out.getvalue(), "totals": trace.totals, "counters": trace.counters}))
    return 0


def run(name: str, seed: int, seconds: float, rounds: int, traced: bool, setup_only: bool) -> int:
    import_library()
    import workloads

    tracing = None
    if traced:
        import tracer

        tracing = tracer.Tracer()
    if name == "cli":
        workload = workloads.Cli(seed, tracing)
    else:
        workload = workloads.WORKLOADS[name](seed)
    workload.round_items(0)
    print("READY", flush=True)
    if setup_only:
        return 0

    import json
    import resource

    from refclock import RefClock

    execute = workload.execute
    if tracing is not None and name != "cli":
        tracer.install(tracing)
        execute = tracing.item(execute)
    clock = RefClock.for_processes() if name == "cli" else RefClock()
    records = workloads.run_rounds(workload, execute, seconds, rounds or None, 2 * seconds + 20, clock)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result = {
        "records": [[r.round, r.label, r.seconds, r.ref_seconds, r.error, r.certified] for r in records],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "speed": clock.speed(),
    }
    if tracing is not None:
        result.update(totals=tracing.totals, counters=tracing.counters, missing=tracing.missing)
    print(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "cli-traced":
        return cli_traced(args)
    if mode == "setup":
        return run(args[0], int(args[1]), 0, 0, False, True)
    if mode == "run":
        return run(args[0], int(args[1]), float(args[2]), int(args[3]), args[4] == "1", False)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
