"""The four workloads: seeded inputs, the library call per item, and its check.

Each workload is a closed loop with one client and one item at a time.  Its
inputs come in rounds, and a round is balanced across the input classes
whose cost differs most, so a run that stops at a round boundary always
measures the same mix:

* grid: one bounds_report per (n, r) family of the grid 2 <= n <= 8,
  0 <= r <= (n-1)/2, 2 <= s <= 20 (19 families, 361 configurations).  Each
  family starts at a seeded s and steps by 7 modulo 19 from round to round,
  so 19 rounds cover the whole grid once and a few rounds spread over it.
* roots: g_value at width 1e-50 and one sign_at per (n, r) family of
  2 <= n <= 12, 2 <= s <= 100 (41 families, 4,059 configurations), with s
  chosen the same way modulo 99.
* nosymetry: one item runs nosymetry_enumerate(s, threads=1) for each
  s = 7..12, in seeded order.
* cli: the 15 command lines of the README, each a fresh ``python -m
  fatflats`` process, in seeded order.

Every check compares against ``reference`` (formulas written out again
with math.comb, and tables computed from them), never against the library.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import reference
from reference import hilbert_value, nlambda, nlambda_coeffs
from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# FATFLATS_THREADS would change the cli workload; without PYTHONDONTWRITEBYTECODE
# set-up is measured with warm bytecode caches whatever the caller's environment
REMOVED_ENV = ("FATFLATS_THREADS", "PYTHONDONTWRITEBYTECODE")


def child_env() -> dict:
    """The environment of every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_ENV}
    env["PYTHONPATH"] = "src"  # resolved against the checkout root, the children's cwd
    return env


class ItemTimeout(BaseException):
    """Raised by the alarm when an in-process item runs past its limit.

    A BaseException, so that no ``except Exception`` inside the library can
    swallow it.
    """


@contextmanager
def time_limit(seconds: float):
    def expire(_signum, _frame):
        raise ItemTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@lru_cache(maxsize=None)
def tables() -> dict:
    return reference.load()


def root_error(n: int, r: int, s: int, lo, hi, width: Fraction) -> str | None:
    """Why [lo, hi] is not an interval of width <= width around the root g."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < 1 or hi < lo or hi - lo > width:
        return f"g interval [{lo}, {hi}] is not inside [1, oo) with width <= {width}"
    if lo == hi:
        return None if nlambda(n, r, s, lo) == 0 else f"exact g = {lo} is not a root"
    if not nlambda(n, r, s, lo) < 0 <= nlambda(n, r, s, hi):
        return f"n!*lambda{(n, r, s)} does not change sign across [{lo}, {hi}]"
    return None


def families(n_max: int) -> list[tuple[int, int]]:
    return [(n, r) for n in range(2, n_max + 1) for r in range((n - 1) // 2 + 1)]


class Workload:
    name = ""
    timeout_s = 30.0
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def order(self, k: int, items: list) -> list:
        random.Random(self.seed * 100_003 + k).shuffle(items)
        return items

    def guard(self):
        return time_limit(self.timeout_s)

    def label(self, item) -> str:
        return str(item)

    def parts(self, item) -> list:
        """The calls an item makes, each timed and rescaled on its own."""
        return [item]

    def join(self, outputs: list):
        """The item's output from its parts' outputs."""
        return outputs[0]

    def certified(self, output):
        return None


class _FamilySweep(Workload):
    """One item per (n, r) family per round; s walks a seeded stride."""

    n_max = 0
    s_values = range(0)
    stride = 7

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.offsets = {f: rng.randrange(len(self.s_values)) for f in families(self.n_max)}

    def round_items(self, k: int) -> list:
        size = len(self.s_values)
        items = [
            (n, r, self.s_values[(offset + self.stride * k) % size])
            for (n, r), offset in self.offsets.items()
        ]
        return self.order(k, items)


class Grid(_FamilySweep):
    name = "grid"
    n_max = 8
    s_values = reference.GRID_S
    trace_rounds = 2
    WIDTH = Fraction(1, 10**12)  # bounds_report's default precision

    def execute(self, item):
        import fatflats

        return fatflats.bounds_report(*item)

    def certified(self, report) -> bool:
        return report.e_certified

    def check(self, item, report) -> str | None:
        n, r, s = item
        if (report.n, report.r, report.s) != item:
            return "report is for another configuration"
        e = Fraction(report.e)
        t, m = report.e_witness.t, report.e_witness.m
        if not t >= m >= 1 or Fraction(t, m) != e:
            return f"witness (t={t}, m={m}) does not realize e = {e}"
        if hilbert_value(n, r, s, m, t) <= 0:
            return f"witness (t={t}, m={m}) has no positive Hilbert value"
        error = root_error(n, r, s, report.g.lo, report.g.hi, self.WIDTH)
        if error:
            return error
        below = nlambda(n, r, s, e) <= 0
        if report.e_below_g != below:
            return f"e_below_g={report.e_below_g} but n!*lambda(e) {'<=' if below else '>'} 0"
        if report.e_certified:
            if not below:
                return f"certified e = {e} lies above g"
            if e != Fraction(*tables()["grid_e"][item]):
                return f"certified e = {e} differs from the reference scan"
        elif item in tables()["grid_certified"]:
            return "e lost the certificate it had at the baseline"
        return None


class Roots(_FamilySweep):
    name = "roots"
    n_max = 12
    s_values = range(2, 101)
    WIDTH = Fraction(1, 10**50)

    def execute(self, item):
        import fatflats

        n, r, s = item
        g = fatflats.g_value(n, r, s, self.WIDTH)
        return g, fatflats.sign_at(g, fatflats.lambda_poly(n, r, s + 1))

    def check(self, item, output) -> str | None:
        g, sign = output
        error = root_error(*item, g.lo, g.hi, self.WIDTH)
        if error:
            return error
        # lambda(n, r, s+1) = lambda(n, r, s) - (positive correction)/n! on [1, oo)
        if sign != -1:
            return f"sign_at(g, lambda(s+1)) = {sign}, expected -1"
        return None


class Nosymetry(Workload):
    """One item is the whole finite verification, s = 7..12 in seeded order.

    Per-s items would put the median on the gap between the cheap s = 10..12
    and the dearer s = 8, 9, so one slow sample would move it by a third.
    Each s is a part of the item, so the host's speed is sampled between
    them rather than only around the whole sweep.
    """

    name = "nosymetry"

    def round_items(self, k: int) -> list:
        return [tuple(self.order(k, list(reference.NOSYMETRY_S)))]

    def parts(self, sweep) -> list:
        return list(sweep)

    def join(self, reports: list) -> list:
        return reports

    def execute(self, s):
        import fatflats

        return fatflats.nosymetry_enumerate(s, threads=1)

    def check(self, sweep, reports) -> str | None:
        for s, report in zip(sweep, reports, strict=True):
            if report.s != s:
                return f"report for s={report.s} in place of s={s}"
            if report.violations:
                return f"s={s}: {len(report.violations)} violations"
            want = tables()["nosymetry"][s]
            got = {key: getattr(report, key) for key in want}
            if got != want:
                return f"s={s}: counts {got} differ from the reference {want}"
        return None


# ---- the cli workload -------------------------------------------------------

_TOKEN = re.compile(r"(?<![\w.\-/])(-?\d+(?:/\d+|\.\d+)?)(?![\w.])")


def tokens(text: str) -> list[tuple[bool, Fraction]]:
    """The numbers in a text, in order: (exact, value); decimals are inexact."""
    return [("." not in tok, Fraction(tok)) for tok in _TOKEN.findall(text)]


def _same(got: tuple[bool, Fraction], want: tuple[bool, Fraction]) -> bool:
    if got[0] and want[0]:
        return got[1] == want[1]
    return abs(got[1] - want[1]) <= Fraction(1, 10**8) * max(1, abs(want[1]))


def _decimal(q: Fraction) -> str:
    return f"{q.numerator / q.denominator:.12f}"


def _g_mid(n: int, r: int, s: int) -> Fraction:
    lo, hi = reference.root_bracket(n, r, s, Fraction(1, 10**20))
    return (lo + hi) / 2


def _text(expected, *words):
    """Check that the output's numbers are ``expected``'s and the words appear."""

    def check(out: str) -> str | None:
        want, got = tokens(expected()), tokens(out)
        if len(got) != len(want) or not all(map(_same, got, want)):
            return f"values {[str(v) for _, v in got]} != expected {[str(v) for _, v in want]}"
        missing = [w for w in words if w not in out]
        return f"missing {missing}" if missing else None

    return check


def _exact(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an exact value")
    return Fraction(value)


def _check_lambda_json(out: str) -> str | None:
    data = json.loads(out)
    want = nlambda_coeffs(3, 1, 6)  # already primitive with positive leading term
    if [_exact(c) for c in data["defining"]] != want:
        return f"defining polynomial {data['defining']} != {want}"
    lo, hi = (_exact(v) for v in data["interval"])
    error = root_error(3, 1, 6, lo, hi, Fraction(1, 10**6))
    if error:
        return error
    if abs(Fraction(data["decimal"]) - lo) > Fraction(1, 10**6):
        return f"decimal {data['decimal']} is outside the interval"
    return None


def _check_e_json(out: str) -> str | None:
    data = json.loads(out)
    t, m = tables()["grid_e"][(3, 1, 6)]
    got = (_exact(data["e"]), data["certified"], data["witness"])
    want = (Fraction(t, m), True, {"t": t, "m": m, "value": hilbert_value(3, 1, 6, m, t)})
    return None if got == want else f"(e, certified, witness) = {got}, expected {want}"


def _expected_mults_value() -> int:
    return comb(15, 3) - reference.condition_count(3, 1, 4, 12) - 5 * reference.condition_count(3, 1, 3, 12)


def _alpha_lines(n: int, s: int) -> int:
    t = 1
    while comb(n + t, n) - s * (t + 1) <= 0:
        t += 1
    return t


def _nosymetry_line(s: int) -> str:
    row = tables()["nosymetry"][s]
    return f"{s} {_decimal(_g_mid(3, 1, s))} {row['d_cap']} {row['sum_cap']} {row['cases_checked']} 0"


@dataclass(frozen=True)
class Command:
    line: str  # as in the README, after "fatflats"
    check: object  # stdout -> error message or None

    @property
    def argv(self) -> list[str]:
        return self.line.replace('"', "").split()


CLI_COMMANDS = [
    Command(
        "conditions 3 1 4 5 --oracle",
        _text(lambda: f"(3,1,4,5) {reference.condition_count(3, 1, 4, 5)} {reference.condition_count(3, 1, 4, 5)}", "match"),
    ),
    Command("hilbert 3 1 6 7 --at 27", _text(lambda: f"27 {hilbert_value(3, 1, 6, 7, 27)}")),
    Command("hilbert 3 1 --mults 4,3,3,3,3,3 --at 12", _text(lambda: f"12 {_expected_mults_value()}")),
    Command("lambda 3 1 6 --g --prec 1e-6 --json", _check_lambda_json),
    Command("e 3 1 6 --certify --json", _check_e_json),
    Command(
        "bounds 3 0 4",
        _text(lambda: f"4/3 {Fraction(*tables()['grid_e'][(3, 0, 4)])} {_decimal(_g_mid(3, 0, 4))}", "(certified)"),
    ),
    Command("gamma-points 3 4", _text(lambda: "(3, 4) 4/3")),  # 1 + 1/n for n + 1 points
    Command("alpha lines 3 6", _text(lambda: str(_alpha_lines(3, 6)))),
    # each step is the standard transform on four points: c = 2d - (sum of their m)
    Command(
        'cremona --dim 3 --system "12;7,7,7,7,7,7" --reduce',
        _text(
            lambda: "12;7,7,7,7,7,7 1 [0,1,2,3] -4 8;3,3,3,3,7,7 2 [0,1,4,5] -4 "
            "4;-1,-1,3,3,3,3 4;0,0,3,3,3,3",
            "nonempty",
        ),
    ),
    Command(
        'cremona --dim 3 --system "4;3,3,3,3" --witness',
        _text(lambda: "[0,1,2] [0,1,3] [0,2,3] [1,2,3]", "witness"),
    ),
    Command(
        "intersections 5 2 2 --check",
        _text(lambda: "^5 " + " ".join(map(str, nlambda_coeffs(5, 2, 2))), "holds"),
    ),
    Command("verify nosymetry 7", _text(lambda: _nosymetry_line(7))),
    Command("verify appendix e-3-1-6", _text(lambda: "27/7 27/7 48", "pass")),
    Command("verify gamma-case 3 6 --hmax 2", _text(lambda: "1 12 12/7 2 24 12/7", "overall: pass")),
    Command("verify identities --seed 42", _text(lambda: "0", "failures")),
]


class Cli(Workload):
    """One README command line per item, each in a fresh interpreter.

    With a ``traced`` Tracer, each command runs under a tracer of its own in
    the child (``worker.py cli-traced``) and its totals are absorbed here.
    """

    name = "cli"

    def __init__(self, seed: int, traced=None):
        super().__init__(seed)
        self.traced = traced

    def round_items(self, k: int) -> list:
        return self.order(k, list(CLI_COMMANDS))

    def guard(self):
        return nullcontext()  # subprocess.run enforces the limit and kills the child

    def label(self, command) -> str:
        return command.line

    def execute(self, command):
        if self.traced is None:
            argv = [sys.executable, "-m", "fatflats", *command.argv]
        else:
            argv = [sys.executable, str(HERE / "worker.py"), "cli-traced", *command.argv]
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=self.timeout_s
        )
        if self.traced is None:
            return proc.returncode, proc.stdout
        payload = json.loads(proc.stdout.splitlines()[-1])
        self.traced.absorb(payload["totals"], payload["counters"])
        return payload["rc"], payload["stdout"]

    def check(self, command, output) -> str | None:
        rc, out = output
        if rc != 0:
            return f"exit code {rc}"
        return command.check(out)


WORKLOADS = {w.name: w for w in (Grid, Roots, Nosymetry, Cli)}


# ---- the closed loop --------------------------------------------------------


@dataclass
class Record:
    round: int
    label: str
    seconds: float  # wall time
    ref_seconds: float  # the same, at the reference speed (see refclock)
    error: str | None
    certified: bool | None


def run_rounds(workload, execute, seconds: float, rounds: int | None, deadline: float, clock=None) -> list[Record]:
    """Run whole rounds, one item at a time, and check every output.

    Without ``rounds`` a new round starts while fewer than ``seconds`` have
    passed; with it, exactly that many rounds run.  No item starts after
    ``deadline`` seconds, so hanging items cannot stall the run: each one
    is stopped at the workload's time limit and counted as failed.  The
    calibration ``clock`` runs its kernel after each part of each item; an
    item's time is the sum of its parts' times, each rescaled once the run
    is over.
    """
    records, timings = [], []
    start = time.perf_counter()
    clock = clock or RefClock()

    def more(k: int) -> bool:
        if rounds is not None:
            return k < rounds
        return k == 0 or time.perf_counter() - start < seconds

    def items():
        k = 0
        while more(k):
            for item in workload.round_items(k):
                yield k, item
            k += 1

    for k, item in items():
        if time.perf_counter() - start >= deadline:
            break
        error = output = None
        timed = []  # (start, wall seconds) of each part
        try:
            with workload.guard():
                outputs = []
                for part in workload.parts(item):
                    began = time.perf_counter()
                    try:
                        outputs.append(execute(part))
                    finally:
                        timed.append((began, time.perf_counter() - began))
                        clock.tick()
                output = workload.join(outputs)
        except (ItemTimeout, subprocess.TimeoutExpired):
            error = "timeout"
        except Exception as exc:  # an item's failure is counted; the run goes on
            error = f"raised {exc!r}"
        certified = None
        if error is None:
            try:
                error = workload.check(item, output)
                certified = workload.certified(output)
            except Exception as exc:
                error = f"check raised {exc!r}"
        records.append(Record(k, workload.label(item), sum(t for _, t in timed), 0.0, error, certified))
        timings.append(timed)
    for record, timed in zip(records, timings):
        record.ref_seconds = sum(clock.ref_seconds(began, t) for began, t in timed)
    return records
