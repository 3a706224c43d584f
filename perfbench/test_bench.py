"""Tests of the benchmark itself: its checks must catch corrupted outputs.

    python3 -m unittest discover -s perfbench -p "test_bench.py"

One output per workload is corrupted the way a plausible defect would
corrupt it, and the item must be counted as failed; an item that hangs
must be stopped and counted without stalling the loop.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fatflats  # noqa: E402
import reference  # noqa: E402
import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, run_rounds  # noqa: E402


def run_items(workload, items, corrupt=lambda output: output):
    """Records of one round holding exactly ``items``, each part's output passed through ``corrupt``."""
    workload.round_items = lambda k: list(items)
    return run_rounds(workload, lambda item: corrupt(workload.execute(item)), 0, 1, 60)


def errors(records):
    return [r.error for r in records]


class CorruptedOutputs(unittest.TestCase):
    def test_grid_flipped_e_certified(self):
        grid = workloads.Grid(0)
        certified, above_g = (3, 0, 4), (4, 1, 10)  # certified at the baseline; e above g
        self.assertEqual(errors(run_items(grid, [certified, above_g])), [None, None])

        def flip(report):
            return dataclasses.replace(report, e_certified=not report.e_certified)

        flipped = errors(run_items(grid, [certified, above_g], flip))
        self.assertIn("lost the certificate", flipped[0])
        self.assertIn("lies above g", flipped[1])

    def test_roots_shifted_g_interval(self):
        roots = workloads.Roots(0)
        self.assertEqual(errors(run_items(roots, [(3, 1, 6)])), [None])

        def shift(output):
            g, sign = output
            width = g.hi - g.lo
            return dataclasses.replace(g, lo=g.lo + 2 * width, hi=g.hi + 2 * width), sign

        [error] = errors(run_items(roots, [(3, 1, 6)], shift))
        self.assertIn("does not change sign", error)

    def test_nosymetry_off_by_one_count(self):
        nosymetry = workloads.Nosymetry(0)
        sweep = (9, 8)
        self.assertEqual(errors(run_items(nosymetry, [sweep])), [None])

        def off_by_one(report):
            if report.s != 9:
                return report
            return dataclasses.replace(report, pairs_checked=report.pairs_checked + 1)

        [error] = errors(run_items(nosymetry, [sweep], off_by_one))
        self.assertIn("s=9: counts", error)

    def test_cli_changed_value(self):
        cli = workloads.Cli(0)
        command = next(c for c in workloads.CLI_COMMANDS if c.line == "alpha lines 3 6")
        self.assertEqual(errors(run_items(cli, [command])), [None])

        def change(output):
            rc, out = output
            return rc, out.replace("4", "5")

        [error] = errors(run_items(cli, [command], change))
        self.assertIn("!= expected", error)

    def test_cli_values_are_compared_after_parsing(self):
        # the planned canonical-JSON fix prints integers as ints: same values
        [bounds] = [c for c in workloads.CLI_COMMANDS if c.line.startswith("e 3 1 6")]
        out = '{"e":"27/7","witness":{"t":27,"m":7,"value":28},"certified":true,"certificate":{}}'
        self.assertIsNone(bounds.check(out.replace('"27/7"', '"54/14"')))
        self.assertIsNotNone(bounds.check(out.replace('"27/7"', '"27/8"')))


class Timeouts(unittest.TestCase):
    def test_hanging_item_is_counted_and_the_loop_goes_on(self):
        roots = workloads.Roots(0)
        roots.timeout_s = 1.0

        def execute(item):
            if item == "hang":  # precision 0 never terminates today
                return fatflats.g_value(3, 1, 6, Fraction(0))
            return roots.execute(item)

        roots.round_items = lambda k: ["hang", (3, 1, 6)]
        began = time.perf_counter()
        records = run_rounds(roots, execute, 0, 1, 60)
        self.assertLess(time.perf_counter() - began, 10)
        self.assertEqual(errors(records), ["timeout", None])

    def test_hanging_cli_command_is_killed(self):
        cli = workloads.Cli(0)
        cli.timeout_s = 2.0
        hang = Command("lambda 3 1 6 --g --prec 0", lambda out: None)
        self.assertEqual(errors(run_items(cli, [hang])), ["timeout"])


class Tracing(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        trace = tracer.Tracer()
        inner = trace.wrap("inner", lambda: time.sleep(0.03))

        def outer_body(depth):
            time.sleep(0.02)
            inner()
            if depth:
                outer(depth - 1)

        outer = trace.wrap("outer", outer_body)
        trace.item(outer)(1)
        calls, total, own = trace.totals["outer"]
        self.assertEqual(calls, 2)
        self.assertAlmostEqual(total, 0.10, delta=0.03)  # the recursive call is inside the first
        self.assertAlmostEqual(own, 0.04, delta=0.02)
        self.assertEqual(trace.totals["inner"][0], 2)
        self.assertAlmostEqual(trace.totals["inner"][2], 0.06, delta=0.02)

    def test_install_rebinds_every_alias_and_uninstall_restores(self):
        original = fatflats.roots.count_roots_in
        trace = tracer.Tracer()
        undo = tracer.install(trace)
        try:
            self.assertIsNot(fatflats.count_roots_in, original)
            self.assertIs(fatflats.count_roots_in, fatflats.roots.count_roots_in)
            self.assertIs(fatflats.waldschmidt.count_roots_in, fatflats.roots.count_roots_in)
            trace.item(fatflats.g_value)(3, 1, 6)
        finally:
            tracer.uninstall(undo)
        self.assertIs(fatflats.roots.count_roots_in, original)
        self.assertIs(fatflats.waldschmidt.count_roots_in, original)
        self.assertEqual(trace.missing, [])
        self.assertGreater(trace.totals["polynomials.eval"][0], 0)
        self.assertGreater(trace.totals["roots.count_roots_in"][0], 0)
        self.assertEqual(trace.totals["asymptotic.g_value"][0], 1)


class ReferenceClock(unittest.TestCase):
    def test_intervals_are_rescaled_by_the_kernels_near_them(self):
        ref = refclock.REF_KERNEL_S
        clock = refclock.RefClock()
        # the host ran the kernel at half speed, then at full speed
        clock.kernels = [(0.0, 2 * ref), (0.1, 2 * ref), (10.0, ref), (10.1, ref), (20.0, ref)]
        self.assertAlmostEqual(clock.ref_seconds(0.01, 0.08), 0.04)
        self.assertAlmostEqual(clock.ref_seconds(10.01, 0.08), 0.08)
        # the kernels on either side of a slow stretch are averaged
        self.assertAlmostEqual(clock.ref_seconds(0.1, 9.9), 9.9 * 4 / 6)

    def test_records_carry_both_clocks(self):
        [record] = run_items(workloads.Roots(0), [(3, 1, 6)])
        self.assertGreater(record.seconds, 0)
        self.assertGreater(record.ref_seconds, 0)


class ReferenceTables(unittest.TestCase):
    def test_tables_match_the_formulas(self):
        tables = reference.load()
        self.assertEqual(len(tables["grid_e"]), 361)
        self.assertEqual(len(tables["grid_certified"]), 66)
        for key in [(2, 0, 2), (3, 1, 6), (5, 2, 7), (8, 3, 20)]:
            self.assertEqual(tables["grid_e"][key], reference.e_scan(*key))
        for s in range(8, 13):
            self.assertEqual(tables["nosymetry"][s], reference.nosymetry_row(s))
        self.assertEqual(
            (tables["nosymetry"][7]["cases_checked"], tables["nosymetry"][7]["pairs_checked"]), (4149, 16969)
        )


if __name__ == "__main__":
    unittest.main()
