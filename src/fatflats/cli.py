"""Command-line front end.

Every library operation is reachable through a subcommand; results can be
emitted as human-readable text, canonical single-line JSON (--json), or
flat CSV rows (--csv).  Authoritative numeric fields are exact: integers
appear plainly and non-integer rationals as "num/den" strings, with decimal
renderings provided separately, so no floating point enters any payload and
parsing then re-serializing a JSON result is byte-identical.  Each
subcommand names its handler, and ``main`` dispatches once and prints once;
a flag the chosen mode would ignore is a usage error.

Exit codes: 0 on success or verified, 1 on verification failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import __version__
from .asymptotic import g_value, lambda_poly
from .blowup import expand_self_intersection, identity_check
from .cremona import (
    LinearSystem,
    cremona_transform,
    hyperplane_product_witness,
    reduce_system,
    verify_gamma_points_case,
)
from .hilbert import (
    alpha_expected,
    conditions_count,
    conditions_count_oracle,
    hilbert_poly_mixed,
    hilbert_poly_uniform,
)
from .polynomials import decimal_str, fraction_to_json
from .verifier import (
    identities_report,
    nosymetry_enumerate,
    replay_appendix,
    replay_ids,
)
from .waldschmidt import (
    CertificationError,
    bounds_report,
    e_certify,
    e_empirical,
    gamma_points_closed,
)


def _parse_fraction(text: str) -> Fraction:
    """Accept "1e-6", "0.001", or "1/1000000"; anything else is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit2(f"not a rational number: {text!r}") from None


def _parse_mults(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _emit(report: dict, args, text_lines: list[str]) -> None:
    """Write the report to stdout; a reader that has gone away (a closed
    pipe) is no error, so the command still returns its own status.  json
    and csv are imported here, by the forms that use them, to keep them out
    of every other command's start-up."""
    try:
        if args.json:
            import json

            print(json.dumps(report, separators=(",", ":")))
        elif args.csv:
            import csv

            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(("key", "value"))
            writer.writerows((key, str(value)) for key, value in _flatten(report))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten bytes stay buffered; with stdout on devnull the
        # flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, list):
        import json

        yield prefix.rstrip("."), json.dumps(obj, separators=(",", ":"))
    else:
        yield prefix.rstrip("."), obj


def _add_common(parser: argparse.ArgumentParser, handler) -> None:
    parser.set_defaults(handler=handler)
    form = parser.add_mutually_exclusive_group()
    form.add_argument("--json", action="store_true", help="canonical single-line JSON output")
    form.add_argument("--csv", action="store_true", help="flat CSV output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatflats",
        description="Exact invariants of unions of disjoint fat linear subspaces of projective space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conditions", help="independent conditions imposed by one fat flat")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("m", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--oracle", action="store_true", help="cross-check by monomial enumeration")
    _add_common(p, _cmd_conditions)

    p = sub.add_parser("hilbert", help="Hilbert polynomial of a union of fat flats")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int, nargs="?")
    p.add_argument("m", type=int, nargs="?")
    p.add_argument("--mults", type=str, help="comma-separated multiplicities, one per flat")
    p.add_argument("--at", type=int, help="evaluate at this degree")
    _add_common(p, _cmd_hilbert)

    p = sub.add_parser("lambda", help="scaling-limit polynomial and its largest root")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--g", action="store_true", help="isolate the largest root")
    p.add_argument("--prec", type=str, help="isolation interval width (with --g)")
    _add_common(p, _cmd_lambda)

    p = sub.add_parser("e", help="expected Waldschmidt constant by certified search")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--mmax", type=int, default=60)
    p.add_argument("--certify", action="store_true")
    _add_common(p, _cmd_e)

    p = sub.add_parser("bounds", help="the chain gamma <= e <= g for one configuration")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--mmax", type=int, default=60)
    _add_common(p, _cmd_bounds)

    p = sub.add_parser("gamma-points", help="closed-form Waldschmidt constant of general points")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    _add_common(p, _cmd_gamma_points)

    p = sub.add_parser("alpha", help="initial-degree formulas for general points and lines")
    p.add_argument("kind", choices=["points", "points2", "lines"])
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    _add_common(p, _cmd_alpha)

    p = sub.add_parser("cremona", help="linear systems and Cremona reduction")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension n")
    p.add_argument("--system", type=str, required=True, help='system as "d;m1,m2,..."')
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--transform", type=str, help="comma-separated indices of n+1 points")
    mode.add_argument("--reduce", action="store_true")
    mode.add_argument("--witness", action="store_true")
    p.add_argument("--max-steps", type=int, help="reduction step limit (with --reduce)")
    _add_common(p, _cmd_cremona)

    p = sub.add_parser("intersections", help="self-intersection expansion on the blow-up")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--check", action="store_true", help="verify the identity with the scaling limit")
    _add_common(p, _cmd_intersections)

    p = sub.add_parser("verify", help="finite verification drivers")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser("nosymetry", help="enumerate the finite region for s lines in P^3")
    v.add_argument("s", type=int)
    _add_common(v, _cmd_verify_nosymetry)

    v = vsub.add_parser("appendix", help="replay a registered worked example")
    v.add_argument("id", choices=replay_ids())
    _add_common(v, _cmd_verify_appendix)

    v = vsub.add_parser("gamma-case", help="alpha bookkeeping for s general points")
    v.add_argument("n", type=int)
    v.add_argument("s", type=int)
    v.add_argument("--hmax", type=int, default=3)
    _add_common(v, _cmd_verify_gamma_case)

    v = vsub.add_parser("identities", help="identity sweeps and seeded spot checks")
    v.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    _add_common(v, _cmd_verify_identities)

    return parser


# Each handler returns (report, text lines, exit status); main prints one of
# the three forms of the report.


def _cmd_conditions(args):
    count = conditions_count(args.n, args.r, args.m, args.t)
    report = {"n": args.n, "r": args.r, "m": args.m, "t": args.t, "count": count}
    lines = [f"conditions({args.n},{args.r},{args.m},{args.t}) = {count}"]
    if args.oracle:
        oracle = conditions_count_oracle(args.n, args.r, args.m, args.t)
        report["oracle"] = oracle
        report["match"] = oracle == count
        lines.append(f"oracle = {oracle} ({'match' if oracle == count else 'MISMATCH'})")
    return report, lines, 0 if not args.oracle or report["match"] else 1


def _cmd_hilbert(args):
    if args.mults is not None:
        if args.s is not None or args.m is not None:
            raise SystemExit2("give either s m or --mults, not both")
        mults = _parse_mults(args.mults)
        poly = hilbert_poly_mixed(args.n, args.r, mults)
        spec = {"n": args.n, "r": args.r, "mults": list(mults)}
    else:
        if args.s is None or args.m is None:
            raise SystemExit2("give s and m, or --mults")
        poly = hilbert_poly_uniform(args.n, args.r, args.s, args.m)
        spec = {"n": args.n, "r": args.r, "s": args.s, "m": args.m}
    if args.at is None:
        return {**spec, "poly": poly.to_json()}, [f"coefficients (low degree first): {poly.to_json()}"], 0
    value = fraction_to_json(poly(args.at))
    return {**spec, "t": args.at, "value": value}, [f"value at t={args.at}: {value}"], 0


def _cmd_lambda(args):
    if not args.g:
        if args.prec is not None:
            raise SystemExit2("--prec needs --g")
        lam = lambda_poly(args.n, args.r, args.s)
        report = {"n": args.n, "r": args.r, "s": args.s, "poly": lam.to_json()}
        return report, [f"coefficients (low degree first): {lam.to_json()}"], 0
    width = {} if args.prec is None else {"precision": _parse_fraction(args.prec)}
    root = g_value(args.n, args.r, args.s, **width)
    lines = [f"g({args.n},{args.r},{args.s}) = {root.decimal}"]
    if root.is_exact:
        lines.append("exact rational root")
    return root.to_json(), lines, 0


def _cmd_e(args):
    witness = e_empirical(args.n, args.r, args.s, args.mmax)
    report = {
        "e": fraction_to_json(witness.ratio),
        "witness": {"t": witness.t, "m": witness.m, "value": witness.value},
    }
    lines = [f"e({args.n},{args.r},{args.s}) = {fraction_to_json(witness.ratio)} at (t={witness.t}, m={witness.m})"]
    code = 0
    if args.certify:
        try:
            cert = e_certify(args.n, args.r, args.s, witness.ratio)
            report["certified"] = True
            report["certificate"] = cert.to_json()
            lines.append(f"certified: m_threshold={cert.m_threshold}, pairs checked={cert.pairs_checked}")
        except CertificationError as err:
            report["certified"] = False
            report["failure"] = {"step": err.step, "detail": err.detail}
            lines.append(f"certification failed at step {err.step}: {err.detail}")
            code = 1
    return report, lines, code


def _cmd_bounds(args):
    report = bounds_report(args.n, args.r, args.s, args.mmax)
    gamma_text = "unknown"
    if report.gamma is not None:
        tag = "" if report.gamma.exact else " (upper bound only)"
        gamma_text = f"{fraction_to_json(report.gamma.value)}{tag}"
    lines = [
        f"gamma = {gamma_text}",
        f"e = {fraction_to_json(report.e)} ({'certified' if report.e_certified else 'empirical'})",
        f"g = {report.g.decimal}",
    ]
    return report.to_json(), lines, 0


def _cmd_gamma_points(args):
    value = gamma_points_closed(args.n, args.s)
    report = {
        "n": args.n,
        "s": args.s,
        "gamma": fraction_to_json(value),
        "decimal": decimal_str(value),
    }
    return report, [f"gamma({args.n}, {args.s} points) = {fraction_to_json(value)}"], 0


_ALPHA_KINDS = {"points": (0, 1), "points2": (0, 2), "lines": (1, 1)}  # kind -> (r, m)


def _cmd_alpha(args):
    r, m = _ALPHA_KINDS[args.kind]
    value = alpha_expected(args.n, r, args.s, m)
    report = {"kind": args.kind, "n": args.n, "s": args.s, "alpha": value}
    lines = [f"alpha = {value}"]
    if m > 1:
        report["note"] = "expected value; exceptions exist"
        lines.append(report["note"])
    return report, lines, 0


def _cmd_cremona(args):
    if args.max_steps is not None and not args.reduce:
        raise SystemExit2("--max-steps needs --reduce")
    sys_ = LinearSystem.parse(args.dim, args.system)
    if args.transform is not None:
        out, c = cremona_transform(sys_, _parse_mults(args.transform))
        return {"c": c, "system": out.format()}, [f"c = {c}", f"system: {out.format()}"], 0
    if args.witness:
        witness = hyperplane_product_witness(sys_)
        lines = ["no hyperplane-product witness"] if witness is None else [
            "witness factors (points, weight):"
        ] + [f"  {list(subset)} x{w}" for subset, w in witness.factors]
        return {"witness": witness.to_json() if witness else None}, lines, 0
    limit = {} if args.max_steps is None else {"max_steps": args.max_steps}
    trace = reduce_system(sys_, **limit)
    lines = [f"start: {trace.start.format()}"] + [
        f"  step {i + 1}: idx={list(st.chosen)} c={st.c} -> {st.result.format()}"
        for i, st in enumerate(trace.steps)
    ] + [f"verdict: {trace.verdict} ({trace.certificate})"]
    return trace.to_json(), lines, 0 if trace.verdict != "undecided" else 1


def _cmd_intersections(args):
    poly = expand_self_intersection(args.n, args.r, args.s)
    report = {"n": args.n, "r": args.r, "s": args.s, "expansion": poly.to_json()}
    lines = [f"(tau*H - E)^{args.n} coefficients: {poly.to_json()}"]
    code = 0
    if args.check:
        ok = identity_check(args.n, args.r, args.s)
        report["identity"] = ok
        lines.append(f"identity with n! * scaling limit: {'holds' if ok else 'FAILS'}")
        code = 0 if ok else 1
    return report, lines, code


def _cmd_verify_nosymetry(args):
    report = nosymetry_enumerate(args.s)
    lines = [
        f"s={args.s} g={report.g.decimal} d_cap={report.d_cap} sum_cap={report.sum_cap}",
        f"cases={report.cases_checked} violations={len(report.violations)}",
    ]
    return report.to_json(), lines, 0 if report.ok else 1


def _cmd_verify_appendix(args):
    report = replay_appendix(args.id)
    lines = [f"{args.id}: {'pass' if report.passed else 'FAIL'}"] + [
        f"  {'ok  ' if a.passed else 'FAIL'} {a.name}: expected {a.expected}, got {a.got}"
        for a in report.assertions
    ]
    return report.to_json(), lines, 0 if report.passed else 1


def _cmd_verify_gamma_case(args):
    report = verify_gamma_points_case(args.n, args.s, args.hmax)
    lines = [
        f"h={row.h}: alpha={row.alpha} ratio={fraction_to_json(row.ratio)} "
        f"nonempty={row.upper_nonempty} lower_empty={row.lower_empty} consistent={row.consistent}"
        for row in report.rows
    ] + [f"overall: {'pass' if report.ok else 'FAIL'}"]
    if report.endpoint_note:
        lines.append(report.endpoint_note)
    return report.to_json(), lines, 0 if report.ok else 1


def _cmd_verify_identities(args):
    report = identities_report(args.seed)
    failures = report["failures"]
    lines = [f"failures: {len(failures)}"] + [f"  {f}" for f in failures]
    return report, lines, 0 if report["ok"] else 1


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2 and a synopsis on stderr."""


def main(argv: list[str] | None = None) -> int:
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:  # a report's integers may have any length, in this run only
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            report, lines, status = args.handler(args)
        except SystemExit2 as err:
            print(f"usage error: {err}", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 2
        except (ValueError, KeyError, IndexError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except ArithmeticError as err:
            print(f"verification failure: {err}", file=sys.stderr)
            return 1
        _emit(report, args, lines)
        return status
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
