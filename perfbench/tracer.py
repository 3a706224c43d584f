"""Span tracing of fatflats layers from outside the package.

``install`` wraps each traced public function and rebinds every attribute
of every loaded ``fatflats`` module that holds it, because the modules
import one another by name; ``UniPoly.__call__`` is wrapped on the class.
``binom`` is left untraced on purpose: it runs millions of times per grid
item and wrapping it would multiply the run time.

Spans are kept in memory with the index of their parent span.  At the end
of each workload item ``flush`` derives every span's self time (its
duration minus that of its direct children), folds the spans into
per-name totals and drops them, so memory stays bounded by one item.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); "Class.method" wraps the method on the class
TRACED = [
    ("polynomials", "UniPoly.__call__", "polynomials.eval"),
    ("polynomials", "poly_divmod", "polynomials.poly_divmod"),
    ("roots", "sturm_chain", "roots.sturm_chain"),
    ("roots", "count_roots_in", "roots.count_roots_in"),
    ("roots", "isolate_largest_root", "roots.isolate_largest_root"),
    ("roots", "refine", "roots.refine"),
    ("roots", "sign_at", "roots.sign_at"),
    ("hilbert", "conditions_count", "hilbert.conditions_count"),
    ("hilbert", "hilbert_poly_symbolic", "hilbert.hilbert_poly_symbolic"),
    ("asymptotic", "lambda_poly", "asymptotic.lambda_poly"),
    ("asymptotic", "g_value", "asymptotic.g_value"),
    ("waldschmidt", "e_empirical", "waldschmidt.e_empirical"),
    ("waldschmidt", "e_certify", "waldschmidt.e_certify"),
    ("waldschmidt", "bounds_report", "waldschmidt.bounds_report"),
    ("verifier", "nosymetry_enumerate", "verifier.nosymetry_enumerate"),
    ("verifier", "nosymetry_bounds", "verifier.nosymetry_bounds"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index, start, end, outermost)
        self.stack: list[int] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        depth = [0]  # open spans of this name; only the outermost adds to total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                spans[index] = (name, parent, start, end, depth[0] == 0)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def flush(self) -> None:
        """Fold the finished spans into per-name totals; call between items."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, _, start, end, outermost = span
            row = self.totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            if outermost:
                row[1] += end - start
            row[2] += end - start - child[i]
        spans.clear()

    def absorb(self, totals: dict, counters: dict) -> None:
        """Add the totals and counters of a traced child process."""
        for name, row in totals.items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                mine[k] += row[k]
        for name, value in counters.items():
            self.count(name, value)

    def item(self, fn):
        """Wrap one workload item in a root span and flush after it."""
        wrapped = self.wrap("item", fn)

        def run(*args):
            try:
                return wrapped(*args)
            finally:
                self.flush()

        return run


def install(tracer: Tracer) -> list:
    """Wrap the traced functions in place; returns the undo list for ``uninstall``."""
    import fatflats.cli  # noqa: F401  (the package itself does not import cli)

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fatflats"]

    def enumerated(report):
        tracer.count("verifier.cases_checked", report.cases_checked)
        tracer.count("verifier.pairs_checked", report.pairs_checked)

    on_return = {
        "waldschmidt.e_certify": lambda _certificate: tracer.count("e_certify.returned"),
        "verifier.nosymetry_enumerate": enumerated,
    }
    undo = []
    for module_name, attr, span in TRACED:
        module = sys.modules.get(f"fatflats.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            tracer.missing.append(span)
            continue
        wrapper = tracer.wrap(span, original, on_return.get(span))
        if owner_name:
            undo.append((owner, method, original))
            setattr(owner, method, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
