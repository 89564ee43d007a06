"""Spans around the lowrank layer boundaries, for the traced benchmark run.

Each listed function is replaced, while a `Tracer.patched()` block is open,
by a wrapper installed at the name its caller looks up: the solver calls
`operators.gradient`, `amfit.inner_solve` and `prox.svt_with_rank` through
their modules, and `amfit` imports `spd_solve` by name, so that one is
wrapped as `lowrank.amfit.spd_solve`. Spans (name, start, end, parent) are
kept in memory and written out once the run ends.
"""

import functools
import importlib
import json
import time
from contextlib import contextmanager


def gradient_bytes(p, X):
    """Computed bytes one gradient call moves at least.

    The operator's matrix (S or the mask) is read twice, by apply and by
    adjoint; X is read and the gradient written once; F, W~ and the
    residual are touched once each. Cache behaviour is ignored.
    """
    op = p.op
    op_elems = op.S.size if hasattr(op, "S") else (op.mask.size if hasattr(op, "mask") else 0)
    return 8 * (2 * op_elems + 2 * X.size + 3 * p.F.size)


def amfit_flops(m, n, r, passes):
    """Computed flops of `passes` alternating passes (FixedI model).

    Per pass, update_U and update_V each form an r x r Gram (2r^2 n, 2r^2 m),
    one r x m x n product with Z (2rmn), a Cholesky factor (r^3/3) and its
    triangular solves (2r^2 m, 2r^2 n).
    """
    return passes * (4 * r * m * n + 4 * r * r * (m + n) + 2 * r**3 / 3)


def _inner_solve_counts(args, result):
    Z, _, start = args[:3]
    passes = result[1]
    m, n = Z.shape
    return {"passes": passes, "flops": amfit_flops(m, n, start.U.shape[1], passes)}


def _gradient_counts(args, result):
    return {"bytes": gradient_bytes(args[0], args[1])}


# (module, attribute, span name, counts from (args, result)). A function is
# listed under every name a caller may look it up by; a name the package no
# longer has is skipped, and its layer then reads zero calls.
TARGETS = (
    ("lowrank.problems", "generate_full", "problems.generate_full", None),
    ("lowrank.operators", "lipschitz_bound", "operators.lipschitz_bound", None),
    ("lowrank.linalg", "spectral_norm", "linalg.spectral_norm", None),
    ("lowrank.operators", "gradient", "operators.gradient", _gradient_counts),
    ("lowrank.amfit", "inner_solve", "amfit.inner_solve", _inner_solve_counts),
    ("lowrank.amfit", "update_U", "amfit.update_U", None),
    ("lowrank.amfit", "update_V", "amfit.update_V", None),
    ("lowrank.amfit", "spd_solve", "linalg.spd_solve", None),
    ("lowrank.linalg", "spd_solve", "linalg.spd_solve", None),
    ("lowrank.prox", "svt_with_rank", "prox.svt_with_rank", None),
    ("lowrank.linalg", "thin_svd", "linalg.thin_svd", None),
    ("lowrank.linalg", "numerical_rank", "linalg.numerical_rank", None),
    ("lowrank.solver", "truncate_factors", "solver.truncate_factors", None),
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec["counts"] = counts(args, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install a wrapper at every target for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name, counts in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, counts))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def descendants(self, span):
        """Spans opened inside `span`.

        Spans are recorded in the order they open and nest without
        overlapping, so these are the ones that follow it until it ends.
        """
        out = []
        for s in self.spans[span["id"] + 1:]:
            if s["start"] >= span["end"]:
                break
            out.append(s)
        return out

    def self_time(self, span):
        """Duration minus the part its child spans cover."""
        busy = sum(s["end"] - s["start"] for s in self.descendants(span)
                   if s["parent"] == span["id"])
        return (span["end"] - span["start"]) - busy

    def layer_totals(self, span):
        """{layer: {"calls", "s", <summed counts>}} over the spans inside `span`."""
        totals = {}
        for s in self.descendants(span):
            t = totals.setdefault(s["name"], {"calls": 0, "s": 0.0})
            t["calls"] += 1
            t["s"] += s["end"] - s["start"]
            for key, value in s["counts"].items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
