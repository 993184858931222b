"""In-memory span tracer wrapped around molien's public functions.

The library imports names with `from molien.x import y`, so a wrapper has
to replace the name everywhere it is looked up: install() swaps every
molien module attribute (and class attribute) that is the original
function. uninstall() restores them.

Coarse layers get one span each: (name, start, end, parent span, job,
self seconds). Fine layers are called up to millions of times per pass
(scalar coercion, matmul), so their calls are aggregated per parent span
as [calls, self seconds, total seconds]. Self time is a call's duration
minus the time its traced children cover, so the self times of every
span and aggregate under a job add up to the job span's duration.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute or Class.method, metric layer name)
COARSE = [
    ("molien.cli", "main", "cli.main"),
    ("molien.groups", "close_group", "groups.close_group"),
    ("molien.series", "molien_series", "series.molien_series"),
    ("molien.series", "cross_check", "series.cross_check"),
    ("molien.series", "averaged_reciprocal_series", "series.average"),
    ("molien.series", "series_reciprocal", "series.reciprocal"),
    ("molien.series", "molien_rational", "series.rational"),
    ("molien.matrices", "poly_gcd", "series.gcd"),
    ("molien.matrices", "det_one_minus_lambda", "matrices.det"),
    ("molien.matrices", "row_reduce", "matrices.row_reduce"),
    ("molien.invariants", "reynolds_matrix", "invariants.reynolds"),
    ("molien.invariants", "invariant_basis", "invariants.basis"),
    ("molien.invariants", "invariant_dimension", "invariants.dimension"),
    ("molien.action", "induced_matrix", "action.induced"),
]
FINE = [
    ("molien.matrices", "SquareMatrix.__matmul__", "matrices.matmul"),
    ("molien.matrices", "UnivariatePoly.__mul__", "matrices.upoly_mul"),
    ("molien.polynomials", "substitute_linear", "polynomials.substitute"),
    ("molien.scalars", "ScalarBackend.coerce", "scalars.coerce"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, job, self_s]
        self.fine: dict = {}  # (parent span, name) -> [calls, self_s, total_s]
        self.stack: list = []  # frames: [span for children, child seconds]
        self.job = None
        self.groups: list = []  # every closed group, for counts taken after the pass
        self.row_reduce_rows = 0
        self.basis_size_max = 0
        self._patches: list = []

    # --- spans ----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a recorded span; the benchmark opens job spans this way."""
        stack = self.stack
        index = len(self.spans)
        parent = stack[-1][0] if stack else -1
        record = [name, 0.0, 0.0, parent, self.job, 0.0]
        self.spans.append(record)
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            record[1], record[2], record[5] = start, end, duration - frame[1]

    def _coarse(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _fine(self, name, fn):
        stack = self.stack
        fine = self.fine

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                key = (frame[0], name)
                agg = fine.get(key)
                if agg is None:
                    fine[key] = [1, duration - frame[1], duration]
                else:
                    agg[0] += 1
                    agg[1] += duration - frame[1]
                    agg[2] += duration

        return wrapper

    def _observed(self, name, fn):
        """Coarse wrappers that also record the size of what passes through."""
        wrapped = self._coarse(name, fn)
        if name == "groups.close_group":

            def close(*args, **kwargs):
                group = wrapped(*args, **kwargs)
                self.groups.append(group)
                return group

            return close
        if name == "matrices.row_reduce":

            def reduce(rows, *args, **kwargs):
                self.row_reduce_rows += len(rows)
                return wrapped(rows, *args, **kwargs)

            return reduce
        if name == "invariants.basis":

            def basis(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                self.basis_size_max = max(self.basis_size_max, len(out))
                return out

            return basis
        return wrapped

    # --- installing wrappers ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "molien" or key.startswith("molien.")]
        for module_name, attr, name in COARSE + FINE:
            owner = sys.modules[module_name]
            fine = (module_name, attr, name) in FINE
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                wrapper = self._fine(name, original) if fine else self._observed(name, original)
                setattr(cls, method, wrapper)
                self._patches.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._fine(name, original) if fine else self._observed(name, original)
            patched = len(self._patches)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
            if len(self._patches) == patched:
                self.uninstall()
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere in molien; {name} would escape tracing")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- summaries ------------------------------------------------------------------

    def layer_totals(self) -> dict:
        """name -> [calls, self seconds] over coarse spans and fine aggregates."""
        totals: dict = {}
        for name, _start, _end, _parent, _job, self_s in self.spans:
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        for (_parent, name), (calls, self_s, _total) in self.fine.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return totals

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of a fine layer made directly inside spans of parent_name."""
        return sum(
            calls
            for (parent, fine_name), (calls, _s, _t) in self.fine.items()
            if fine_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def job_self_times(self, job_span: str = "job") -> dict:
        """job -> (sum of self times under its span, the span's duration)."""
        by_job: dict = {}
        for name, _start, _end, _parent, job, self_s in self.spans:
            by_job[job] = by_job.get(job, 0.0) + self_s
        for (parent, _name), (_calls, self_s, _total) in self.fine.items():
            job = self.spans[parent][4] if parent >= 0 else None
            by_job[job] = by_job.get(job, 0.0) + self_s
        return {
            job: (by_job.get(job, 0.0), end - start)
            for name, start, end, _parent, job, _self in self.spans
            if name == job_span
        }

    def dump(self, path: str) -> None:
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j, "self_s": x}
                for n, s, e, p, j, x in self.spans
            ],
            "fine": [
                {"parent": p, "name": n, "calls": c, "self_s": s, "total_s": t}
                for (p, n), (c, s, t) in self.fine.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
