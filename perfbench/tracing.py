"""Spans around calls into heispde's layers, recorded from outside the package.

The traced run replaces public functions on the heispde modules with
wrappers that record one span per call: name, start, end, parent span, the
call it belongs to, and the batch size of the arguments where a computed
work count needs it.  Spans stay in memory and are summarised (and written
out) when the run ends.  Nothing under src/ is edited; the wrappers are
installed for a traced call and removed again, so untraced calls in the same
process run the original functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import threading
import time

import numpy as np

# (module, attribute, span name).  The check_* entry points share the span
# checker.check, and hjb_inf / hjb_sup share operators.hjb.
WRAPPED = (
    ("checker", "check_inequality", "checker.check"),
    ("checker", "check_lyapunov", "checker.check"),
    ("checker", "check_tabulated", "checker.check"),
    ("hgroup", "h_hessian", "hgroup.h_hessian"),
    ("hgroup", "h_gradient", "hgroup.h_gradient"),
    ("hgroup", "hnorm", "hgroup.hnorm"),
    ("hgroup", "dilate", "hgroup.dilate"),
    ("hgroup", "eta", "hgroup.eta"),
    ("hgroup", "euclid_grad_rho", "hgroup.euclid_grad_rho"),
    ("operators", "sym_eigenvalues", "operators.sym_eigenvalues"),
    ("operators", "signed_eig_sums", "operators.signed_eig_sums"),
    ("operators", "pnorm_operator", "operators.pnorm_operator"),
    ("operators", "hjb_inf", "operators.hjb"),
    ("operators", "hjb_sup", "operators.hjb"),
    ("checker", "sample_region", "checker.sample_region"),
    ("cli", "write_json_report", "cli.write_json_report"),
)

# ScalarField jet callables, swapped in with dataclasses.replace.
JETS = (
    ("value", "gallery.value"),
    ("gradient", "gallery.gradient"),
    ("hessian", "gallery.hessian"),
)


def _batch_shape(name, args, kwargs):
    """(points, width) of the batch a dense-path kernel works on, else None."""
    if name == "hgroup.h_hessian":
        x = kwargs.get("x", args[2] if len(args) > 2 else None)
    elif name == "operators.sym_eigenvalues":
        x = kwargs.get("mat", args[0] if args else None)
        x = None if x is None else np.asarray(x)[..., 0]
    else:
        return None
    shape = np.shape(x)
    return int(np.prod(shape[:-1])), int(shape[-1])


@dataclasses.dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    call_id: int
    name: str
    start: float
    end: float
    batch: tuple[int, int] | None = None


class Tracer:
    """Records spans for calls made inside a `call` block."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.results: list[tuple[object, tuple, dict]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._current: tuple[int, int] | None = None  # (call id, root span id)
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = {
            (mod, attr): self.wrap(name, getattr(modules[mod], attr), keep_result=attr == "sample_region")
            for mod, attr, name in WRAPPED
        }

    def wrap(self, name, fn, keep_result=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current = self._current
            if current is None:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else current[1]
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(
                Span(span_id, parent, current[0], name, start, end,
                     _batch_shape(name, args, kwargs))
            )
            if keep_result:
                self.results.append((out, args, kwargs))
            return out

        return traced

    def traced_field(self, field):
        """A copy of a ScalarField whose jet callables record spans."""
        return dataclasses.replace(
            field, **{attr: self.wrap(name, getattr(field, attr)) for attr, name in JETS}
        )

    def install(self) -> None:
        for (mod, attr), wrapper in self._wrappers.items():
            module = self.modules[mod]
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def call(self, name: str):
        """Root span of one timed call; wrappers record spans only inside it."""
        call_id = next(self._ids)
        root = next(self._ids)
        self._current = (call_id, root)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._current = None
            self.spans.append(Span(root, None, call_id, name, start, end))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict:
    """Per span name: count, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover (children running on pool threads may overlap each other).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered(children.get(s.span_id, []))
    return out


# Computed work counts for the dense path, per point.  They follow the
# formulas stated in NOTES.md and ignore caches, so they are labelled
# "computed", not measured.


def sandwich_flops(n: int) -> float:
    """sigma^T H sigma as the einsum '...ia,...ij,...jb->...ab': m^2 n^2 terms, 2 mul + 1 add."""
    m = n - 1
    return 3.0 * m * m * n * n


def sandwich_bytes(n: int) -> float:
    """Read sigma (n x m) and H (n x n), write the m x m result, float64."""
    m = n - 1
    return 8.0 * (n * m + n * n + m * m)


def eig_flops(m: int) -> float:
    """Eigenvalues only of a symmetric m x m matrix: Householder tridiagonalisation, 4/3 m^3."""
    return 4.0 * m**3 / 3.0


def eig_bytes(m: int) -> float:
    """Read the m x m matrix, write m eigenvalues, float64."""
    return 8.0 * (m * m + m)


def batches(spans: list[Span]) -> list[tuple[str, int, int]]:
    """(span name, points, width) of every span that carries a batch shape."""
    return [(s.name, *s.batch) for s in spans if s.batch is not None]


def work_counts(batch_list) -> dict:
    """Point-weighted computed flops and bytes per point, overall and per width."""
    out = {}
    for name, fl, by in (
        ("hgroup.h_hessian", sandwich_flops, sandwich_bytes),
        ("operators.sym_eigenvalues", eig_flops, eig_bytes),
    ):
        pts: dict[int, int] = {}
        for span_name, n_pts, width in batch_list:
            if span_name == name:
                pts[width] = pts.get(width, 0) + n_pts
        total = sum(pts.values())
        out[name] = {
            "points": total,
            "flops_per_point": sum(fl(w) * p for w, p in pts.items()) / total if total else 0.0,
            "bytes_per_point": sum(by(w) * p for w, p in pts.items()) / total if total else 0.0,
            "by_width": {
                str(w): {"points": p, "flops_per_point": fl(w), "bytes_per_point": by(w)}
                for w, p in sorted(pts.items())
            },
        }
    return out


def coverage(radius, rho_min, rho_max, singular_radii, n_admissible) -> dict:
    """Sampling-coverage counters for one set of sampled gauge (or Euclidean) radii.

    log_radius_max_gap: largest empty stretch of log-radius between rho_min and
    rho_max, as a share of the log-range.  kink_min_distance: smallest
    |rho - r_k| over the declared gluing radii (None if there are none).
    """
    r = np.asarray(radius, dtype=float)
    lo, hi = math.log(rho_min), math.log(rho_max)
    inside = np.log(r[(r >= rho_min) & (r <= rho_max)])
    edges = np.concatenate([[lo], np.sort(inside), [hi]])
    kink = None
    if singular_radii:
        kink = float(min(np.abs(r - rk).min() for rk in singular_radii))
    return {
        "n": int(r.size),
        "n_admissible": int(n_admissible),
        "log_radius_max_gap": float(np.diff(edges).max() / (hi - lo)),
        "kink_min_distance": kink,
    }


def merge_coverage(rows: list[dict]) -> dict:
    """Worst gap, nearest approach to a gluing radius, pooled admissible share."""
    kinks = [r["kink_min_distance"] for r in rows if r["kink_min_distance"] is not None]
    n = sum(r["n"] for r in rows)
    return {
        "checker.admissible_ratio": sum(r["n_admissible"] for r in rows) / n if n else 0.0,
        "checker.log_radius_max_gap": max((r["log_radius_max_gap"] for r in rows), default=0.0),
        # -1 marks a workload whose fields declare no gluing radius.
        "checker.kink_min_distance": min(kinks) if kinks else -1.0,
    }


def batch_coverage(results) -> list[dict]:
    """Coverage rows for the sample_region outputs a Tracer kept."""
    rows = []
    for batch, args, kwargs in results:
        region = kwargs.get("region", args[0] if args else None)
        rows.append(coverage(
            batch.radius, region.rho_min, region.rho_max,
            kwargs.get("singular_radii", ()), batch.n_admissible,
        ))
    return rows
