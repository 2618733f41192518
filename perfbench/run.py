"""heispde benchmark: time one workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload radial_dense --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.  A human-readable table comes first; the
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only if every call gave the expected
outcome.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("radial_dense", "lyapunov_growth", "tabulated_subset")
# Set-up runs in this many fresh processes per run; setup_s is their median.
SETUPS = 3
# Whole-run limit; a run that is not done by then is killed and fails.
DEADLINE_S = 175.0

# Per-layer time metrics: metric -> (span name, "total_s" or "self_s"),
# reported in seconds per traced call.
SPAN_METRICS = {
    "gallery.value_s": ("gallery.value", "total_s"),
    "gallery.value.self_s": ("gallery.value", "self_s"),
    "gallery.gradient_s": ("gallery.gradient", "total_s"),
    "gallery.gradient.self_s": ("gallery.gradient", "self_s"),
    "gallery.hessian_s": ("gallery.hessian", "total_s"),
    "gallery.hessian.self_s": ("gallery.hessian", "self_s"),
    "hgroup.h_hessian_s": ("hgroup.h_hessian", "total_s"),
    "hgroup.h_gradient_s": ("hgroup.h_gradient", "total_s"),
    "hgroup.hnorm_s": ("hgroup.hnorm", "total_s"),
    "hgroup.dilate_s": ("hgroup.dilate", "total_s"),
    "hgroup.eta_s": ("hgroup.eta", "total_s"),
    "hgroup.euclid_grad_rho_s": ("hgroup.euclid_grad_rho", "total_s"),
    "operators.sym_eigenvalues_s": ("operators.sym_eigenvalues", "total_s"),
    "operators.signed_eig_sums_s": ("operators.signed_eig_sums", "total_s"),
    "operators.pnorm_operator_s": ("operators.pnorm_operator", "total_s"),
    "operators.hjb_s": ("operators.hjb", "total_s"),
    "checker.check_s": ("checker.check", "total_s"),
    "checker.check.self_s": ("checker.check", "self_s"),
    "checker.sample_region_s": ("checker.sample_region", "total_s"),
    "checker.sample_region.self_s": ("checker.sample_region", "self_s"),
    "cli.write_json_report_s": ("cli.write_json_report", "total_s"),
}
# Size at which the acceptance-region coverage counters are reported.
ACCEPTANCE_N = "262144"


class BenchError(Exception):
    pass


def spawn(args, role: str, nproc: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=SRC)
    # One process with at most nproc threads: the checker's own pool only.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    kernel_before = calibrate.ProcessKernel().seconds()
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
         str(args.seconds), role, repr(spawned_at), str(nproc)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} worker did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_kernel_before_s"] = kernel_before
    return result


def normalized(result: dict) -> list[dict]:
    """The worker's calls with "t": seconds at the calibration kernel's nominal speed."""
    return [
        dict(c, t=calibrate.scale(c["s"], *c["kernel_s"], c["nominal_s"]))
        for c in result["calls"]
    ]


def setup_seconds(result: dict) -> float:
    return calibrate.scale(
        result["setup_s"], result["setup_kernel_before_s"], result["setup_kernel_after_s"],
        calibrate.NOMINAL_PROCESS_S,
    )


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    m = results[-1]
    calls = normalized(m)
    one = [c for c in calls if c["key"] == "1"]
    # Without an input that reads HEISPDE_THREADS (lyapunov_growth), an nproc
    # call would repeat a single-thread one, so the single-thread calls stand in.
    many = [c for c in calls if c["key"] == "n"] or one
    t1 = [c["t"] for c in one]
    tail_s, tail_pct = tail(t1)
    metrics = {
        "setup_s": (statistics.median(setup_seconds(r) for r in results), "s"),
        "call_s_p50": (statistics.median(t1), "s"),
        "call_s_tail": (tail_s, "s"),
        "points_per_s": (sum(c["points"] for c in one) / sum(t1), "1/s"),
        "points_per_s_nproc": (sum(c["points"] for c in many) / sum(c["t"] for c in many), "1/s"),
        "peak_rss_mb": (m["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw1 = [c["s"] for c in one]
    notes = [
        f"setup_s: median of {len(results)} set-ups in fresh processes",
        f"call_s_p50, points_per_s: {len(t1)} calls with HEISPDE_THREADS=1 in {m['rounds']} rounds",
        f"call_s_tail: p{tail_pct:.1f} of {len(t1)} calls",
        f"points_per_s_nproc: {len(many)} calls with HEISPDE_THREADS="
        + ("nproc" if many is not one else "1 (no input reads the thread count)"),
    ]
    for label, rows in (("1 thread", one), ("nproc threads", many)):
        notes.append(
            f"{label}: times are scaled to the calibration kernel's nominal "
            f"{rows[0]['nominal_s']} s (median kernel "
            f"{statistics.median(c['kernel_s'][1] for c in rows):.4g} s)"
        )
    notes.append(
        "raw wall times: "
        f"setup_s={statistics.median(r['setup_s'] for r in results):.4g} "
        f"call_s_p50={statistics.median(raw1):.4g} "
        f"points_per_s={sum(c['points'] for c in one) / sum(raw1):.4g}"
    )
    notes.append(f"{'input (HEISPDE_THREADS=1)':<40}{'p50 s':>10}{'points':>10}{'us/point':>10}")
    for label in dict.fromkeys(c["label"] for c in one):
        rows = [c for c in one if c["label"] == label]
        p50 = statistics.median(c["t"] for c in rows)
        pts = rows[-1]["points"]
        per_point = f"{1e6 * p50 / pts:>10.3g}" if pts else f"{'-':>10}"
        notes.append(f"{label:<40}{p50:>10.4g}{pts:>10}{per_point}")
    return metrics, notes


def per_layer(r: dict) -> tuple[dict, list[str]]:
    calls = normalized(r)
    traced = [c["t"] for c in calls if c["key"] == "traced"]
    untraced = [c["t"] for c in calls if c["key"] == "untraced"]
    n = len(traced)
    layers = r["layers"]
    metrics = {
        name: (layers.get(span, {}).get(key, 0.0) / n, "s")
        for name, (span, key) in SPAN_METRICS.items()
    }
    hh, eig = r["work"]["hgroup.h_hessian"], r["work"]["operators.sym_eigenvalues"]
    acc = r["acceptance_coverage"][ACCEPTANCE_N]
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    metrics.update({
        "hgroup.h_hessian.flops_computed": (hh["flops_per_point"], "flop/point"),
        "hgroup.h_hessian.bytes_computed": (hh["bytes_per_point"], "B/point"),
        "operators.eig.flops_computed": (eig["flops_per_point"], "flop/point"),
        "operators.eig.bytes_computed": (eig["bytes_per_point"], "B/point"),
        "checker.admissible_ratio": (r["coverage"]["checker.admissible_ratio"], "ratio"),
        "checker.log_radius_max_gap": (r["coverage"]["checker.log_radius_max_gap"], "ratio"),
        "checker.kink_min_distance": (r["coverage"]["checker.kink_min_distance"], "rho"),
        "checker.acceptance_region.log_radius_max_gap": (acc["log_radius_max_gap"], "ratio"),
        "checker.acceptance_region.kink_min_distance": (acc["kink_min_distance"], "rho"),
        "cli.import_s": (r["import"]["cli.import_s"], "s"),
        "cli.import_scipy_share": (r["import"]["cli.import_scipy_share"], "ratio"),
        "cli.report_bytes": (r["report_bytes"], "B"),
        "trace.call_s_p50": (traced_p50, "s"),
        "trace.untraced_call_s_p50": (untraced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    })
    notes = [f"{n} traced and {len(untraced)} untraced calls, HEISPDE_THREADS=1; span times "
             "are raw seconds per traced call; trace.* call times are scaled like the "
             "end-to-end ones"]
    for size, row in r["acceptance_coverage"].items():
        notes.append(f"acceptance region (0.05, 5), seed 3, d=1, n={size}: "
                     f"log_radius_max_gap={row['log_radius_max_gap']:.6g} "
                     f"kink_min_distance={row['kink_min_distance']:.6g}")
    notes.append(f"{'span':<28}{'count':>8}{'total_s/call':>15}{'self_s/call':>15}")
    for span, row in sorted(layers.items()):
        notes.append(f"{span:<28}{row['count']:>8}{row['total_s'] / n:>15.6g}{row['self_s'] / n:>15.6g}")
    notes.append("computed work per point (dense path; formulas in NOTES.md), "
                 f"next to measured hgroup.h_hessian_s={metrics['hgroup.h_hessian_s'][0]:.6g} s "
                 f"and traced-process peak_rss_mb={r['peak_rss_kb'] / 1024.0:.1f}")
    for kernel, w in (("h_hessian sandwich", hh), ("eigvalsh", eig)):
        for width, row in w["by_width"].items():
            notes.append(f"  {kernel} width {width}: {row['points']} points, "
                         f"{row['flops_per_point']:.6g} flop/point, {row['bytes_per_point']:.6g} B/point")
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heispde", "__init__.py")):
        print(f"error: no heispde package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            results = [spawn(args, "trace", nproc, deadline)]
            metrics, notes = per_layer(results[0])
        else:
            results = [spawn(args, "setup", nproc, deadline) for _ in range(SETUPS - 1)]
            results.append(spawn(args, "measure", nproc, deadline))
            metrics, notes = end_to_end(results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [msg for r in results for msg in r["problems"]]
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"summary": summary, "notes": notes, "workers": results}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  nproc {nproc}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<34}{failed / attempted:>16.6g} ({failed}/{attempted} calls)")
    for line in notes:
        print(f"  {line}")
    for msg in problems:
        print(f"  FAILED {msg}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
