"""One benchmark process: set a workload up, then time or trace its calls.

run.py starts it as

    python3 perfbench/worker.py WORKLOAD SEED SECONDS ROLE SPAWNED_AT NPROC

with PYTHONPATH pointing at the checkout's src/.  ROLE is "setup" (set up,
report the set-up time, exit), "measure" (set up, then time a fixed number
of rounds that took about SECONDS at the seed commit) or "trace" (the same,
alternating untraced and traced calls).  SPAWNED_AT is time.monotonic() in
the parent just before the spawn, so set-up time includes interpreter start.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
MAX_PROBLEMS = 20
# Normalized seconds one measuring round took at the seed commit.  A run
# makes ceil(seconds / ROUND_S) rounds, and at least enough for MIN_CALLS
# single-thread calls, so that the tail percentile is p90 or higher.  The
# count does not depend on how fast the program is, so every commit makes the
# same calls and the tail percentile means the same thing.
ROUND_S = {
    "radial_dense": 1.65,
    "lyapunov_growth": 0.6,
    "tabulated_subset": 0.88,
}
MIN_CALLS = 100
# Traced calls per traced run.
TRACE_CALLS = 11


class Gate:
    """Counts calls and failures; the first report per input is the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] = {}

    def check(self, inp, got) -> None:
        ref = self.reference.setdefault(inp.label, got.report)
        problems = inputs.judge(inp, got, ref)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def import_breakdown(repeats: int = 3) -> dict:
    """Median `import heispde` time and scipy's share, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    totals, shares = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import heispde"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=60, check=True,
        )
        total, scipy_us = _parse_importtime(proc.stderr)
        totals.append(total / 1e6)
        shares.append(scipy_us / total)
    return {"cli.import_s": statistics.median(totals),
            "cli.import_scipy_share": statistics.median(shares)}


def _parse_importtime(text: str) -> tuple[int, int]:
    """(cumulative us of heispde, cumulative us of scipy subtrees not nested in scipy)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        indent = len(name) - len(name.lstrip())
        rows.append((indent, name.strip(), int(cumulative)))
    # -X importtime lists a module after everything it imported, one indent deeper.
    total = scipy = 0
    stack: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if name == "heispde":
            total = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            scipy += cumulative
        stack.append((indent, name))
    return total, scipy


def acceptance_coverage() -> dict:
    """Coverage of the criteria 03/04 region (0.05, 5), seed 3, d = 1, at three sizes.

    These are the seed-commit region and seed on which the sampler's radial
    hole shows; they stay fixed so a sampler change is measured against them.
    """
    from heispde import checker

    rows = {}
    for n in (4096, 65536, 262144):
        region = checker.Region(0.05, 5.0, n_samples=n, seed=3)
        batch = checker.sample_region(region, space="heisenberg", dim=3, singular_radii=(1.0,))
        rows[str(n)] = tracing.coverage(
            batch.radius, region.rho_min, region.rho_max, (1.0,), batch.n_admissible
        )
    return rows


class Clock:
    """Times calls in order.  Each call is followed by a run of the
    calibration kernel for its thread count (one more run of each kernel
    comes before the first call), so run.py can scale every call by the
    host's speed at that moment: the mean of that kernel's runs just before
    and just after it."""

    def __init__(self, kernels: dict):
        self.kernels = kernels  # thread count -> kernel
        self.last = {threads: k.seconds() for threads, k in kernels.items()}
        self.calls: list[dict] = []

    def time(self, key, inp, call, *args, threads=1, outcome=None):
        got, dt = attempt(call, args, outcome or inp.outcome)
        kernel = self.kernels[threads]
        before, self.last[threads] = self.last[threads], kernel.seconds()
        self.calls.append({
            "key": key, "label": inp.label, "s": dt, "points": got.points,
            "kernel_s": [before, self.last[threads]], "nominal_s": kernel.nominal_s,
        })
        return got


def attempt(call, args, outcome) -> tuple[inputs.Outcome, float]:
    """Make one call, timed, and turn its result into an Outcome, untimed.

    A call or report write that raises gives an Outcome that the gate fails.
    """
    t0 = time.perf_counter()
    try:
        result = call(*args)
        dt = time.perf_counter() - t0
        return outcome(result), dt
    except Exception as exc:  # noqa: BLE001  (a raising call is a failed call)
        return inputs.Outcome(f"raised {type(exc).__name__}: {exc}", 0, b""), time.perf_counter() - t0


def n_rounds(workload: str, seconds: float, items) -> int:
    return max(math.ceil(seconds / ROUND_S[workload]), math.ceil(MIN_CALLS / len(items)))


def measure(items, gate, rounds, nproc, clock) -> dict:
    """Each round calls every input once with HEISPDE_THREADS=1 and, if it
    reads the thread count, once with nproc, alternating which goes first."""
    for r in range(rounds):
        order = (("1", 1), ("n", nproc)) if r % 2 == 0 else (("n", nproc), ("1", 1))
        for inp in items:
            for key, threads in order:
                if key == "1" or inp.threaded:
                    gate.check(inp, clock.time(key, inp, inp.call, threads, threads=threads))
    return {"rounds": rounds}


def trace(items, gate, rounds, workload, clock) -> dict:
    """Alternate untraced and traced single-thread calls; summarise the spans."""
    from heispde import checker, cli, gallery, hgroup, operators

    modules = {"checker": checker, "cli": cli, "hgroup": hgroup, "operators": operators}
    tracer = tracing.Tracer(modules)
    traced_fields = {
        inp.label: tracer.traced_field(inp.field)
        for inp in items
        if isinstance(inp.field, gallery.ScalarField)
    }
    cov_rows, report_bytes = [], []

    def traced_call(inp):
        with tracer.call("call"):
            return inp.call(1, traced_fields.get(inp.label))

    def traced_outcome(inp):
        def outcome(result):
            # The gate writes the report with cli.write_json_report; trace that too.
            with tracer.call("gate"):
                return inp.outcome(result)

        return outcome

    for _ in range(rounds):
        for inp in items:
            gate.check(inp, clock.time("untraced", inp, inp.call, 1))
            got = clock.time("traced", inp, traced_call, inp, outcome=traced_outcome(inp))
            cov_rows += tracing.batch_coverage(tracer.results)
            tracer.results.clear()
            if inp.table_coverage is not None:
                cov_rows.append(tracing.coverage(*inp.table_coverage, got.points))
            report_bytes.append(len(got.report))
            gate.check(inp, got)

    with open(os.path.join(WORK, f"spans-{workload}.json"), "w") as fh:
        json.dump([s.__dict__ for s in tracer.spans], fh)
    return {
        "layers": tracing.summarize(tracer.spans),
        "work": tracing.work_counts(tracing.batches(tracer.spans)),
        "rounds": rounds,
        "coverage": tracing.merge_coverage(cov_rows),
        "report_bytes": statistics.mean(report_bytes),
        "import": import_breakdown(),
        "acceptance_coverage": acceptance_coverage(),
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, role, spawned_at, nproc = argv
    seconds, spawned_at, nproc = float(seconds), float(spawned_at), int(nproc)
    os.makedirs(WORK, exist_ok=True)

    items = inputs.build(workload, int(seed), WORK)
    gate = Gate()
    # One untimed warm-up per input; its report is the reference bytes.
    for inp in items:
        gate.check(inp, attempt(inp.call, (1,), inp.outcome)[0])
    setup_s = time.monotonic() - spawned_at

    # Set-up ran in a fresh process; a ProcessKernel run now and one in the
    # parent just before the spawn give the host's speed for scaling it.
    out = {"setup_s": setup_s, "setup_kernel_after_s": calibrate.ProcessKernel().seconds()}
    if role in ("measure", "trace"):
        # Peak RSS of the single-thread calls.  It is read before the nproc
        # warm-up, whose pool threads add 3-6 MB of allocator arenas that
        # change from run to run, and before the calibration kernels allocate
        # their arrays.
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if role == "measure":
            # One more untimed warm-up per threaded input, with nproc threads.
            for inp in items:
                if inp.threaded:
                    gate.check(inp, attempt(inp.call, (nproc,), inp.outcome)[0])
        kernels = {1: calibrate.Kernel()}
        if role == "measure" and nproc > 1 and any(inp.threaded for inp in items):
            kernels[nproc] = calibrate.ParallelKernel(nproc)
        clock = Clock(kernels)
        if role == "measure":
            out.update(measure(items, gate, n_rounds(workload, seconds, items), nproc, clock))
        else:
            # Per-layer numbers have no bound; the fewest rounds that give 11
            # traced calls keep the traced run short.
            out.update(trace(items, gate, math.ceil(TRACE_CALLS / len(items)), workload, clock))
        out["calls"] = clock.calls
    out.update(attempted=gate.attempted, failed=gate.failed, problems=gate.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
