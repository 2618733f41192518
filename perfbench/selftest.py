"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs one small check_inequality call through the gate that every benchmark
call goes through.  The right expectation must pass; a deliberately wrong
expected verdict, a report that differs from its reference bytes, and a call
that raises must each be counted as a failed call.  Exits 0 when all of that
holds.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
from heispde.checker import OperatorSpec, Region, check_inequality  # noqa: E402
from worker import WORK, Gate, attempt  # noqa: E402


def failed_calls(inp, got, reference=None) -> int:
    gate = Gate()
    if reference is not None:
        gate.reference[inp.label] = reference
    gate.check(inp, got)
    assert gate.attempted == 1
    return gate.failed


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    writer = inputs.ReportWriter(os.path.join(WORK, "selftest-report.json"))
    field = inputs._field("u4", inputs.E15, 1)
    spec = OperatorSpec("pucci_max", "subsolution", ell=inputs.E15)
    region = Region(0.05, 5.0, n_samples=1024, seed=3)
    lib = inputs.Input(
        "u4.pucci_max.sub.d1", "pass",
        lambda threads, override=None: check_inequality(field, spec, region),
        writer.outcome,
    )
    got = lib.outcome(lib.call(1))
    checks = [
        ("right expectation passes", failed_calls(lib, got) == 0),
        ("wrong expected verdict 'fail' is a failure",
         failed_calls(dataclasses.replace(lib, expected="fail"), got) == 1),
        ("report differing from the reference is a failure",
         failed_calls(lib, got, reference=got.report + b" ") == 1),
    ]
    raised, _ = attempt(lambda: 1 / 0, (), lib.outcome)
    checks.append(("a call that raises is a failure", failed_calls(lib, raised) == 1))
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
