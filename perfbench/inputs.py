"""Workload inputs, each with the outcome it must produce.

Every input is one check_* call into heispde.  Region seeds and tabulated
jet tables come from the workload seed, so the program sees only generated
inputs.  Expected verdicts come from the acceptance criteria in
tests/test_acceptance.py (01-06, 09).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from heispde import checker, cli, hgroup
from heispde.checker import OperatorSpec, Region, TabulatedField
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

E12 = Ellipticity(1.0, 2.0)
E15 = Ellipticity(1.0, 1.5)
# Tolerance of acceptance criteria 01/02 on the closed-form comparison.
FORMULA_TOL = 1e-9
# Samples per (space, d), sized so that every radial_dense call costs about
# 0.07 s at the calibration kernel's nominal speed.  With equal costs the
# median and the tail of a run do not jump between inputs.
N_RADIAL = {
    ("heisenberg", 1): 22000,
    ("heisenberg", 2): 8000,
    ("heisenberg", 4): 2100,
    ("euclidean", 3): 32000,
    ("euclidean", 4): 23000,
}
# check_lyapunov samples per label, sized the same way, at about 0.08 s per
# call: ou costs more per point at d = 1, and hou at d = 4 more again.
N_LYAPUNOV = {"ou.d1": 96000, "hou.d4": 2**16}
N_LYAPUNOV_DEFAULT = 2**17
# Jet-table rows per d, sized the same way, at about 0.07 s per call.
ROWS_BY_D = {1: 9400, 2: 5700}


@dataclass
class Outcome:
    """What one call produced, reduced to what the correctness gate compares."""

    verdict: str
    points: int
    report: bytes
    max_rel_deviation: float | None = None


@dataclass
class Input:
    """One call and its expected outcome.

    call(threads, override) makes the call and is what gets timed;
    outcome(raw) turns its result into an Outcome for the gate, untimed.
    """

    label: str
    expected: str
    call: Callable
    outcome: Callable
    field: object = None  # a ScalarField the traced run may wrap
    formula: bool = False
    # Whether the call reads HEISPDE_THREADS, so that timed rounds also make
    # it with nproc threads.  check_lyapunov does not.
    threaded: bool = True
    # (radii, rho_min, rho_max, singular_radii) of a table the checker reads
    # instead of sampling; the traced run derives coverage counters from it.
    table_coverage: tuple | None = None


def _field(name, e, d):
    dims = HeisDims(d)
    return field_from_profile(make_profile(name, e, dims), dims)


class ReportWriter:
    """Serialises reports with heispde's own JSON writer, wall_time removed."""

    def __init__(self, path: str):
        self.path = path

    def outcome(self, report) -> Outcome:
        payload = report.to_dict()
        payload.pop("wall_time")
        cli.write_json_report(self.path, payload)
        with open(self.path, "rb") as fh:
            data = fh.read()
        fc = report.formula_comparison
        return Outcome(
            verdict=report.verdict,
            points=report.n_evaluated,
            report=data,
            max_rel_deviation=None if fc is None else fc["max_rel_deviation"],
        )


def _library_input(label, expected, check, writer, field=None, formula=False, threaded=True):
    def call(threads, override=None):
        os.environ[checker.THREADS_ENV] = str(threads)
        return check(field if override is None else override)

    return Input(label, expected, call, writer.outcome, field, formula, threaded)


def radial_dense(rnd: random.Random, writer: ReportWriter) -> list[Input]:
    """check_inequality on shipped gauge-radial fields (criteria 01-06)."""
    cases = [
        # (label, profile, ellipticity, d, spec, (rho_min, rho_max, char_eps), mode)
        ("u4.pucci_max.sub.d1", "u4", E15, 1,
         OperatorSpec("pucci_max", "subsolution", ell=E15), (0.05, 5.0, 1e-3), "sense"),
        ("u5.pucci_max.super.d2", "u5", E12, 2,
         OperatorSpec("pucci_max", "supersolution", ell=E12), (0.05, 5.0, 1e-3), "sense"),
        ("u4.pucci_max.sub.d4", "u4", E15, 4,
         OperatorSpec("pucci_max", "subsolution", ell=E15), (0.05, 5.0, 1e-3), "sense"),
        ("u_tilde.neg_trace.super.d2", "u_tilde", None, 2,
         OperatorSpec("neg_trace", "supersolution"), (0.25, 4.0, 0.05), "sense"),
        ("log_rho.pucci_min.formula.d4", "log_rho", None, 4,
         OperatorSpec("pucci_min", "subsolution", ell=E12), (0.5, 4.0, 0.05), "formula"),
        ("log_rho.pucci_minus_alpha.formula.d1", "log_rho", None, 1,
         OperatorSpec("pucci_minus_alpha", "subsolution", alpha=1.0 / 4),
         (0.5, 4.0, 0.05), "formula"),
        ("u2.pucci_max.super.R3", "u2", E12, 3,
         OperatorSpec("pucci_max", "supersolution", ell=E12), (0.05, 5.0, 1e-3), "sense"),
        ("u3.pucci_max.sub.R4", "u3", E12, 4,
         OperatorSpec("pucci_max", "subsolution", ell=E12), (0.05, 5.0, 1e-3), "sense"),
    ]
    out = []
    for label, prof, e, d, spec, (lo, hi, char_eps), mode in cases:
        field = _field(prof, e, d)
        n = N_RADIAL[field.space, d]
        region = Region(lo, hi, n_samples=n, seed=rnd.randrange(2**31), char_eps=char_eps)

        def call(f, spec=spec, region=region, mode=mode):
            return checker.check_inequality(f, spec, region, mode=mode)

        out.append(_library_input(label, "pass", call, writer, field, mode == "formula"))
    return out


def lyapunov_growth(rnd: random.Random, writer: ReportWriter) -> list[Input]:
    """check_lyapunov on the CLI fixture regions (criterion 09), plus hou at d = 4."""
    dims4 = HeisDims(4)
    rm4 = (E12.Lam * (dims4.Q - 1) - E12.lam) ** 0.25  # criterion 09's hou threshold
    cases = [
        ("zero-coeffs.d1", "zero-coeffs", 1, (1.0, 8.0), "fail"),
        ("schro.d1", "schro", 1, (10.0, 80.0), "pass"),
        ("hou.d1", "hou", 1, (2.0, 16.0), "pass"),
        ("ou.d1", "ou", 1, (2.5, 20.0), "pass"),
        ("hou.d4", "hou", 4, (rm4 * 1.1, rm4 * 4.0), "pass"),
    ]
    out = []
    for label, fixture, d, (lo, hi), expected in cases:
        dims = HeisDims(d)
        cond, data, extra = checker.lyapunov_fixture(fixture, dims, gamma0=1.0)
        region = Region(lo, hi, n_samples=N_LYAPUNOV.get(label, N_LYAPUNOV_DEFAULT), seed=rnd.randrange(2**31))

        def call(_, cond=cond, data=data, region=region, dims=dims, gammas=extra.get("gammas")):
            return checker.check_lyapunov(cond, data, E12, region, dims, gammas=gammas)

        out.append(_library_input(label, expected, call, writer, threaded=False))
    return out


def jet_table(field, rows: int, rng: np.random.Generator) -> TabulatedField:
    """Exact jets of a shipped field at random points with gauge radius in (0.05, 6)."""
    g = rng.standard_normal((rows, field.dim))
    r = np.exp(rng.uniform(np.log(0.05), np.log(6.0), rows))
    pts = hgroup.dilate(r / hgroup.hnorm(g), g)
    return TabulatedField(
        pts, field.value(pts), field.gradient(pts), field.hessian(pts),
        name=f"{field.name}-table", singular_radii=field.singular_radii,
    )


def tabulated_subset(rnd: random.Random, writer: ReportWriter) -> list[Input]:
    """check_tabulated on u4/u5 jet tables wider than the checked region."""
    cases = [
        ("u4", E15, OperatorSpec("pucci_max", "subsolution", ell=E15)),
        ("u5", E12, OperatorSpec("pucci_max", "supersolution", ell=E12)),
    ]
    out = []
    for d, rows in ROWS_BY_D.items():
        for prof, e, spec in cases:
            table = jet_table(_field(prof, e, d), rows, np.random.default_rng(rnd.randrange(2**31)))
            region = Region(0.1, 5.0, seed=rnd.randrange(2**31), char_eps=0.02)

            def call(_, table=table, spec=spec, region=region):
                return checker.check_tabulated(table, spec, region)

            label = f"{prof}.{spec.second_order}.table.d{d}"
            inp = _library_input(label, "pass", call, writer)
            inp.table_coverage = (
                hgroup.hnorm(table.points), region.rho_min, region.rho_max, table.singular_radii
            )
            out.append(inp)
    return out


def judge(inp: Input, got: Outcome, reference: bytes | None) -> list[str]:
    """Reasons this call counts as failed; empty if it is correct."""
    problems = []
    if got.verdict != inp.expected:
        problems.append(f"{inp.label}: got {got.verdict}, expected {inp.expected}")
    if not got.report:
        problems.append(f"{inp.label}: no report written")
    elif reference is not None and got.report != reference:
        problems.append(f"{inp.label}: report differs from the reference bytes")
    if inp.formula and not (
        got.max_rel_deviation is not None and got.max_rel_deviation <= FORMULA_TOL
    ):
        problems.append(f"{inp.label}: max_rel_deviation {got.max_rel_deviation} > {FORMULA_TOL}")
    return problems


def build(workload: str, seed: int, work: str) -> list[Input]:
    rnd = random.Random(f"{workload}:{seed}")
    path = os.path.join(work, f"report-{os.getpid()}.json")
    return {
        "radial_dense": radial_dense,
        "lyapunov_growth": lyapunov_growth,
        "tabulated_subset": tabulated_subset,
    }[workload](rnd, ReportWriter(path))
