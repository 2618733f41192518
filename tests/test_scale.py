"""A verdict does not depend on the field's scale.

Every table operator is positively 1-homogeneous, so c u is a sub- or
supersolution exactly when u is (c > 0).  For c a power of two every jet,
eigenvalue, operator value, magnitude and allowance of c u is c times that of
u, bit for bit, so a run on c u must end as the run on u does: the same
verdict, counts and witness row, and c times its worst violation.  The cases
include the paper's critical tail (u4 at Lam / lam = 1.5, which passes at
tol 0 only up to rounding) and a real failure (log rho at Lam / lam =
0.9 (Q - 1)), which an absolute floor passed at small c and failed at large c.
"""

import dataclasses

import numpy as np
import pytest

from heispde import operators
from heispde.checker import OperatorSpec, Region, TabulatedField, check_inequality, check_tabulated, sample_region
from heispde.gallery import field_from_profile, make_profile
from heispde.hgroup import HeisDims
from heispde.operators import Ellipticity

E15 = Ellipticity(1.0, 1.5)
SCALES = [2.0**k for k in (-40, -20, 20, 40)]
U4_REGION = Region(0.1, 5.0, n_samples=4096, seed=0)
LOG_REGION = Region(0.5, 4.0, n_samples=4096, seed=0, char_eps=0.05)


def _log_rho_fails(d):
    """pucci_max on log rho as a supersolution at Lam / lam = 0.9 (Q - 1), where it fails."""
    return OperatorSpec("pucci_max", "supersolution", ell=Ellipticity(1.0, 0.9 * (HeisDims(d).Q - 1)))


# (profile, d, spec, region, verdict or None): every table operator at least once.
CASES = [
    ("u4", 1, OperatorSpec("pucci_max", ell=E15), U4_REGION, "pass"),
    ("u4", 4, OperatorSpec("pucci_max", ell=E15), U4_REGION, "pass"),
    ("log_rho", 1, _log_rho_fails(1), LOG_REGION, "fail"),
    ("log_rho", 4, _log_rho_fails(4), LOG_REGION, "fail"),
    ("log_rho", 2, OperatorSpec("pucci_min", ell=E15), LOG_REGION, None),
    ("log_rho", 2, OperatorSpec("pucci_plus_alpha", alpha=0.125), LOG_REGION, None),
    ("log_rho", 2, OperatorSpec("pucci_minus_alpha", "supersolution", alpha=0.125), LOG_REGION, None),
    ("u4", 2, OperatorSpec("pnorm", p=3.0), U4_REGION, None),
    ("folland", 2, OperatorSpec("neg_trace", "supersolution"), U4_REGION, None),
    ("u2", 3, OperatorSpec("pucci_max", "supersolution", ell=E15), U4_REGION, None),
]
assert {case[2].second_order for case in CASES} == set(operators.OPERATORS)


def _scaled_field(name, dims, c):
    """The field of c times the profile: every piece's sign times c, so every jet is c times u's."""
    profile = make_profile(name, E15, dims)
    pieces = tuple(dataclasses.replace(p, sign=c * p.sign) for p in profile.pieces)
    return field_from_profile(dataclasses.replace(profile, pieces=pieces), dims)


def _runs(name, d, spec, region, tol):
    """c -> (spectral, dense, tabulated) reports on c u, for c = 1 and every scale."""
    dims = HeisDims(d)
    base = _scaled_field(name, dims, 1.0)
    batch = sample_region(region, space=base.space, dim=base.dim, singular_radii=base.singular_radii)
    pts = batch.place(np.flatnonzero(batch.admissible))
    jets = (base.value(pts), base.gradient(pts), base.hessian(pts))
    out = {}
    for c in [1.0, *SCALES]:
        field = _scaled_field(name, dims, c)
        # A field whose name is not its profile's takes the dense path.
        dense = dataclasses.replace(field, name="dense")
        table = TabulatedField(pts, *(c * jet for jet in jets), space=base.space)
        out[c] = (check_inequality(field, spec, region, tol), check_inequality(dense, spec, region, tol),
                  check_tabulated(table, spec, region, tol))
    return out


def _counts(rep):
    guard = rep.paths["guard"] or {}
    return (rep.verdict, rep.n_evaluated, rep.n_excluded, rep.excluded_by, rep.paths["chart"], rep.paths["placed"],
            guard.get("n"), guard.get("n_solved"), guard.get("n_overflow"))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("name,d,spec,region,verdict", CASES)
def test_a_field_times_a_power_of_two_gets_the_same_verdict_counts_and_witness(name, d, spec, region, verdict, tol):
    runs = _runs(name, d, spec, region, tol)
    assert verdict is None or [rep.verdict for rep in runs[1.0]] == [verdict] * 3
    for c in SCALES:
        for base, rep in zip(runs[1.0], runs[c]):
            assert _counts(rep) == _counts(base), c
            assert rep.witness["row"] == base.witness["row"], c
            assert rep.worst_violation == c * base.worst_violation, c
            assert rep.witness["allowance"] == c * base.witness["allowance"], c
