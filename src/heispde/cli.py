"""Command line front end.

Subcommands
    verify       sampled inequality (or closed-form comparison) for a field
    lyapunov     growth-condition check for a built-in coefficient fixture
    op-eval      evaluate one extremal operator on explicit matrices
    gallery list describe the shipped radial profiles

Every option is one row of OPTIONS: its flag is the name with `_` spelled
`-`, its config key is the name itself.  Options can come from a JSON
config file (--config) and are overridden by flags; unknown config keys are
rejected.  Reports are written with --out as JSON whose floats are Python's
shortest round-trip repr, so identical inputs produce identical files except
for the wall_time entry.

Exit codes: 0 verified, 1 inequality or condition failed, 2 usage or config
error, 3 vacuous run (no admissible sample points).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

import numpy as np

from . import checker, gallery, operators
from .checker import OperatorSpec, Region
from .gallery import PROFILES, ProfileRegimeError
from .hgroup import HeisDims
from .operators import Ellipticity

__all__ = ["FIXTURES", "OPTIONS", "main", "run_fixture", "write_json_report"]

SCHEMA = checker.SCHEMA

_EXIT_BY_VERDICT = {"pass": 0, "fail": 1, "vacuous": 3}
# A negative number that argparse would take for a flag.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-inf|-nan", re.IGNORECASE)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic output


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite number")
    return repr(float(x))


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False, default=_plain)


def _atomic_write(path: str, write) -> None:
    """Call write(fh) on a temporary file, then move it onto path."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json_report(path: str, payload: dict) -> None:
    """Serialize payload deterministically and move it into place atomically."""
    text = _dumps(payload) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))


def _payload(command: str, report: checker.CheckReport) -> dict:
    return {"schema": SCHEMA, "command": command, **report.to_dict()}


# ---------------------------------------------------------------------------
# option plumbing


def _as_float(v):
    if isinstance(v, bool):
        raise ValueError("expected a number")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _as_int(v):
    """An int, or an integral float or a string of either: "1e3" as a flag reads as 1e3 in a config."""
    if isinstance(v, bool):
        raise ValueError("expected an integer")
    if isinstance(v, str):
        try:
            return int(v)  # exact above 2^53
        except ValueError:
            v = float(v)
    i = int(v)  # refuses NaN and inf
    if i != v:
        raise ValueError(f"expected an integer, got {v!r}")
    return i


def _as_bool(v):
    if isinstance(v, bool):
        return v
    raise ValueError(f"expected true/false, got {v!r}")


def _as_str(v):
    if isinstance(v, str):
        return v
    raise ValueError(f"expected a string, got {v!r}")


def _one_of(*options):
    def conv(v):
        s = _as_str(v)
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    conv.choices = options
    return conv


def _as_gammas(v):
    if isinstance(v, str):
        parts = [p for p in v.split(",") if p.strip()]
        return tuple(_as_float(p) for p in parts)
    if isinstance(v, (list, tuple)):
        return tuple(_as_float(x) for x in v)
    raise ValueError("gammas must be a comma-separated string or a list")


def _as_array(v) -> np.ndarray:
    """A JSON array given inline, as @file, or already parsed."""
    if isinstance(v, str):
        if v.startswith("@"):
            with open(v[1:], encoding="utf-8") as fh:
                v = json.load(fh)
        else:
            v = json.loads(v)
    return np.asarray(v, dtype=float)


def _as_matrix(v):
    arr = _as_array(v)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("matrix must be a square matrix or a list of them")
    return arr


def _as_vector(v):
    arr = _as_array(v)
    if arr.ndim == 1:
        arr = arr[None]
    if arr.ndim != 2:
        raise ValueError("vector must be flat or a list of flat vectors")
    return arr


_SECOND_ORDER = _one_of(*operators.OPERATORS)
_ELLIPTICITY = {"lam": (1.0, _as_float), "Lam": (2.0, _as_float)}
_FIELD = {
    "field": (None, _one_of(*sorted(PROFILES))),
    "kappa": (None, _as_float),
    "negate": (False, _as_bool),
    "d": (1, _as_int),
    **_ELLIPTICITY,
}
_REGION = {
    "rho_min": (0.5, _as_float),
    "rho_max": (4.0, _as_float),
    "n_samples": (4096, _as_int),
    "seed": (0, _as_int),
    "char_eps": (1e-3, _as_float),
    "kink_eps": (1e-6, _as_float),
}

# command -> option name -> (default, converter).  Flags and config values
# both reach the converter; flags arrive as strings.
OPTIONS: dict[str, dict[str, tuple]] = {
    "verify": {
        **_FIELD,
        **_REGION,
        "op": (None, _SECOND_ORDER),
        "sense": (None, _one_of("subsolution", "supersolution")),
        "alpha": (None, _as_float),
        "p": (None, _as_float),
        "tol": (1e-9, _as_float),
        "compare_formula": (False, _as_bool),
        "field_table": (None, _as_str),
        "out": (None, _as_str),
    },
    "lyapunov": {
        "fixture": (None, _one_of("zero-coeffs", "schro", "hou", "ou")),
        "d": (1, _as_int),
        **_ELLIPTICITY,
        "gamma0": (1.0, _as_float),
        "c0": (1.0, _as_float),
        "gammas": (None, _as_gammas),
        **_REGION,
        "tol": (1e-9, _as_float),
        "out": (None, _as_str),
    },
    "op-eval": {
        "op": (None, _SECOND_ORDER),
        **_ELLIPTICITY,
        "alpha": (None, _as_float),
        "p": (None, _as_float),
        "matrix": (None, _as_matrix),
        "q": (None, _as_vector),
        "out": (None, _as_str),
    },
    "gallery": {
        "d": (None, _as_int),
        "lam": (None, _as_float),
        "Lam": (None, _as_float),
        "json": (False, _as_bool),
        "out": (None, _as_str),
    },
}

_HELP = {
    "verify": "check an inequality for a shipped field",
    "lyapunov": "check a growth condition fixture",
    "op-eval": "evaluate an extremal operator",
    "gallery": "describe the shipped radial profiles",
}


def _join_negative_values(argv: list) -> list:
    """argv with `--flag -1e3` joined as `--flag=-1e3`, so argparse reads -1e3 as
    the value, not as a flag, for every value option."""
    value_flags = {
        "--" + name.replace("_", "-")
        for options in OPTIONS.values()
        for name, (_, conv) in options.items()
        if conv is not _as_bool
    }
    out = []
    for token in argv:
        if out and out[-1] in value_flags and _NEGATIVE_NUMBER.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heispde",
        description="sampled verification of fully nonlinear operator "
        "inequalities on the first Heisenberg-type groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=_HELP[command])
        if command == "gallery":
            p.add_argument("action", choices=["list"])
        p.add_argument("--config")
        for name, (_, conv) in options.items():
            flag = "--" + name.replace("_", "-")
            if conv is _as_bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, choices=getattr(conv, "choices", None))
    return parser


def _read_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("config must be a JSON object")
    return raw


def _effective(ns: argparse.Namespace) -> dict:
    """Defaults, then config values, then flags, each through its converter."""
    options = OPTIONS[ns.command]
    eff = {name: default for name, (default, _) in options.items()}
    config = _read_config(ns.config) if ns.config else {}
    flags = {k: v for k, v in vars(ns).items() if k in options and v is not None}
    for source, given in (("config key", config), ("flag", flags)):
        for key, value in given.items():
            if key not in options:
                raise CliError(f"unknown config key {key!r} for {ns.command}")
            try:
                eff[key] = None if value is None else options[key][1](value)
            except (ValueError, TypeError, OverflowError) as exc:  # int(1e400) overflows
                raise CliError(f"{source} {key!r}: {exc}") from exc
    return eff


def _region_from(eff: dict) -> Region:
    return Region(**{name: eff[name] for name in _REGION})


def _field_from(eff: dict):
    name = eff["field"]
    if name is None:
        raise CliError("--field is required")
    needs = PROFILES[name].needs
    if eff["kappa"] is not None and "kappa" not in needs:
        raise CliError(f"--kappa is read by the power field only, not by {name!r}")
    dims = HeisDims(eff["d"])
    e = Ellipticity(eff["lam"], eff["Lam"])
    profile = gallery.make_profile(name, e if "e" in needs else None, dims, kappa=eff["kappa"])
    field = gallery.field_from_profile(profile, dims)
    if eff["negate"]:
        field = -field
    return field, e, dims


def _summary(line_prefix: str, report: checker.CheckReport) -> None:
    worst = report.worst_violation
    w = "none" if worst is None else format(worst, ".6e")
    print(
        f"{line_prefix}: verdict={report.verdict} worst_violation={w} "
        f"n_evaluated={report.n_evaluated} n_excluded={report.n_excluded}"
    )


def _write_field_table(path: str, report: checker.CheckReport, field) -> None:
    """One row per admissible sample; a run without one (no samples) writes the header alone."""
    samples = report.samples
    n_eig = field.dim - (field.space == "heisenberg")  # the horizontal Hessian's, or the Euclidean one's
    header = (
        ["space"]
        + [f"x{i + 1}" for i in range(field.dim)]
        + ["radius", "tau", "value", "second_order", "first_order", "total", "alive"]
        + [f"eig{i + 1}" for i in range(n_eig)]
    )

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(0 if samples is None else samples["points"].shape[0]):
            tau = "" if samples["tau"] is None else _format_float(samples["tau"][i])
            writer.writerow(
                [field.space, *map(_format_float, samples["points"][i]), _format_float(samples["radius"][i]), tau]
                + [_format_float(samples[k][i]) for k in ("value", "second", "first", "total")]
                + [int(samples["alive"][i]), *map(_format_float, samples["eigs"][i])]
            )

    _atomic_write(path, write)


def _cmd_verify(eff: dict) -> int:
    field, e, _ = _field_from(eff)
    op, sense = PROFILES[eff["field"]].checked_as
    op, sense = eff["op"] or op, eff["sense"] or sense
    ell = e if operators.OPERATORS[op].param == "ell" else None
    spec = OperatorSpec(op, sense, ell=ell, alpha=eff["alpha"], p=eff["p"])
    mode = "formula" if eff["compare_formula"] else "sense"
    report = checker.check_inequality(
        field, spec, _region_from(eff), eff["tol"], mode=mode, keep_samples=eff["field_table"] is not None
    )
    if eff["field_table"] is not None:
        _write_field_table(eff["field_table"], report, field)
    if eff["out"]:
        write_json_report(eff["out"], _payload("verify", report))
    _summary("verify", report)
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_lyapunov(eff: dict) -> int:
    if eff["fixture"] is None:
        raise CliError("--fixture is required (library callers can pass "
                       "arbitrary coefficient families)")
    dims = HeisDims(eff["d"])
    e = Ellipticity(eff["lam"], eff["Lam"])
    cond, data, extra = checker.lyapunov_fixture(
        eff["fixture"], dims, gamma0=eff["gamma0"], c0=eff["c0"], gammas=eff["gammas"]
    )
    report = checker.check_lyapunov(
        cond, data, e, _region_from(eff), dims, gammas=extra.get("gammas"), tol=eff["tol"]
    )
    if eff["out"]:
        write_json_report(eff["out"], _payload("lyapunov", report))
    _summary(f"lyapunov[{cond}]", report)
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_op_eval(eff: dict) -> int:
    if eff["op"] is None or eff["matrix"] is None:
        raise CliError("op-eval needs --op and --matrix")
    op = eff["op"]
    params = {"alpha": eff["alpha"], "p": eff["p"]}
    if operators.OPERATORS[op].param == "ell":
        params["ell"] = Ellipticity(eff["lam"], eff["Lam"])
    values, eigs = operators.evaluate(op, eff["matrix"], params, eff["q"])
    payload = {
        "schema": SCHEMA,
        "command": "op-eval",
        "kind": "op_eval",
        "op": op,
        "params": {
            "lam": eff["lam"],
            "Lam": eff["Lam"],
            "alpha": eff["alpha"],
            "p": eff["p"],
            "zero_tol": operators.ZERO_TOL,
        },
        "values": np.atleast_1d(values),
        "eigenvalues": eigs,
    }
    if eff["out"]:
        write_json_report(eff["out"], payload)
    for v in np.atleast_1d(values):
        print(_format_float(float(v)))
    return 0


def _cmd_gallery(eff: dict) -> int:
    dims = None if eff["d"] is None else HeisDims(eff["d"])
    e = None
    if eff["lam"] is not None or eff["Lam"] is not None:
        if eff["lam"] is None or eff["Lam"] is None or dims is None:
            raise CliError("gallery list reads --lam and --Lam together, and only with --d")
        e = Ellipticity(eff["lam"], eff["Lam"])
    rows = gallery.profile_catalog(e, dims)
    payload = {"schema": SCHEMA, "command": "gallery", "kind": "gallery", "rows": rows}
    if eff["out"]:
        write_json_report(eff["out"], payload)
    if eff["json"]:
        print(_dumps(payload))
    else:
        for row in rows:
            bits = [f"{row['name']:<12}", f"{row['kind']:<11}"]
            if "exponent" in row and row["exponent"] is not None:
                bits.append(f"exponent={row['exponent']:.6g}")
            if "valid" in row:
                bits.append("ok" if row["valid"] else "out-of-regime")
            bits.append(row["description"])
            print("  ".join(bits))
    return 0


_DISPATCH = {
    "verify": _cmd_verify,
    "lyapunov": _cmd_lyapunov,
    "op-eval": _cmd_op_eval,
    "gallery": _cmd_gallery,
}


# Named invocations with known outcomes, used for determinism checks and as
# documentation of working command lines.
FIXTURES: dict[str, dict] = {
    "verify-log-rho": {
        "argv": [
            "verify", "--field", "log_rho", "--op", "pucci_min",
            "--sense", "subsolution", "--d", "2", "--lam", "1.0", "--Lam", "2.0",
            "--rho-min", "0.5", "--rho-max", "4.0", "--n-samples", "512",
            "--char-eps", "0.05", "--seed", "7",
        ],
        "expected_exit": 0,
    },
    "verify-log-rho-formula": {
        "argv": [
            "verify", "--field", "log_rho", "--op", "pucci_min",
            "--sense", "subsolution", "--d", "2", "--lam", "1.0", "--Lam", "2.0",
            "--rho-min", "0.5", "--rho-max", "4.0", "--n-samples", "512",
            "--char-eps", "0.05", "--seed", "7", "--compare-formula",
        ],
        "expected_exit": 0,
    },
    "verify-u4": {
        "argv": [
            "verify", "--field", "u4", "--d", "1", "--lam", "1.0", "--Lam", "1.5",
            "--rho-min", "0.1", "--rho-max", "5.0", "--n-samples", "512",
            "--char-eps", "0.02", "--seed", "3",
        ],
        "expected_exit": 0,
    },
    "verify-u-tilde": {
        "argv": [
            "verify", "--field", "u_tilde", "--d", "2",
            "--rho-min", "0.25", "--rho-max", "4.0", "--n-samples", "512",
            "--char-eps", "0.05", "--seed", "5",
        ],
        "expected_exit": 0,
    },
    "verify-power-steep": {
        "argv": ["verify", "--field", "power", "--kappa", "-20", "--d", "1", "--tol", "0", "--n-samples", "512"],
        "expected_exit": 0,
    },
    "lyapunov-zero-coeffs": {
        "argv": [
            "lyapunov", "--fixture", "zero-coeffs", "--d", "1",
            "--lam", "1.0", "--Lam", "2.0", "--rho-min", "1.0", "--rho-max", "8.0",
            "--n-samples", "512", "--seed", "11",
        ],
        "expected_exit": 1,
    },
    "lyapunov-schro": {
        "argv": [
            "lyapunov", "--fixture", "schro", "--d", "1",
            "--lam", "1.0", "--Lam", "2.0", "--rho-min", "10.0", "--rho-max", "80.0",
            "--n-samples", "512", "--seed", "13",
        ],
        "expected_exit": 0,
    },
    "lyapunov-hou": {
        "argv": [
            "lyapunov", "--fixture", "hou", "--gamma0", "1.0", "--d", "1",
            "--lam", "1.0", "--Lam", "2.0", "--rho-min", "2.0", "--rho-max", "16.0",
            "--n-samples", "512", "--seed", "17",
        ],
        "expected_exit": 0,
    },
    "lyapunov-ou": {
        "argv": [
            "lyapunov", "--fixture", "ou", "--d", "1",
            "--lam", "1.0", "--Lam", "2.0", "--rho-min", "2.5", "--rho-max", "20.0",
            "--n-samples", "512", "--seed", "19",
        ],
        "expected_exit": 0,
    },
    "op-eval-pucci": {
        "argv": [
            "op-eval", "--op", "pucci_max", "--lam", "1.0", "--Lam", "2.0",
            "--matrix", "[[1.0, 0.0], [0.0, -1.0]]",
        ],
        "expected_exit": 0,
    },
    "gallery-list": {
        "argv": ["gallery", "list", "--d", "1", "--lam", "1.0", "--Lam", "2.0"],
        "expected_exit": 0,
    },
}


def run_fixture(name: str, out: str | None = None) -> int:
    """Run a named fixture, optionally writing its report to out."""
    entry = FIXTURES[name]
    argv = list(entry["argv"])
    if out is not None:
        argv += ["--out", out]
    return main(argv)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        eff = _effective(ns)
        return _DISPATCH[ns.command](eff)
    except (CliError, ProfileRegimeError, ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
