"""Write and compare the report corpus of a checkout.

    python3 tools/corpus.py write DIR [--seeds 0 1 2]
    python3 tools/corpus.py diff A B
    python3 tools/corpus.py manifest [--seeds 0 1 2]

`write` runs, with the package of this checkout (./src):
- every cli.FIXTURES command line, keeping its exit code;
- every perfbench/inputs.py input of the three workloads at each seed;
- op-eval on a fixed batch of matrices for every table operator at each
  seed;
- library check_inequality runs with a Bellman part, which no fixture and
  no benchmark input takes, at each seed (see _library).
It writes each report without wall_time, through the package's own JSON
writer, under DIR/fixtures, DIR/bench/<workload>/seed<k>, DIR/op-eval/seed<k>
and DIR/library/seed<k>, and a manifest.json with the commit, the numpy
version, the CPU features numpy dispatches to (NPY_DISABLE_CPU_FEATURES
switches some off) and the exit codes.  Work files go to a temporary directory.  Once the
whole corpus is written, it exits 1 and names each fixture whose exit code
is not its expected_exit.

`diff` compares two corpora report by report and key by key.  It lists
changed exit codes, verdicts, counts and witnesses apart.  Then, per key path
(list indices written []), it gives how many reports differ there with one
example, for other changes and for key paths found on one side only, and
for floats the largest move in ulp; the fields of a witness that moved to
another point are left out of those moves.  It counts the differing reports
per top-level directory, and lists them only when there are at most 20.  It
exits 1 if an exit code, verdict or count changed, else 0.
Reports differ between numpy's AVX512 and AVX2 kernels, so compare corpora
written on the same dispatch.

`manifest` writes the corpus to a temporary directory and records it in
tests/corpus_manifest.json under this process's dispatch fingerprint (numpy
version, CPU features, NPY_DISABLE_CPU_FEATURES): one SHA-256 per report and
each fixture's exit code.  An entry of another fingerprint is kept, one of the
same is replaced.  tests/test_corpus.py writes the corpus again and compares
it with the entry of its own fingerprint, so a change that moves a report
updates the manifest in the same commit.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

WORKLOADS = ("radial_dense", "lyapunov_growth", "tabulated_subset")
# op-eval batches: matrices per call, and their sizes.
OP_EVAL_ROWS = 16
OP_EVAL_SIZES = (2, 3, 4, 8)
# d of the library runs.
LIBRARY_DIMS = (1, 4)
# diff lists the differing reports' paths only up to this many.
MAX_LISTED = 20
MANIFEST = os.path.join(ROOT, "tests", "corpus_manifest.json")


def _cpu_features() -> list[str]:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return sorted(name for name, on in umath.__cpu_features__.items() if on)


def fingerprint() -> dict:
    """The dispatch a corpus depends on: numpy's version and the CPU features it uses."""
    return {"numpy": np.__version__, "cpu_features": _cpu_features(),
            "disabled_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES", "")}


def _commit() -> str | None:
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True).stdout.strip()

    try:
        return git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def _save(path: str, payload: dict) -> None:
    from heispde import cli

    if isinstance(payload, dict):
        payload.pop("wall_time", None)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    cli.write_json_report(path, payload)


def _run_cli(argv: list[str], out: str) -> int:
    from heispde import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([*argv, "--out", out])


def _library(seed: int):
    """(label, report) of u5 on H^d under pucci_max as a supersolution, with a
    two-control Bellman part (drifts -g and g / 2, costs 1 and 2; g = eta for a
    horizontal family, x for a Euclidean one), on the spectral and the dense
    path (the field without its profile), under the inf and the sup envelope."""
    import dataclasses

    from heispde import checker, gallery, hgroup, operators

    e = operators.Ellipticity(1.0, 1.5)
    costs = (lambda x: np.ones(x.shape[:-1]), lambda x: np.full(x.shape[:-1], 2.0))
    region = checker.Region(0.25, 4.0, n_samples=2048, seed=seed, char_eps=0.05)
    for d in LIBRARY_DIMS:
        dims = hgroup.HeisDims(d)
        field = gallery.field_from_profile(gallery.make_profile("u5", e, dims), dims)
        for space, g in (("horizontal", hgroup.eta), ("euclidean", np.asarray)):
            family = operators.HJBCoefficients((lambda x: -g(x), lambda x: 0.5 * g(x)), costs, space, f"{space} pair")
            for path, f in (("spectral", field), ("dense", dataclasses.replace(field, profile=None))):
                for side in ("inf", "sup"):
                    spec = checker.OperatorSpec("pucci_max", "supersolution", ell=e, first_order=family, envelope=side)
                    yield f"u5.d{d}.{space}.{path}.{side}", checker.check_inequality(f, spec, region).to_dict()


def write(out_dir: str, seeds: list[int]) -> dict:
    """Write the corpus; returns the manifest's fixtures, name -> {exit, expected_exit}."""
    from heispde import cli, operators

    import inputs

    manifest = {"commit": _commit(), **fingerprint(), "seeds": seeds, "fixtures": {}}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for name, entry in cli.FIXTURES.items():
            code = _run_cli(entry["argv"], report)
            manifest["fixtures"][name] = {"exit": code, "expected_exit": entry["expected_exit"]}
            if os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    _save(os.path.join(out_dir, "fixtures", f"{name}.json"), json.load(fh))
                os.remove(report)
        for seed in seeds:
            for workload in WORKLOADS:
                for inp in inputs.build(workload, seed, tmp):
                    got = inp.outcome(inp.call(1))
                    path = os.path.join(out_dir, "bench", workload, f"seed{seed}", f"{inp.label}.json")
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "wb") as fh:
                        fh.write(got.report)
            rng = np.random.default_rng(seed)
            for m in OP_EVAL_SIZES:
                mats = rng.standard_normal((OP_EVAL_ROWS, m, m)) * 10.0 ** rng.integers(-3, 4, (OP_EVAL_ROWS, 1, 1))
                mats = mats + np.swapaxes(mats, 1, 2)
                mats[0] = np.eye(m)  # every eigenvalue tied
                matrix, q = os.path.join(tmp, "matrix.json"), os.path.join(tmp, "q.json")
                with open(matrix, "w") as fh:
                    json.dump(mats.tolist(), fh)
                with open(q, "w") as fh:
                    json.dump(rng.standard_normal((OP_EVAL_ROWS, m)).tolist(), fh)
                for op in operators.OPERATORS:
                    argv = ["op-eval", "--op", op, "--matrix", f"@{matrix}", "--q", f"@{q}",
                            "--alpha", repr(0.5 / m), "--p", "3.0"]
                    if _run_cli(argv, report) != 0:
                        raise SystemExit(f"op-eval {op} on {m} x {m} matrices failed")
                    with open(report, encoding="utf-8") as fh:
                        _save(os.path.join(out_dir, "op-eval", f"seed{seed}", f"{op}.m{m}.json"), json.load(fh))
            for label, payload in _library(seed):
                _save(os.path.join(out_dir, "library", f"seed{seed}", f"{label}.json"), payload)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest["fixtures"]


def _reports(root: str) -> dict[str, str]:
    """Relative path -> absolute path of every report under a corpus."""
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if name.endswith(".json") and rel != "manifest.json":
                found[rel] = path
    return found


def entry(out_dir: str, seeds: list[int]) -> dict:
    """Write the corpus to out_dir; return its manifest entry: fingerprint, seeds, fixture exits, report hashes."""
    fixtures = write(out_dir, seeds)
    hashes = {}
    for rel, path in sorted(_reports(out_dir).items()):
        with open(path, "rb") as fh:
            hashes[rel.replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return {**fingerprint(), "seeds": seeds, "fixtures": fixtures, "reports": hashes}


def recorded(entries: list[dict]) -> int | None:
    """The index of the manifest entry of this process's fingerprint, or None."""
    key = fingerprint()
    return next((k for k, e in enumerate(entries) if all(e[name] == value for name, value in key.items())), None)


def manifest(seeds: list[int]) -> dict:
    """Record this checkout's corpus in MANIFEST under its fingerprint; return the new entry."""
    with tempfile.TemporaryDirectory() as tmp:
        new = entry(tmp, seeds)
    entries = []
    if os.path.exists(MANIFEST):
        with open(MANIFEST, encoding="utf-8") as fh:
            entries = json.load(fh)
    k = recorded(entries)
    if k is None:
        entries.append(new)
    else:
        entries[k] = new
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    return new


def ulps(a: float, b: float) -> int:
    """Doubles between a and b, counting -0.0 and +0.0 as one."""

    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


_MISSING = object()


def differences(a, b, path=""):
    """(key path, a, b) of every leaf where two parsed reports differ; list indices are written []."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            yield from differences(a.get(key, _MISSING), b.get(key, _MISSING), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from differences(x, y, f"{path}[]")
    elif type(a) is not type(b) or repr(a) != repr(b):
        yield path, a, b


def _kind(path: str, a, b) -> str:
    last = path.rsplit(".", 1)[-1]
    if last in ("verdict", "pass"):
        return "verdict"
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
        return "count"
    if isinstance(a, float) and isinstance(b, float):
        return "float"
    return "other"


def diff(dir_a: str, dir_b: str) -> int:
    manifests = []
    for d in (dir_a, dir_b):
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    for label, man in zip("AB", manifests):
        print(f"{label}: commit {man['commit']}, numpy {man['numpy']}, "
              f"NPY_DISABLE_CPU_FEATURES={man['disabled_cpu_features']!r}, {len(man['cpu_features'])} CPU features")
    if manifests[0]["cpu_features"] != manifests[1]["cpu_features"]:
        print("warning: the corpora were written on different CPU dispatches")
    exits = [
        f"  {name}: {fa['exit']} -> {manifests[1]['fixtures'].get(name, {}).get('exit')}"
        for name, fa in manifests[0]["fixtures"].items()
        if fa["exit"] != manifests[1]["fixtures"].get(name, {}).get("exit")
    ]
    reports_a, reports_b = _reports(dir_a), _reports(dir_b)
    common = sorted(reports_a.keys() & reports_b.keys())
    by_kind = {"verdict": [], "count": []}
    witnesses, differing, moves = [], [], {}
    # Key path -> (reports, first example); one-sided paths by side.
    grouped = {"other": {}, "A": {}, "B": {}}
    for rel in common:
        with open(reports_a[rel], "rb") as fa, open(reports_b[rel], "rb") as fb:
            raw_a, raw_b = fa.read(), fb.read()
        if raw_a == raw_b:
            continue
        differing.append(rel)
        rep_a, rep_b = json.loads(raw_a), json.loads(raw_b)
        wa, wb = rep_a.get("witness") or {}, rep_b.get("witness") or {}
        moved = any(wa.get(k) != wb.get(k) for k in ("point", "radius", "tau"))
        if moved:
            witnesses.append(f"  {rel}: radius {wa.get('radius')!r} -> {wb.get('radius')!r}")
        for path, a, b in differences(rep_a, rep_b):
            kind = _kind(path, a, b)
            if kind in by_kind:
                by_kind[kind].append(f"  {rel}: {path}: {a!r} -> {b!r}")
            elif kind == "other":
                side = "A" if b is _MISSING else "B" if a is _MISSING else "other"
                example = {"A": f"{rel}: {a!r}", "B": f"{rel}: {b!r}", "other": f"{rel}: {a!r} -> {b!r}"}[side]
                rels, first = grouped[side].get(path, (set(), example))
                grouped[side][path] = (rels | {rel}, first)
            elif not (moved and path.startswith("witness.")):
                # A moved witness's own fields are another point's, not a move.
                rels, worst = moves.get(path, (set(), (-1, None, None)))
                moves[path] = (rels | {rel}, max(worst, (ulps(a, b), a, b)))
    print(f"reports: {len(common)} in both, {len(common) - len(differing)} byte-identical, "
          f"{len(reports_a.keys() - reports_b.keys())} only in A, {len(reports_b.keys() - reports_a.keys())} only in B")
    for title, lines in (("exit codes", exits), ("verdicts", by_kind["verdict"]), ("counts", by_kind["count"]),
                         ("witnesses moved", witnesses)):
        print(f"{title}: {len(lines) or 'none'}")
        for line in lines:
            print(line)
    for title, key in (("other changes", "other"), ("key paths only in A", "A"), ("key paths only in B", "B")):
        print(f"{title} (key path: reports, one example):" if grouped[key] else f"{title}: none")
        for path, (rels, example) in sorted(grouped[key].items()):
            print(f"  {path}: {len(rels)}, {example}")
    # Per top-level directory; the paths only when few enough to read.
    tops = collections.Counter(rel.split(os.sep, 1)[0] for rel in differing)
    print(f"differing reports: {len(differing) or 'none'}" + "".join(f", {n} in {top}" for top, n in sorted(tops.items())))
    for rel in differing if len(differing) <= MAX_LISTED else ():
        print(f"  {rel}")
    print("float moves (key path: reports, largest move in ulp, its values):" if moves else "float moves: none")
    for path, (rels, (n, a, b)) in sorted(moves.items()):
        print(f"  {path}: {len(rels)}, {n} ulp, {a!r} -> {b!r}")
    return 1 if exits or by_kind["verdict"] or by_kind["count"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write this checkout's report corpus to DIR")
    w.add_argument("dir")
    w.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    d = sub.add_parser("diff", help="compare two corpora")
    d.add_argument("a")
    d.add_argument("b")
    m = sub.add_parser("manifest", help=f"record this checkout's corpus in {os.path.relpath(MANIFEST, ROOT)}")
    m.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    fixtures = write(args.dir, args.seeds) if args.command == "write" else manifest(args.seeds)["fixtures"]
    wrong = {name: f for name, f in fixtures.items() if f["exit"] != f["expected_exit"]}
    for name, f in wrong.items():
        print(f"fixture {name}: exit {f['exit']}, expected {f['expected_exit']}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
