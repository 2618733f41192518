"""tools/corpus.py: how two report corpora are compared."""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "corpus.py"


def _load():
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("heispde_corpus", _TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = path


corpus = _load()


def test_ulps_count_doubles_between_two_values():
    assert corpus.ulps(1.0, np.nextafter(1.0, 2.0)) == 1
    assert corpus.ulps(-0.0, 0.0) == 0
    assert corpus.ulps(-5e-324, 5e-324) == 2
    assert corpus.ulps(2.0, 1.0) == 2**52


def test_differences_name_key_paths_with_list_indices_folded():
    a = {"verdict": "pass", "witness": {"eigenvalues": [1.0, 2.0], "radius": 0.5}, "n": 3}
    b = {"verdict": "pass", "witness": {"eigenvalues": [1.0, 2.5], "radius": 0.5}, "n": 3, "extra": None}
    assert list(corpus.differences(a, b)) == [("witness.eigenvalues[]", 2.0, 2.5), ("extra", corpus._MISSING, None)]
    assert list(corpus.differences({"x": -0.0}, {"x": 0.0})) == [("x", -0.0, 0.0)]
    assert list(corpus.differences({"x": 1}, {"x": 1.0})) == [("x", 1, 1.0)]


def _corpus(root, reports, exits):
    root.mkdir()
    manifest = {"commit": "c", "numpy": "n", "cpu_features": ["F"], "disabled_cpu_features": "",
                "fixtures": {name: {"exit": code, "expected_exit": 0} for name, code in exits.items()}}
    (root / "manifest.json").write_text(json.dumps(manifest))
    for rel, payload in reports.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(json.dumps(payload))
    return str(root)


def test_diff_lists_verdicts_counts_witnesses_and_exit_codes_apart(tmp_path, capsys):
    base = {"verdict": "pass", "n_evaluated": 10, "worst_violation": 1.0, "witness": {"radius": 2.0, "value": 3.0}}
    moved = dict(base, worst_violation=np.nextafter(1.0, 2.0))
    a = _corpus(tmp_path / "a", {"r/same.json": base, "r/ulp.json": base}, {"f": 0})
    b = _corpus(tmp_path / "b", {"r/same.json": base, "r/ulp.json": moved}, {"f": 0})
    assert corpus.diff(a, b) == 0
    out = capsys.readouterr().out
    assert "2 in both, 1 byte-identical" in out and "worst_violation: 1, 1 ulp" in out

    failed = dict(base, verdict="fail", n_evaluated=9, witness={"radius": 2.5, "value": 4.0})
    c = _corpus(tmp_path / "c", {"r/same.json": base, "r/ulp.json": failed}, {"f": 1})
    assert corpus.diff(a, c) == 1
    out = capsys.readouterr().out
    assert "f: 0 -> 1" in out and "r/ulp.json: verdict: 'pass' -> 'fail'" in out
    assert "r/ulp.json: n_evaluated: 10 -> 9" in out and "r/ulp.json: radius 2.0 -> 2.5" in out
    assert "witness.value" not in out  # a moved witness's fields are another point's


def test_diff_groups_other_changes_and_one_sided_key_paths_by_key_path(tmp_path, capsys):
    base = {"schema": "v1", "verdict": "pass", "paths": {"dense": 4, "dense_check": None}}
    renamed = {"schema": "v2", "verdict": "pass", "paths": {"placed": 4, "guard": None}}
    reports = [f"r/{k}.json" for k in range(3)]
    a = _corpus(tmp_path / "a", dict.fromkeys(reports, base), {"f": 0})
    b = _corpus(tmp_path / "b", dict.fromkeys(reports, renamed), {"f": 0})
    assert corpus.diff(a, b) == 0  # a renamed count is not a changed count
    out = capsys.readouterr().out
    assert "other changes (key path: reports, one example):\n  schema: 3, r/0.json: 'v1' -> 'v2'\n" in out
    assert "key paths only in A (key path: reports, one example):\n  paths.dense: 3, r/0.json: 4\n" in out
    assert "  paths.dense_check: 3, r/0.json: None\n" in out
    assert "key paths only in B (key path: reports, one example):\n  paths.guard: 3, r/0.json: None\n" in out
    assert "  paths.placed: 3, r/0.json: 4\n" in out


def test_write_exits_one_naming_each_fixture_off_its_expected_exit(tmp_path, monkeypatch, capsys):
    from heispde import cli

    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    listing = cli.FIXTURES["gallery-list"]
    monkeypatch.setattr(cli, "FIXTURES", {
        "listed": listing,
        "off-by-one": dict(listing, expected_exit=1),
        "usage": {"argv": ["verify"], "expected_exit": 0},
    })
    monkeypatch.setattr(corpus, "WORKLOADS", ())
    monkeypatch.setattr(corpus, "OP_EVAL_SIZES", ())
    monkeypatch.setattr(corpus, "LIBRARY_DIMS", ())
    out = tmp_path / "corpus"
    assert corpus.main(["write", str(out), "--seeds", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["fixture off-by-one: exit 0, expected 1", "fixture usage: exit 2, expected 0"]
    # The whole corpus is written before the exit.
    manifest = json.loads((out / "manifest.json").read_text())
    assert {name: f["exit"] for name, f in manifest["fixtures"].items()} == {"listed": 0, "off-by-one": 0, "usage": 2}
    assert sorted(p.name for p in (out / "fixtures").iterdir()) == ["listed.json", "off-by-one.json"]
    monkeypatch.setattr(cli, "FIXTURES", {"listed": listing})
    assert corpus.main(["write", str(tmp_path / "ok"), "--seeds", "0"]) == 0


def test_diff_counts_differing_reports_per_directory_and_lists_only_a_few(tmp_path, capsys):
    # A schema move changes every report: 182 paths used to follow the grouped sections.
    base, moved = {"verdict": "pass", "x": 1.0}, {"verdict": "pass", "x": 2.0}
    few = ["fixtures/a.json", "op-eval/seed0/b.json", "op-eval/seed0/c.json"]
    a = _corpus(tmp_path / "a", dict.fromkeys(few, base), {"f": 0})
    b = _corpus(tmp_path / "b", dict.fromkeys(few, moved), {"f": 0})
    assert corpus.diff(a, b) == 0
    out = capsys.readouterr().out
    assert "differing reports: 3, 1 in fixtures, 2 in op-eval\n  fixtures/a.json\n  op-eval/seed0/b.json\n" in out

    many = [f"bench/w/seed0/{k}.json" for k in range(corpus.MAX_LISTED)] + ["library/seed0/u.json"]
    a = _corpus(tmp_path / "c", dict.fromkeys(many, base), {"f": 0})
    b = _corpus(tmp_path / "d", dict.fromkeys(many, moved), {"f": 0})
    assert corpus.diff(a, b) == 0
    out = capsys.readouterr().out
    assert "differing reports: 21, 20 in bench, 1 in library\nfloat moves" in out  # no paths between


def test_the_corpus_matches_its_manifest(tmp_path, monkeypatch):
    # A report or fixture exit code that moves fails here; a deliberate move
    # reruns `tools/corpus.py manifest` on each recorded dispatch.
    with open(corpus.MANIFEST, encoding="utf-8") as fh:
        entries = json.load(fh)
    k = corpus.recorded(entries)
    if k is None:
        pytest.skip(f"tests/corpus_manifest.json has no entry for this dispatch: {corpus.fingerprint()}")
    want = entries[k]
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    monkeypatch.setenv("HEISPDE_THREADS", "1")  # the benchmark inputs set it
    got = corpus.entry(str(tmp_path / "corpus"), want["seeds"])
    assert got["fixtures"] == want["fixtures"]
    moved = sorted(rel for rel in want["reports"].keys() | got["reports"].keys()
                   if want["reports"].get(rel) != got["reports"].get(rel))
    assert not moved, (f"{len(moved)} reports moved: {moved}; compare with the base by tools/corpus.py write and diff, "
                       "then rerun tools/corpus.py manifest")
