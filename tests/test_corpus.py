"""tools/corpus.py: how two report corpora are compared."""

import importlib.util
import json
import pathlib
import sys

import numpy as np

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
