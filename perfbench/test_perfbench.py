"""Tests of the benchmark's oracle, tracer and metric definitions.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dilationkit import build_block_dilation, naimark_dilate, Ovm  # noqa: E402


def _encode_triple(triple):
    def enc(a):
        return workloads._encode(a) if a.ndim == 2 else [workloads._encode(m) for m in a]
    return {"left": enc(triple.left), "right": enc(triple.right),
            "f_atoms": enc(triple.f_atoms)}


@pytest.fixture(scope="module")
def block_case():
    atoms = workloads.random_general_measure(np.random.default_rng(5))
    return atoms, _encode_triple(build_block_dilation(Ovm(atoms)))


def test_oracle_accepts_the_block_triple(block_case):
    atoms, doc = block_case
    assert workloads.triple_failures(doc, atoms, seed=5) == []


def test_oracle_accepts_a_complex_naimark_triple():
    atoms = workloads.random_povm(np.random.default_rng(6))
    doc = _encode_triple(naimark_dilate(Ovm(atoms)).as_triple())
    assert workloads.triple_failures(doc, atoms, seed=6) == []


@pytest.mark.parametrize("part, index", [("right", (3, 2)), ("left", (0, 100)),
                                         ("f_atoms", (7, 60, 60))])
def test_oracle_rejects_a_perturbed_triple(block_case, part, index):
    atoms, doc = block_case
    broken = json.loads(json.dumps(doc))
    arr = np.array(broken[part])
    arr[index] += 1e-6
    broken[part] = arr.tolist()
    reasons = workloads.triple_failures(broken, atoms, seed=5)
    assert len(reasons) == 1 and "triple misses E(B)" in reasons[0]


def test_written_triple_is_judged_by_its_bytes(tmp_path):
    w = workloads.BlockSampledWrite(5, str(tmp_path))
    w.prepare()
    doc = _encode_triple(build_block_dilation(Ovm(w.atoms)))
    path = tmp_path / workloads.TRIPLE_NAME
    broken = json.loads(json.dumps(doc))
    broken["right"][0][0] += 1e-6
    for triple, verdict_is_empty in ((broken, False), (doc, True), (broken, False)):
        path.write_text(json.dumps(triple))
        assert (w.triple_verdict(str(path)) == []) is verdict_is_empty
    assert len(w.verdicts) == 2


def test_oracle_rejects_contradicting_flags_and_failed_reports(tmp_path):
    w = workloads.PovmNaimark(1, str(tmp_path))
    w.prepare()
    report = {"pass": True, "checks": [], "artifacts": {
        "classification": {"is_probability": True, "is_positive": False},
        "block_ranks": [8] * 16, "total_dim": 128, "sampled": False}}
    reasons = w.check(0, json.dumps(report))
    assert reasons == ["classification is_positive is False, the construction gives True"]
    report["artifacts"]["classification"]["is_positive"] = True
    assert w.check(0, json.dumps(report)) == []
    assert w.check(1, json.dumps(report)) == ["exit code 1"]
    report["pass"] = False
    assert w.check(0, json.dumps(report))[0].startswith("report pass is not true")


def test_inputs_depend_only_on_the_seed(tmp_path):
    docs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.BlockSampledWrite(9, str(tmp_path / sub)).prepare()
        docs.append((tmp_path / sub / workloads.INPUT_NAME).read_bytes())
    assert docs[0] == docs[1]


def test_wrappers_reach_every_namespace_and_are_restored():
    import dilationkit.cli as cli
    import dilationkit.linalg as linalg
    import dilationkit.ovm as ovm
    original = linalg.spectral_norm
    homes = [m for m in list(sys.modules.values())
             if getattr(m, "__name__", "").startswith("dilationkit")
             and vars(m).get("spectral_norm") is original]
    assert {"dilationkit.cli", "dilationkit.ovm", "dilationkit.dilation"} <= {
        m.__name__ for m in homes}
    recorder = tracer.Recorder()
    undo, absent = tracer.install(recorder)
    try:
        assert absent == []
        assert all(m.spectral_norm is not original for m in homes)
        assert cli.spectral_norm is ovm.spectral_norm
        ovm.spectral_norm(np.eye(3))
        ovm.Ovm(np.eye(2)[None]).evaluate(1)
    finally:
        tracer.restore(undo)
    assert all(m.spectral_norm is original for m in homes)
    calls, total, self_s = recorder.spans["linalg.spectral_norm"]
    assert calls == 1 and 0.0 <= self_s <= total
    assert recorder.spans["numpy.linalg.svd"][0] == 1
    assert recorder.spans["ovm.Ovm.evaluate"][0] == 1
    assert recorder.counts["linalg.spectral_norm.max_dim"] == 3
    assert "rng.Xorshift.u64" not in recorder.spans


def test_missing_names_are_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "CLI_PHASES", tracer.CLI_PHASES + ("_gone",))
    monkeypatch.setitem(tracer.COUNTERS, "dilation.gone", lambda c, a, r: None)
    recorder = tracer.Recorder()
    undo, absent = tracer.install(recorder)
    tracer.restore(undo)
    assert absent == ["cli._gone", "dilation.gone"]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10)))["value"] is None
    assert run.tail(list(range(20))) == {"value": 9, "percentile": 50.0, "samples": 20}


def test_benchmark_file_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
