"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
wl.import_posetar(ROOT)

import family  # noqa: E402  (needs posetar on the path)


def test_every_end_to_end_metric_is_printed_by_name_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "knit-deep", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    text = "\n".join(out[:-1])
    for name in ("setup_s", "peak_rss_mb", "fail_ratio", "knit_meshes_per_s"):
        assert name in text
    assert "higher is better" in text and "lower is better" in text


def test_seed_changes_the_family_inputs():
    def texts(seed):
        return [P.to_text() for P in family.family(seed)]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)
    assert texts(family.SHAPE_SEED) == [P.to_text() for P in family.pinned_family()]
    assert sorted(P.n for P in family.family(7)) == sorted(P.n for P in family.pinned_family())


def _witness_pass(expected):
    w = wl.WitnessSearch(ROOT, 0, expected, HERE / "_work")
    w.setup()
    w.keys = lambda: ["ex33-poset1", "ex33-poset2"]
    tally = run.Tally()
    tally.one_pass(w)
    return tally


def test_wrong_expected_output_raises_fail_ratio():
    expected = json.loads((HERE / "expected.json").read_text())
    assert _witness_pass(expected).failed == 0
    expected["witness"]["ex33-poset2"]["describe"] += " (tampered)"
    tally = _witness_pass(expected)
    assert tally.attempted == 2 and tally.failed == 1


def test_tracer_wraps_every_binding_and_counts_repeat():
    import posetar
    import posetar.cli
    from posetar.corpus import corpus_poset

    knit_mod = sys.modules["posetar.knit"]
    original = knit_mod.tau_inverse
    runs = []
    for _ in range(2):
        P = corpus_poset("star-2-3")
        t = tracer.Tracer()
        t.install()
        try:
            assert knit_mod.tau_inverse is not original
            assert sys.modules["posetar.homalg"].tau_inverse is knit_mod.tau_inverse
            assert posetar.knit is sys.modules["posetar.witness"].knit
            posetar.cli.main(["knit", "corpus:star-2-3"])
            posetar.knit(P)
        finally:
            t.uninstall()
        assert knit_mod.tau_inverse is original
        runs.append({k: v for k, (v, unit) in tracer.layer_metrics(tracer.merge([t.state()])).items()
                     if unit == "count"})
    assert runs[0] == runs[1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(tracer.layer_metrics(tracer.merge([t.state()]))) | {
        "cli.interp_s", "cli.import_s", "trace.overhead"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    assert runs[0]["knit.knit.calls"] == 2 and runs[0]["homalg.tau_inverse.calls"] > 0
