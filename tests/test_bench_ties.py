"""The layers that the benchmark's self-check ties to `cli-cold` and
`family-sweep` are still reached.

A traced benchmark run reports `correct: false` when a name of
`run.TIED[workload]` reads 0 calls, so a change that routes around a tied
layer fails here, in process, before it fails there.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402

wl.import_posetar(ROOT)

import family  # noqa: E402  (needs posetar on the path)
import run  # noqa: E402
import tracer  # noqa: E402

import posetar.cli  # noqa: E402


def test_tied_layers_are_reached(tmp_path, capsys):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    sweep = wl.FamilySweep(ROOT, family.SHAPE_SEED, expected, tmp_path)
    sweep.setup()
    t = tracer.Tracer()
    t.install()
    try:
        for call in wl.CLI_CALLS:
            code = posetar.cli.main(list(call))
            out = capsys.readouterr().out
            want = expected["cli"][wl.cli_key(call)]
            assert (code, out) == (want["exit"], want["stdout"]), call
        calls = {"cli-cold": tracer.merge([t.state()])["calls"]}
        for name in sweep.keys():
            assert sweep.check(name, sweep.run(name)) is None, name
    finally:
        t.uninstall()
    calls["family-sweep"] = tracer.merge([t.state()])["calls"] - calls["cli-cold"]
    for workload, counted in calls.items():
        assert [n for n in run.TIED[workload] if counted[n] == 0] == [], workload

