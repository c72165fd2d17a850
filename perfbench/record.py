"""Record the expected outputs of every workload into expected.json.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are the reference.  The
benchmark compares every later run against this file.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    expected = {"cli": {}, "knit": {}, "witness": {}, "family": {}}

    cli = wl.CliCold(root, 0, expected, work)
    cli.setup()
    try:
        for call in wl.CLI_CALLS:
            code, out, err, _ = cli.run(call)
            if code != 0 or "Traceback" in err:
                raise SystemExit(f"{call}: exit {code}: {err}")
            expected["cli"][wl.cli_key(call)] = {"exit": code, "stdout": out}
    finally:
        cli.close()

    knit = wl.KnitDeep(root, 0, expected, work)
    knit.setup()
    for cid in wl.KNIT_IDS:
        expected["knit"][cid] = wl.sha256_json(knit.run(cid).to_json())

    search = wl.WitnessSearch(root, 0, expected, work)
    search.setup()
    for cid in wl.WITNESS_IDS:
        w = search.run(cid)
        expected["witness"][cid] = (
            None if w is None else {"verdict": w.verdict, "describe": w.describe(search.posets[cid])}
        )

    from family import SHAPE_SEED

    sweep = wl.FamilySweep(root, SHAPE_SEED, expected, work)
    sweep.setup()
    sweep.pinned = False  # no digests yet: check the properties that hold for any seed
    for name in sweep.keys():
        result = sweep.run(name)
        reason = sweep.check(name, result)
        if reason is not None:
            raise SystemExit(f"{name}: {reason}")
        expected["family"][name] = sweep.digest(result)

    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
