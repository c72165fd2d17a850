"""posetar benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the `src/` tree there.
Workloads are listed in `workloads.py`, metrics in `../BENCHMARK.json`.

Untraced (`--trace 0`), it sets the workload up three times and reports the
median set-up time, then repeats full passes over the workload's inputs until
`--seconds` have passed, checking every output.  Traced (`--trace 1`), it
makes one untraced pass and one pass under the tracer, which wraps the public
entry points of every layer from outside, and reports per-layer call counts,
inclusive and self times, the tracing overhead, and the interpreter-start
and import times of a fresh CLI process.  Spans go to `_out/`.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per run; setup_s is their median
PROBES = 5  # fresh processes per interpreter-start or import probe

# name, unit, direction
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_s", "s", "lower"),
]

# Per-layer calls that must be non-zero on a workload: the layer map in
# README.md ties these layers to it.
TIED = {
    "cli-cold": [
        "poset.parse_poset", "clamped.enumerate_clamped", "ictree.ic_plus_decompose",
        "homalg.min_projective_resolution", "homalg.tau", "split.is_indecomposable",
        "witness.is_fractionally_cy", "linalg.Mat.rref",
    ],
    "knit-deep": [
        "linalg.Mat.rref", "linalg.Mat.mul", "rep.Morphism.cokernel",
        "homalg.min_injective_resolution", "homalg.tau_inverse", "knit.knit",
    ],
    "witness-search": [
        "clamped.enumerate_clamped", "knit.knit", "knit.ar_sequence_end", "split.split_once",
        "witness.not_fcy_witness", "witness.derived_translate_is_module", "rep.hom",
    ],
    "family-sweep": [
        "ictree.ic_decompose", "slices.standard_slice", "slices.verify_slice", "knit.knit",
        "knit.ar_sequence_end", "homalg.tau", "homalg.transpose_dual_tau", "rep.is_isomorphic",
        "linalg.Mat.rref",
    ],
}


class Tally:
    """Outcomes and wall times of the operations of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.pass_s: list[float] = []
        self.units = 0
        self.child_rss_kb = 0

    def one_pass(self, w: wl.Workload, label: str = "", tracer=None) -> float:
        total = 0.0
        for key in w.keys():
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            try:
                t = time.perf_counter()
                result = w.run(key)
                dt = time.perf_counter() - t
                reason = w.check(key, result)
                self.units += w.units(key, result)
            except Exception:  # an operation that raises is a failed operation
                print(f"{w.name} {key}: raised", file=sys.stderr)
                traceback.print_exc()
                self.failed += 1
                continue
            if isinstance(w, wl.CliCold):
                self.child_rss_kb = max(self.child_rss_kb, result[3])
            if reason is not None:
                print(f"{w.name} {label}{key}: {reason}", file=sys.stderr)
                self.failed += 1
            self.op_s.append(dt)
            total += dt
        self.pass_s.append(total)
        return total


def percentile_tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def setup_in_child(args) -> float:
    """Time a set-up in a fresh process, imports included."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed(w: wl.Workload, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.one_pass(w)
        if time.perf_counter() - start >= seconds:
            return tally


def probe_cli(root: Path, work: Path) -> dict[str, tuple[float, str]]:
    """Interpreter start and import of posetar.cli, each in fresh processes."""
    cli = wl.CliCold(root, 0, {}, work)
    try:
        cli.setup()

        def wall(args):
            t = time.perf_counter()
            code = cli.spawn(args)[0]
            if code != 0:
                raise RuntimeError(f"probe {args} exited {code}")
            return time.perf_counter() - t

        interp = statistics.median(wall(["-c", "pass"]) for _ in range(PROBES))
        imp = statistics.median(wall(["-c", "import posetar.cli"]) for _ in range(PROBES))
    finally:
        cli.close()
    return {"cli.interp_s": (interp, "s"), "cli.import_s": (imp - interp, "s")}


def traced(w: wl.Workload, args, root: Path, work: Path):
    tally = Tally()
    plain = tally.one_pass(w, "untraced ")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    if isinstance(w, wl.CliCold):
        w.tracer_dir = w.tmp
        traced_s = tally.one_pass(w, "traced ")
        states = [json.loads(p.read_text()) for p in w.trace_files]
    else:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced_s = tally.one_pass(w, "traced ", tracer)
        finally:
            tracer.uninstall()
        states = [tracer.state()]
    agg = tr.merge(states)
    metrics = tr.layer_metrics(agg)
    metrics.update(probe_cli(root, work))
    metrics["trace.overhead"] = (traced_s / plain - 1.0, "ratio")
    tr.write_spans(out_dir / f"spans-{w.name}-{args.seed}.json.gz", states)
    missing = [n for n in TIED[w.name] if agg["calls"][n] == 0]
    for n in missing:
        print(f"self-check: {n} was never called on {w.name}", file=sys.stderr)
    print(f"traced pass {traced_s:.4f} s, untraced pass {plain:.4f} s, {agg['spans']} spans")
    return tally, metrics, not missing


def report_lines(w: wl.Workload, tally: Tally, setup_s: float, rss_mb: float) -> list[str]:
    """The headline metrics of this workload, by name, unit and direction."""
    n = len(tally.op_s)
    rows = [
        ("setup_s", setup_s, "s", "lower", f"median of {SETUPS} set-ups"),
        ("peak_rss_mb", rss_mb, "MB", "lower",
         "largest CLI child" if w.name == "cli-cold" else "benchmark process"),
        ("fail_ratio", tally.failed / tally.attempted, "ratio", "lower",
         f"{tally.failed} of {tally.attempted} operations"),
    ]
    if w.name == "cli-cold":
        rows.append(("cli_call_s_p50", statistics.median(tally.op_s), "s", "lower", f"n={n} calls"))
        tail = percentile_tail(tally.op_s)
        if tail is None:
            rows.append(("cli_call_s_tail", float("nan"), "s", "lower", f"n={n}, fewer than 11 calls"))
        else:
            rows.append(("cli_call_s_tail", tail[0], "s", "lower",
                         f"p{tail[1]:.0f} of n={n} calls, 10 beyond it"))
    elif w.name == "knit-deep":
        rows.append(("knit_meshes_per_s", tally.units / sum(tally.op_s), "1/s", "higher",
                     f"{tally.units} meshes in {len(tally.pass_s)} passes"))
    else:
        name = "witness_s" if w.name == "witness-search" else "sweep_s"
        rows.append((name, statistics.median(tally.pass_s), "s", "lower",
                     f"median of {len(tally.pass_s)} passes of {n // len(tally.pass_s)} posets"))
    return [f"{name:<18} {value:>11.4f} {unit:<5} {better} is better  ({note})"
            for name, value, unit, better, note in rows]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "posetar" / "__init__.py").is_file():
        print(f"error: no posetar source tree at {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    w = wl.WORKLOADS[args.workload](root, args.seed, expected, work)
    try:
        if args.setup_only:
            w.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        if isinstance(w, wl.CliCold):
            setups = []
            for _ in range(SETUPS):
                t = time.perf_counter()
                w.setup()
                setups.append(time.perf_counter() - t)
        else:
            w.setup()
            setups = [time.perf_counter() - T0]
            setups += [setup_in_child(args) for _ in range(SETUPS - 1)]
        setup_s = statistics.median(setups)
        if args.trace:
            tally, metrics, ok = traced(w, args, root, work)
        else:
            tally, ok = timed(w, args.seconds), True
    finally:
        w.close()
    if w.name == "cli-cold":
        rss_mb = tally.child_rss_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {w.name}  seed {args.seed}  passes {len(tally.pass_s)}  "
          f"operations {tally.attempted}")
    for line in report_lines(w, tally, setup_s, rss_mb):
        print(line)
    if not args.trace:
        values = {"setup_s": setup_s, "peak_rss_mb": rss_mb, "pass_s": statistics.median(tally.pass_s)}
        metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    print(json.dumps({
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
