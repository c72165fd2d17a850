"""The four workloads: their inputs, their timed operation and its check.

A workload is built from the checkout root and the benchmark seed.  Its
`setup` imports what it needs, builds the inputs and warms up; `keys` lists
the operations of one pass in the seed's order; `run(key)` is the timed call
and `check(key, result)` the untimed comparison with the expected output,
returning None or the reason it failed.

- `cli-cold`: one fresh `python -m posetar.cli` process per call, small
  subcommands, where interpreter start and imports dominate.
- `knit-deep`: the default eager `knit` of `ex57` and `rys30e` to completion:
  long inverse-translate chains on large modules, no splitting.
- `witness-search`: `not_fcy_witness` on `ex33-boxes4` and `ex33-poset1..3`:
  knits cut by the mesh budget, quotient candidates, splitting with
  polynomial factoring, derived-translate checks.
- `family-sweep`: criterion 9's per-poset procedure over nine posets of its
  iterated-clamping family, many small calls into the same layers, and the
  only workload that runs slices, decomposition trees and isomorphism tests.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

CLI_CALLS = [
    ("fcy", "corpus:star-2-2"),
    ("tau", "corpus:star-2-2", "S(c2_2)"),
    ("ext", "corpus:ex25-chain4", "S(1)", "S(2)", "1"),
    ("resolve", "corpus:ex25-chain4", "S(1)"),
    ("clamped", "corpus:sec2-left"),
    ("ic", "corpus:ex57"),
    ("fintype", "corpus:ex58-poset1"),
    ("fcy", "corpus:ex33-poset2"),
]
KNIT_IDS = ["ex57", "rys30e"]
WITNESS_IDS = ["ex33-boxes4", "ex33-poset1", "ex33-poset2", "ex33-poset3"]
CHILD_TIMEOUT_S = 60.0


def sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def import_posetar(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import posetar.cli  # noqa: F401  (the whole package, as a user gets it)


def module(name: str):
    """A posetar module.  Workloads call through its namespace on every call,
    so that functions a tracer has wrapped there are the ones that run; the
    package itself rebinds some module names (`posetar.knit` is a function)."""
    return importlib.import_module(f"posetar.{name}")


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, expected: dict, work: Path) -> None:
        self.root = root
        self.seed = seed
        self.expected = expected
        self.work = work  # scratch directory inside the checkout
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def keys(self) -> list:
        raise NotImplementedError

    def run(self, key):
        raise NotImplementedError

    def check(self, key, result) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def units(self, key, result) -> int:
        """Work units an operation completed (meshes on knit-deep)."""
        return 0


# -- cli-cold --------------------------------------------------------------------


def cli_key(call) -> str:
    return " ".join(call)


class CliCold(Workload):
    """Fresh-process CLI calls with a pinned environment.

    Children run the checked-out `src/` through PYTHONPATH with bytecode
    cached in a private directory under the benchmark's work directory, which
    set-up creates empty and warms, so nothing is written into the tree and no
    installed copy of posetar is measured.
    """

    name = "cli-cold"

    def __init__(self, root, seed, expected, work) -> None:
        super().__init__(root, seed, expected, work)
        self.tmp: Path | None = None
        self.env: dict[str, str] = {}
        self.tracer_dir: Path | None = None  # set when children run traced
        self.trace_files: list[Path] = []

    def setup(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work))
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "POSETAR_"))}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(self.tmp / "pycache")
        self.env = env
        code, out, err, _ = self.spawn(["-m", "posetar.cli", "corpus"])
        if code != 0:
            raise RuntimeError(f"warming the CLI failed with exit {code}: {err.strip()}")

    def spawn(self, args: list[str]) -> tuple[int, str, str, int]:
        """Run one child to completion: exit code, stdout, stderr, peak RSS in KiB."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=self.env, cwd=self.tmp,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            usage.ru_maxrss,
        )

    def keys(self) -> list:
        calls = list(CLI_CALLS)
        self.rng.shuffle(calls)
        return calls

    def run(self, call):
        if self.tracer_dir is None:
            return self.spawn(["-m", "posetar.cli", *call])
        trace_file = self.tracer_dir / f"child-{len(self.trace_files)}.json"
        self.trace_files.append(trace_file)
        tracer = str(Path(__file__).with_name("tracer.py"))
        return self.spawn([tracer, str(trace_file), str(len(self.trace_files) - 1), *call])

    def check(self, call, result) -> str | None:
        code, out, err, _ = result
        want = self.expected["cli"][cli_key(call)]
        if "Traceback" in err:
            return "traceback on stderr"
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        if out != want["stdout"]:
            return f"stdout {out!r}, expected {want['stdout']!r}"
        return None

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


# -- knit-deep --------------------------------------------------------------------


class KnitDeep(Workload):
    name = "knit-deep"

    def setup(self) -> None:
        import_posetar(self.root)
        from posetar.corpus import corpus_poset

        self.knit_mod = module("knit")
        self.posets = {cid: corpus_poset(cid) for cid in KNIT_IDS}
        self.knit_mod.knit(corpus_poset("star-2-2"))

    def keys(self) -> list:
        ids = list(KNIT_IDS)
        self.rng.shuffle(ids)
        return ids

    def run(self, cid):
        return self.knit_mod.knit(self.posets[cid])

    def check(self, cid, comp) -> str | None:
        got = sha256_json(comp.to_json())
        if got != self.expected["knit"][cid]:
            return f"knit JSON digest {got[:12]} differs from the recorded one"
        return None

    def units(self, cid, comp) -> int:
        return comp.meshes


# -- witness-search ------------------------------------------------------------------


class WitnessSearch(Workload):
    name = "witness-search"

    def setup(self) -> None:
        import_posetar(self.root)
        from posetar.corpus import corpus_poset

        self.witness_mod = module("witness")
        self.posets = {cid: corpus_poset(cid) for cid in WITNESS_IDS}
        self.witness_mod.not_fcy_witness(corpus_poset("star-2-2"), rng=random.Random(0))

    def keys(self) -> list:
        ids = list(WITNESS_IDS)
        self.rng.shuffle(ids)
        return ids

    def run(self, cid):
        return self.witness_mod.not_fcy_witness(self.posets[cid], rng=random.Random(0))

    def check(self, cid, w) -> str | None:
        got = None if w is None else {"verdict": w.verdict, "describe": w.describe(self.posets[cid])}
        want = self.expected["witness"][cid]
        if got != want:
            return f"witness {got}, expected {want}"
        return None


# -- family-sweep ------------------------------------------------------------------------


class FamilySweep(Workload):
    """Criterion 9's per-poset procedure over the family drawn from the seed."""

    name = "family-sweep"
    MAX_MESHES = 50
    MAX_DIM = 150
    SAMPLE = 5
    SAMPLE_DIM = 18

    def setup(self) -> None:
        import_posetar(self.root)
        from family import SHAPE_SEED, family

        self.m = {name: module(name) for name in ("homalg", "ictree", "knit", "rep", "slices")}
        self.family = family(self.seed)
        self.pinned = self.seed == SHAPE_SEED
        self.by_name = {P.name: P for P in self.family}
        smallest = min(self.family, key=lambda P: P.n)
        self.run(smallest.name)

    def keys(self) -> list:
        return [P.name for P in self.family]

    def run(self, name):
        ictree, slices, knit = self.m["ictree"], self.m["slices"], self.m["knit"]
        homalg, rep = self.m["homalg"], self.m["rep"]
        P = self.by_name[name]
        rng = random.Random(0)
        sl = slices.standard_slice(P, ictree.ic_decompose(P))
        report = slices.verify_slice(sl)
        comp = knit.knit(P, max_meshes=self.MAX_MESHES, max_total_dim=self.MAX_DIM)
        sampled = [v for v in comp.tau_map if comp.vertex(v).rep.total_dim() <= self.SAMPLE_DIM]
        samples = []
        for v in sampled[: self.SAMPLE]:
            M = comp.vertex(v).rep
            seq = knit.ar_sequence_end(M, rng, check_indecomposable=False)
            t1, t2 = homalg.tau(M), homalg.transpose_dual_tau(M)
            iso = t1 is not None and t2 is not None and rep.is_isomorphic(t1, t2)
            samples.append((v, seq, t1, iso))
        opp = None
        if comp.status == "complete":
            opp = knit.knit(P.opposite(), max_meshes=self.MAX_MESHES, max_total_dim=self.MAX_DIM)
        return report, comp, samples, opp

    @staticmethod
    def _mesh_failure(comp) -> str | None:
        P = comp.poset
        for v, u in comp.tau_map.items():
            middles = comp.in_arrows(v)
            for x in P.elements():
                if sum(comp.vertex(m).rep.dims[x] for m in middles) != (
                    comp.vertex(v).rep.dims[x] + comp.vertex(u).rep.dims[x]
                ):
                    return f"mesh ending at vertex {v} is not additive"
        return None

    def check(self, name, result) -> str | None:
        report, comp, samples, opp = result
        if not report.ok:
            return "verify_slice failed: " + report.describe()
        for c in (comp, opp):
            reason = c is not None and self._mesh_failure(c)
            if reason:
                return reason
        for v, seq, t1, iso in samples:
            got = sorted(tuple(comp.vertex(m).rep.dims) for m in comp.in_arrows(v))
            want = sorted(tuple(r.dims) for r, mult in seq.middles for _ in range(mult))
            if got != want:
                return f"AR sequence middles at vertex {v} differ from the knitted mesh"
            if not iso:
                return f"tau and transpose_dual_tau disagree at vertex {v}"
        if opp is not None:
            if opp.status != "complete":
                return "opposite knit did not complete"
            if sorted(v.rep.dims for v in opp.vertices) != sorted(v.rep.dims for v in comp.vertices):
                return "opposite knit has other dimension vectors"
            if len(opp.projective_vertices()) != len(comp.injective_vertices()):
                return "opposite projectives do not match injectives"
        if self.pinned and self.expected["family"][name] != self.digest(result):
            return "digest differs from the recorded one"
        return None

    @staticmethod
    def digest(result) -> str:
        report, comp, samples, opp = result
        return sha256_json(
            {
                "slice": report.describe(),
                "knit": comp.to_json(),
                "opposite": None if opp is None else opp.to_json(),
                "samples": [
                    [v, sorted(list(r.dims) for r, m in seq.middles for _ in range(m)), list(t1.dims)]
                    for v, seq, t1, _ in samples
                ],
            }
        )


WORKLOADS = {
    "cli-cold": CliCold,
    "knit-deep": KnitDeep,
    "witness-search": WitnessSearch,
    "family-sweep": FamilySweep,
}

