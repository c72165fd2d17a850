"""Per-layer tracing of posetar from outside the program.

`Tracer.install` replaces each traced function in every `posetar.*` module
namespace that holds it (the package re-imports names, as in
`from .homalg import tau_inverse` inside `knit`), and each traced method in
its class.  A wrapper records a span (name, start, end, parent span,
operation id) and keeps per-name call counts, inclusive time and self time,
where self time is the span minus the time its child spans cover.  Some
functions are only counted, because they run millions of times.  Spans stay
in memory and are written out when the run ends.

Run as a script it is the traced child of the `cli-cold` workload:

    python tracer.py OUT.json OP_ID posetar-arguments...

which runs `posetar.cli.main` under the tracer and writes the tracer's data
to OUT.json.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (layer, module, function or Class.method) wrapped with spans.
SPANS = [
    ("linalg", "posetar.linalg", "Mat.rref"),
    ("linalg", "posetar.linalg", "Mat.mul"),
    ("linalg", "posetar.linalg", "Mat.solve"),
    ("linalg", "posetar.linalg", "Mat.nullspace"),
    ("linalg", "posetar.linalg", "span_basis"),
    ("rep", "posetar.rep", "hom"),
    ("rep", "posetar.rep", "Morphism.kernel"),
    ("rep", "posetar.rep", "Morphism.cokernel"),
    ("rep", "posetar.rep", "Morphism.image"),
    ("rep", "posetar.rep", "top"),
    ("rep", "posetar.rep", "radical"),
    ("rep", "posetar.rep", "direct_sum"),
    ("rep", "posetar.rep", "is_isomorphic"),
    ("homalg", "posetar.homalg", "min_projective_resolution"),
    ("homalg", "posetar.homalg", "min_injective_resolution"),
    ("homalg", "posetar.homalg", "tau_inverse"),
    ("homalg", "posetar.homalg", "tau"),
    ("homalg", "posetar.homalg", "transpose_dual_tau"),
    ("homalg", "posetar.homalg", "realize_labels"),
    ("homalg", "posetar.homalg", "realize_scalar_map"),
    ("homalg", "posetar.homalg", "ext_all"),
    ("split", "posetar.split", "end_basis"),
    ("split", "posetar.split", "is_indecomposable"),
    ("split", "posetar.split", "split_once"),
    ("split", "posetar.split", "split_indecomposables"),
    ("knit", "posetar.knit", "knit"),
    ("knit", "posetar.knit", "ar_sequence_end"),
    ("knit", "posetar.knit", "embed_in_ZT"),
    ("witness", "posetar.witness", "not_fcy_witness"),
    ("witness", "posetar.witness", "derived_translate_is_module"),
    ("witness", "posetar.witness", "is_fractionally_cy"),
    ("slices", "posetar.slices", "standard_slice"),
    ("slices", "posetar.slices", "verify_slice"),
    ("ictree", "posetar.ictree", "ic_decompose"),
    ("ictree", "posetar.ictree", "ic_plus_decompose"),
    ("ictree", "posetar.ictree", "build_tree"),
    ("ictree", "posetar.ictree", "classify_tree"),
    ("poset", "posetar.poset", "parse_poset"),
    ("clamped", "posetar.clamped", "enumerate_clamped"),
]

# Spans whose time is not reported, only their call count.
COUNT_ONLY_REPORT = {"ictree.build_tree", "ictree.classify_tree"}

# (counter name, module, Class.method) wrapped with a bare counter.
COUNTS = [
    ("linalg.mat_new", "posetar.linalg", "Mat.__init__"),
    ("poset.Poset.covers_below.calls", "posetar.poset", "Poset.covers_below"),
    ("poset.Poset.covers_above.calls", "posetar.poset", "Poset.covers_above"),
    ("rep.Morphism.is_isomorphism", "posetar.rep", "Morphism.is_isomorphism"),
    ("split.factor_calls", "sympy", "Poly.factor_list"),
]

# A counted call made while a span of one of these names is open is also
# counted as "<counter> in <span>".
NESTED = {
    "rep.Morphism.kernel": ("homalg.min_projective_resolution", "homalg.min_injective_resolution"),
    "knit.knit": ("witness.not_fcy_witness",),
    "rep.Morphism.is_isomorphism": ("rep.is_isomorphic",),
}
RESOLUTIONS = ("homalg.min_projective_resolution", "homalg.min_injective_resolution")


def _owner_and_attr(module: str, target: str):
    mod = importlib.import_module(module)
    if "." in target:
        cls, attr = target.split(".")
        return getattr(mod, cls), attr
    return mod, target


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.depth: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            k = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
            self.depth.append(0)
        return k

    def _active(self, name: str) -> bool:
        k = self._index.get(name)
        return k is not None and self.depth[k] > 0

    def _count_nested(self, name: str) -> None:
        for outer in NESTED.get(name, ()):
            if self._active(outer):
                self.counts[f"{name} in {outer}"] += 1
                break

    def _span_wrapper(self, name: str, fn):
        k = self._name(name)
        perf = time.perf_counter
        nested = name in NESTED
        resolution = name in RESOLUTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nested:
                self._count_nested(name)
            if resolution and not any(self._active(r) for r in RESOLUTIONS):
                self.counts["homalg.resolutions"] += 1
            sid = len(self.span_start)
            self.span_name.append(k)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_op.append(self.op)
            frame = [sid, 0.0]
            self._stack.append(frame)
            self.depth[k] += 1
            t0 = perf()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.span_end.append(t1)
                self._stack.pop()
                self.depth[k] -= 1
                dur = t1 - t0
                self.calls[k] += 1
                if self.depth[k] == 0:
                    self.incl[k] += dur
                self.self_s[k] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            self._on_result(name, result)
            return result

        return wrapper

    def _on_result(self, name: str, result) -> None:
        if name == "split.split_once" and result is not None:
            self.counts["split.split_once.nonnull"] += 1
        elif name == "knit.knit":
            self.counts["knit.meshes"] += result.meshes
            self.counts["knit.vertices"] += len(result.vertices)
            self.counts["knit.truncated"] += result.status == "truncated"

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        nested = name in NESTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if nested:
                self._count_nested(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever a posetar module binds it."""
        importlib.import_module("posetar.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "posetar" or n.startswith("posetar.")]
        for layer, module, target in SPANS:
            name = f"{layer}.{target}"
            owner, attr = _owner_and_attr(module, target)
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(name, original)
            if owner.__class__ is type:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, module, target in COUNTS:
            owner, attr = _owner_and_attr(module, target)
            self._patch(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))
        self.check_installed(modules)

    def check_installed(self, modules) -> None:
        """No posetar namespace may still hold an unwrapped traced function."""
        originals = {id(orig) for _, _, orig in self._patches}
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in originals and callable(value):
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def state(self) -> dict:
        """Aggregates and spans, as plain data."""
        return {
            "names": self.names,
            "calls": self.calls,
            "incl": self.incl,
            "self_s": self.self_s,
            "counts": dict(self.counts),
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }


def merge(states: list[dict]) -> dict:
    """Sum the aggregates of several tracer states (one per child process)."""
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    nspans = 0
    for st in states:
        for k, name in enumerate(st["names"]):
            calls[name] += st["calls"][k]
            incl[name] += st["incl"][k]
            self_s[name] += st["self_s"][k]
        counts.update(st["counts"])
        nspans += len(st["spans"]["name"])
    return {"calls": calls, "incl": incl, "self_s": self_s, "counts": counts, "spans": nspans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    calls, incl, self_s, counts = agg["calls"], agg["incl"], agg["self_s"], agg["counts"]
    for layer, _, target in SPANS:
        name = f"{layer}.{target}"
        out[f"{name}.calls"] = (calls[name], "count")
        if name not in COUNT_ONLY_REPORT:
            out[f"{name}.s"] = (incl[name], "s")
            out[f"{name}.self_s"] = (self_s[name], "s")
    out["linalg.mat_new"] = (counts["linalg.mat_new"], "count")
    out["poset.Poset.covers_below.calls"] = (counts["poset.Poset.covers_below.calls"], "count")
    out["poset.Poset.covers_above.calls"] = (counts["poset.Poset.covers_above.calls"], "count")
    out["rep.iso_trials_per_call"] = (
        _ratio(counts["rep.Morphism.is_isomorphism in rep.is_isomorphic"], calls["rep.is_isomorphic"]),
        "ratio",
    )
    kernels = sum(counts[f"rep.Morphism.kernel in {r}"] for r in RESOLUTIONS)
    out["homalg.kernels_per_resolution"] = (_ratio(kernels, counts["homalg.resolutions"]), "ratio")
    out["split.split_yield"] = (
        _ratio(counts["split.split_once.nonnull"], calls["split.split_once"]),
        "ratio",
    )
    out["split.factor_calls"] = (counts["split.factor_calls"], "count")
    out["knit.meshes"] = (counts["knit.meshes"], "count")
    out["knit.vertices"] = (counts["knit.vertices"], "count")
    out["knit.truncated"] = (counts["knit.truncated"], "count")
    out["witness.knits_per_search"] = (
        _ratio(counts["knit.knit in witness.not_fcy_witness"], calls["witness.not_fcy_witness"]),
        "ratio",
    )
    return out


def write_spans(path, states: list[dict]) -> None:
    """Write every span of the run, gzipped JSON, one record list per process."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump([{"names": st["names"], "spans": st["spans"]} for st in states], fh)


def _child_main(argv: list[str]) -> int:
    out_path, op = argv[0], int(argv[1])
    import posetar.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = op
    try:
        code = posetar.cli.main(argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
