"""Command-line interface: one subcommand per operation, deterministic output.

Poset arguments accept a file path or `corpus:<id>` for a bundled example.
Output depends only on the input and the version: no subcommand draws on a
seed or reads an environment variable.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .clamped import enumerate_clamped
from .errors import NotIndecomposable, PosetarError
from .homalg import ext as ext_dim
from .homalg import min_projective_resolution, tau as tau_op
from .ictree import (
    build_tree,
    finite_type_criterion,
    ic_plus_decompose,
    parse_tree,
    tree_to_poset,
)
from .knit import ar_sequence_end, embed_in_ZT, knit
from .linalg import Field, QQ
from .modexpr import describe_module, parse_module
from .poset import Poset, parse_poset
from .slices import standard_slice, verify_slice
from .split import is_indecomposable
from .witness import is_fractionally_cy, not_fcy_witness


def _load_poset(source: str) -> Poset:
    if source.startswith("corpus:"):
        cid = source[len("corpus:"):]
        try:
            return corpus_mod.corpus_poset(cid)
        except KeyError:
            raise PosetarError(f"unknown corpus id {cid!r} (see `posetar corpus`)") from None
    return parse_poset(Path(source).read_text(), name=Path(source).stem)


def _field(text: str) -> Field:
    """argparse type of --field: `rationals` or `gf:<p>` for a prime p < 2^31."""
    if text == "rationals":
        return QQ
    digits = text[3:] if text.startswith("gf:") else ""
    if digits.isdigit() and int(digits) >= 2:
        try:
            return Field(int(digits))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"unknown field {text!r} (use rationals or gf:<p>, p a prime below 2^31)")


def _nonnegative(text: str) -> int:
    """argparse type of the Ext degree and the budgets: a nonnegative integer."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, not {text!r}")
    return int(text)


def _decompose(P: Poset):
    node = ic_plus_decompose(P)
    if node is None:
        raise PosetarError("poset admits no iterated-clamping decomposition")
    return node


def cmd_parse(args, out) -> None:
    P = _load_poset(args.poset)
    print(f"poset {P.name or '(unnamed)'}: {P.n} elements, {len(P.covers)} covers", file=out)
    print(P.to_text(), end="", file=out)


def cmd_hasse(args, out) -> None:
    print(_load_poset(args.poset).to_dot(), end="", file=out)


def cmd_clamped(args, out) -> None:
    P = _load_poset(args.poset)
    for iv in enumerate_clamped(P):
        print(f"[{P.names[iv.low]},{P.names[iv.high]}]", file=out)


def cmd_ic(args, out) -> None:
    P = _load_poset(args.poset)
    node = ic_plus_decompose(P)
    if node is None:
        print("not in IC/IC+", file=out)
        return
    flavor = "IC+" if node.uses_adjoin() else "IC"
    print(f"{flavor} decomposition:", file=out)
    print(node.render(P), file=out)


def cmd_tree(args, out) -> None:
    P = _load_poset(args.poset)
    T = build_tree(_decompose(P), P)
    print(T.to_dot(), end="", file=out)


def cmd_fcy(args, out) -> None:
    P = _load_poset(args.poset)
    decision = is_fractionally_cy(
        P, assume_infinite_type=args.assume_infinite_type, field=args.field, mesh_budget=args.max_meshes
    )
    print(decision.render(), file=out)


def cmd_fintype(args, out) -> None:
    P = _load_poset(args.poset)
    verdict, reason = finite_type_criterion(P)
    print(f"{verdict} ({reason})", file=out)


def cmd_fromtree(args, out) -> None:
    T, _ = parse_tree(Path(args.treefile).read_text())
    P = tree_to_poset(T, T.marked)
    print(P.to_text(), end="", file=out)


def cmd_resolve(args, out) -> None:
    P = _load_poset(args.poset)
    M = parse_module(P, args.module, args.field)
    C, _ = min_projective_resolution(M)
    print(C.describe(), file=out)


def cmd_ext(args, out) -> None:
    P = _load_poset(args.poset)
    M = parse_module(P, args.module_m, args.field)
    N = parse_module(P, args.module_n, args.field)
    print(ext_dim(M, N, args.degree), file=out)


def cmd_tau(args, out) -> None:
    P = _load_poset(args.poset)
    M = parse_module(P, args.module, args.field)
    if not is_indecomposable(M):
        raise NotIndecomposable("tau expects an indecomposable module")
    t = tau_op(M)
    print("0 (module is projective)" if t is None else describe_module(P, t), file=out)


def cmd_mesh(args, out) -> None:
    P = _load_poset(args.poset)
    M = parse_module(P, args.module, args.field)
    seq = ar_sequence_end(M)
    mids = "  +  ".join(
        describe_module(P, rep) + (f" x{mult}" if mult > 1 else "")
        for rep, mult in seq.middles
    )
    print(f"{describe_module(P, seq.tau_end)}  ->  {mids}  ->  {describe_module(P, seq.end)}", file=out)


def cmd_slice(args, out) -> None:
    P = _load_poset(args.poset)
    sl = standard_slice(P, _decompose(P), args.field)
    for v in range(sl.tree.n):
        mark = " *" if v == sl.marked else ""
        print(f"{v}: {describe_module(P, sl.modules[v])}{mark}", file=out)


def cmd_verify_slice(args, out) -> None:
    P = _load_poset(args.poset)
    sl = standard_slice(P, _decompose(P), args.field)
    report = verify_slice(sl)
    print(report.describe(), file=out)
    if not report.ok:
        raise PosetarError("slice verification failed")


def cmd_knit(args, out) -> None:
    P = _load_poset(args.poset)
    comp = knit(P, args.field, max_meshes=args.max_meshes, max_total_dim=args.max_dim)
    print(f"status: {comp.status}", file=out)
    print(f"vertices: {len(comp.vertices)}  meshes: {comp.meshes}", file=out)
    print(
        f"projectives: {len(comp.projective_vertices())}  "
        f"injectives: {len(comp.injective_vertices())}",
        file=out,
    )
    embedding = None
    node = ic_plus_decompose(P)
    if node is not None:
        try:
            embedding = embed_in_ZT(comp, standard_slice(P, node, args.field))
        except PosetarError:
            embedding = None
    if embedding is not None:
        for orbit in sorted(embedding.orbits):
            vids = embedding.orbits[orbit]
            fvals = " ".join(str(comp.vertex(v).fomega) for v in vids)
            lo, hi = embedding.orbit_levels(orbit)
            print(f"orbit {orbit} levels [{lo},{hi}] f: {fvals}", file=out)
    for note in comp.notes:
        print(f"note: {note}", file=out)
    if args.dot:
        Path(args.dot).write_text(comp.to_dot(embedding))
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(comp.to_json(embedding, max_meshes=args.max_meshes), indent=2)
            + "\n"
        )


def cmd_witness(args, out) -> None:
    P = _load_poset(args.poset)
    w = not_fcy_witness(
        P,
        assume_infinite_type=args.assume_infinite_type,
        field=args.field,
        mesh_budget=args.max_meshes,
    )
    if w is None:
        print("no witness found within budget", file=out)
    else:
        print(f"{w.verdict}: {w.describe(P)}", file=out)


def cmd_corpus(args, out) -> None:
    if args.write:
        target = Path(args.write)
        target.mkdir(parents=True, exist_ok=True)
        for cid in corpus_mod.corpus_ids():
            (target / f"{cid}.poset").write_text(corpus_mod.corpus_text(cid))
        print(f"wrote {len(corpus_mod.corpus_ids())} files to {target}", file=out)
    else:
        for cid in corpus_mod.corpus_ids():
            print(cid, file=out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posetar",
        description="Exact Auslander-Reiten theory for finite poset incidence algebras",
    )
    ap.add_argument("--field", type=_field, default="rationals", help="rationals (default) or gf:<p>")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("parse", cmd_parse).add_argument("poset")
    add("hasse", cmd_hasse).add_argument("poset")
    add("clamped", cmd_clamped).add_argument("poset")
    add("ic", cmd_ic).add_argument("poset")
    add("tree", cmd_tree).add_argument("poset")
    p = add("fcy", cmd_fcy)
    p.add_argument("poset")
    p.add_argument("--assume-infinite-type", action="store_true")
    p.add_argument("--max-meshes", type=_nonnegative, default=200)
    add("fintype", cmd_fintype).add_argument("poset")
    add("fromtree", cmd_fromtree).add_argument("treefile")
    p = add("resolve", cmd_resolve)
    p.add_argument("poset")
    p.add_argument("module")
    p = add("ext", cmd_ext)
    p.add_argument("poset")
    p.add_argument("module_m")
    p.add_argument("module_n")
    p.add_argument("degree", type=_nonnegative)
    p = add("tau", cmd_tau)
    p.add_argument("poset")
    p.add_argument("module")
    p = add("mesh", cmd_mesh)
    p.add_argument("poset")
    p.add_argument("module")
    add("slice", cmd_slice).add_argument("poset")
    add("verify-slice", cmd_verify_slice).add_argument("poset")
    p = add("knit", cmd_knit)
    p.add_argument("poset")
    p.add_argument("--max-meshes", type=_nonnegative, default=2000)
    p.add_argument("--max-dim", type=_nonnegative, default=4000)
    p.add_argument("--dot")
    p.add_argument("--json")
    p = add("witness", cmd_witness)
    p.add_argument("poset")
    p.add_argument("--assume-infinite-type", action="store_true")
    p.add_argument("--max-meshes", type=_nonnegative, default=200)
    p = add("corpus", cmd_corpus)
    p.add_argument("--write")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.fn(args, sys.stdout)
    except PosetarError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
