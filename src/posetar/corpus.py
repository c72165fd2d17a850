"""Bundled example posets.

Each entry is a `.poset` file body with a stable id.  The collection covers
the worked examples this package is validated against: the two clamping
demonstration posets, stacked-box grids, clamped-chain stars, the two
canonical-algebra-shaped families at small size, and the finite-type family
instances at smallest parameters.
"""

from __future__ import annotations

from .poset import Poset, parse_poset


def star_poset(*lengths: int) -> Poset:
    """Chains of the given lengths clamped between a new min and max."""
    names = ["alpha"]
    rels = []
    for ci, q in enumerate(lengths):
        prev = "alpha"
        for j in range(q):
            nm = f"c{ci + 1}_{j + 1}"
            names.append(nm)
            rels.append((prev, nm))
            prev = nm
        rels.append((prev, "omega"))
    names.append("omega")
    if not lengths:
        rels.append(("alpha", "omega"))
    idx = {nm: i for i, nm in enumerate(names)}
    return Poset(names, [(idx[a], idx[b]) for a, b in rels],
                 name="star-" + "-".join(map(str, lengths)))


def grid2(m: int) -> Poset:
    """The 2 x m grid poset (m-1 stacked boxes)."""
    names = [f"r{i}c{j}" for i in (1, 2) for j in range(1, m + 1)]
    idx = {nm: k for k, nm in enumerate(names)}
    rels = []
    for i in (1, 2):
        for j in range(1, m):
            rels.append((idx[f"r{i}c{j}"], idx[f"r{i}c{j + 1}"]))
    for j in range(1, m + 1):
        rels.append((idx[f"r1c{j}"], idx[f"r2c{j}"]))
    return Poset(names, rels, name=f"grid2x{m}")


_FILES: dict[str, str] = {
    # The pair of posets demonstrating the clamping condition.  In the first,
    # the interval [a,b] is clamped; in the second only singletons and the
    # whole interval are.
    "sec2-left": """\
poset sec2-left
elements t u1 u2 a v1 v2 v3 v4 b x1 x2 w
covers
t < u1
t < u2
t < a
u1 < v1
u1 < v2
u2 < v1
u2 < v2
u2 < a
a < v3
a < v4
v3 < b
v4 < b
b < x2
v1 < x1
v1 < x2
v2 < x1
v2 < x2
x1 < w
x2 < w
b < w
""",
    "sec2-right": """\
poset sec2-right
elements t l r c d z
covers
t < l
t < r
l < c
r < c
r < d
c < z
d < z
""",
    "ex25-chain4": """\
poset ex25-chain4
elements 1 2 3 4
covers
1 < 2
2 < 3
3 < 4
""",
    "ex33-poset1": """\
poset ex33-poset1
elements a 1 2 b
covers
a < 1
a < 2
1 < b
2 < b
""",
    "ex33-poset2": """\
poset ex33-poset2
elements a 1 2 3 4 b
covers
a < 1
a < 2
1 < 3
2 < 3
2 < 4
3 < b
4 < b
""",
    "ex33-poset3": """\
poset ex33-poset3
elements a 1 2 3 4 5 6 b
covers
a < 1
a < 2
1 < 3
2 < 3
2 < 4
3 < 5
4 < 5
4 < 6
5 < b
6 < b
""",
    "ex34-dtilde-r3": """\
poset ex34-dtilde-r3
elements alpha beta2 beta1 delta gamma omega
covers
alpha < beta2
beta2 < beta1
beta2 < delta
beta1 < omega
delta < omega
alpha < gamma
gamma < omega
""",
    "ex34-etilde-r3": """\
poset ex34-etilde-r3
elements alpha beta2 beta1 gamma delta epsilon omega
covers
alpha < beta2
beta2 < beta1
beta1 < omega
alpha < gamma
gamma < delta
gamma < epsilon
beta2 < delta
delta < omega
epsilon < omega
""",
    "sec4-nine": """\
poset sec4-nine
elements alpha a p1 p2 q1 q2 z iota omega
covers
alpha < a
a < p1
p1 < p2
p2 < z
a < q1
q1 < q2
q2 < z
z < omega
alpha < iota
iota < omega
""",
    "ex57": """\
poset ex57
elements alpha beta gamma delta epsilon zeta eta theta iota omega
covers
alpha < beta
beta < gamma
gamma < delta
delta < epsilon
epsilon < eta
eta < theta
theta < omega
gamma < zeta
zeta < eta
alpha < iota
iota < omega
""",
    "ex58-poset1": """\
poset ex58-poset1
elements alpha beta gamma delta epsilon zeta omega
covers
alpha < beta
beta < gamma
beta < delta
gamma < epsilon
delta < epsilon
epsilon < omega
alpha < zeta
zeta < omega
""",
    "ex58-poset2": """\
poset ex58-poset2
elements alpha beta gamma delta epsilon zeta eta theta omega
covers
alpha < beta
beta < gamma
gamma < epsilon
epsilon < eta
beta < delta
delta < zeta
zeta < eta
eta < omega
alpha < theta
theta < omega
""",
    "rys30c-p1": """\
poset rys30c-p1
elements alpha a b d1 d2 c p omega
covers
alpha < a
a < b
b < c
a < d1
d1 < d2
d2 < c
c < omega
alpha < p
p < omega
""",
    "rys30e": """\
poset rys30e
elements alpha b1 b2 b3 d1 d2 z e1 e2 e3 iota omega
covers
alpha < b1
b1 < b2
b2 < b3
b3 < d1
d1 < d2
d2 < e1
b3 < z
z < e1
e1 < e2
e2 < e3
e3 < omega
alpha < iota
iota < omega
""",
}

_GENERATED: dict[str, tuple] = {
    "p-1-2": (1, 2),
    "star-2-2": (2, 2),
    "star-2-3": (2, 3),
    "star-2-4": (2, 4),
    "star-2-5": (2, 5),
    "star-3-3": (3, 3),
    "star-1-1-1": (1, 1, 1),
    "rys28a-p1": (1, 1, 1),
    "rys28b-p2": (1, 2, 2),
    "rys29-n0-p0": (),
    "rys29-n1-p1": (1, 1),
}

_ALIASES = {
    "ex33-boxes4": lambda: grid2(5),
    "rys30a-n1-r1-p1": lambda: parse_poset(_FILES["ex58-poset1"], name="rys30a-n1-r1-p1"),
    "rys30b-q1": lambda: parse_poset(_FILES["ex58-poset1"], name="rys30b-q1"),
    "rys30d": lambda: parse_poset(_FILES["ex57"], name="rys30d"),
}

RYS_IDS = (
    "rys28a-p1",
    "rys28b-p2",
    "rys29-n0-p0",
    "rys30a-n1-r1-p1",
    "rys30b-q1",
    "rys30c-p1",
    "rys30d",
    "rys30e",
)


def corpus_ids() -> list[str]:
    return sorted(set(_FILES) | set(_GENERATED) | set(_ALIASES))


def corpus_poset(cid: str) -> Poset:
    if cid in _FILES:
        return parse_poset(_FILES[cid])
    if cid in _GENERATED:
        P = star_poset(*_GENERATED[cid])
        P.name = cid
        return P
    if cid in _ALIASES:
        return _ALIASES[cid]()
    raise KeyError(f"unknown corpus id {cid!r}")


def corpus_text(cid: str) -> str:
    if cid in _FILES:
        return _FILES[cid]
    return corpus_poset(cid).to_text()
