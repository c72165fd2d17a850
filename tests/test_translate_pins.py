"""sha256 pins of the translates, the resolutions and (co)induction, bases included.

Each digest covers every knit vertex of total dimension <= 12 of one corpus
id over one field: tau, tau_inverse and transpose_dual_tau; the labels,
scalar matrices and cover blocks of the minimal projective resolution; the
same for the minimal injective resolution and its coaugmentation; and induce
and coinduce, both along the identity and from the restriction to an up-set
or down-set.  Re-record them only in a change that means to change the bases
the algebra layers pick.
"""

import hashlib
import json

import pytest

from posetar.corpus import corpus_poset
from posetar.homalg import (
    coinduce,
    induce,
    min_injective_resolution,
    min_projective_resolution,
    tau,
    tau_inverse,
    transpose_dual_tau,
)
from posetar.knit import knit
from posetar.linalg import QQ, Field
from posetar.rep import restrict

MAX_DIM = 12

# (source, field): (vertices pinned, sha256)
TRANSLATE_DIGESTS = {
    ("star-2-2", "rationals"): (25, "53257794e7f74242f5372c0892f9f2203cf492a1173a59e77a25f60b5cfacef9"),
    ("star-2-2", "gf(5)"): (25, "342c1857b70c78b1592846f8828edfc454faf5e444b6de9d1177f4cb37b35ae6"),
    ("ex33-poset1", "rationals"): (11, "b506142966f7bef52ed2142f3385c72ee38399911762d7b1a7c9e1caf74518b2"),
    ("ex33-poset1", "gf(5)"): (11, "a74252b788dd22daff58cf7e368d9de0bf9cdc1e58019ea11b9e2311bf247634"),
    ("ex57", "rationals"): (122, "93394ec124a3436d5cfbeb499719750eac70de65515226304b0176b9b0960c74"),
    ("ex57", "gf(5)"): (122, "1c3c93fe1ba863f52b29b18586ef8f7731d32ecfae3208f51381e7d5bdb2cd32"),
    ("sec2-right", "rationals"): (29, "b74f1b10f1aee3fe7c4522cb69f00c5517842bf8d88af33fefc1f500734df927"),
    ("sec2-right", "gf(5)"): (29, "5469856a34652454528ed7a80d538a7b8eb21f4fdc91eadbf8f02c8ac8704f4e"),
}


def _mat_json(m):
    return [m.r, m.c, [[str(v) for v in row] for row in m.rows]]


def _module_json(M):
    return None if M is None else M.to_json()


def _resolution_json(C, aug):
    return {
        "labels": [list(lab) for lab in C.labels],
        "mats": [_mat_json(m) for m in C.mats],
        "blocks": [_mat_json(b) for b in aug.blocks],
    }


def _vertex_json(M):
    P = M.poset
    order = P.linear_extension()
    sup = [x for x in order if M.dims[x]]
    U, _, ids_up = restrict(M, P.up_set(sup[0]))
    D, _, ids_down = restrict(M, P.down_set(sup[-1]))
    identity = list(P.elements())
    return {
        "tau": _module_json(tau(M)),
        "tau_inverse": _module_json(tau_inverse(M)),
        "transpose_dual_tau": _module_json(transpose_dual_tau(M)),
        "proj": _resolution_json(*min_projective_resolution(M)),
        "inj": _resolution_json(*min_injective_resolution(M)),
        "induce": [_module_json(induce(M, P, identity)), _module_json(induce(U, P, ids_up))],
        "coinduce": [_module_json(coinduce(M, P, identity)), _module_json(coinduce(D, P, ids_down))],
    }


@pytest.mark.parametrize("source, fieldname", sorted(TRANSLATE_DIGESTS))
def test_translates_are_pinned(source, fieldname):
    field = QQ if fieldname == "rationals" else Field(5)
    comp = knit(corpus_poset(source), field)
    blob = [_vertex_json(v.rep) for v in comp.vertices if v.rep.total_dim() <= MAX_DIM]
    got = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
    assert (len(blob), got) == TRANSLATE_DIGESTS[(source, fieldname)]
