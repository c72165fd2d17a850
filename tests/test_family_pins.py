"""sha256 pins of the family-sweep computations, bases included.

The nine posets are the first nine of `conftest.random_ic_family()`, one of
each size 4-12: the shapes the benchmark's family-sweep workload runs.  Each
digest covers, for one poset, the knit at 50 meshes and total dimension 150
with every vertex module's JSON; the knit of the opposite poset when the
first one completes; at the first five non-projective vertices of total
dimension <= 18, ar_sequence_end (tau M and the middle terms with their
multiplicities), tau and transpose_dual_tau; and the verify_slice report of
the standard slice.  Re-record them only in a change that means to change
the bases the algebra layers pick.
"""

import hashlib
import json

import pytest

from conftest import random_ic_family
from posetar.homalg import tau, transpose_dual_tau
from posetar.ictree import ic_decompose
from posetar.knit import ar_sequence_end, knit
from posetar.slices import standard_slice, verify_slice

MAX_MESHES, MAX_DIM, SAMPLE, SAMPLE_DIM = 50, 150, 5, 18

FAMILY_DIGESTS = {
    "random-ic-0": "20a9364095b50cbc15008d2d9717a4c5325710b7ebe8e2b0b2a2369b68778860",
    "random-ic-1": "a83c3eb616e3bd9ea86c8319f712446a7d223eb6da01fc3e3a15225ca3c5d9d6",
    "random-ic-2": "1fcb0e1b2b142ab3d0bd349855263c3440b037481d760bedd84d037e8d7644ff",
    "random-ic-3": "7ec2ac6f1ea65f25d77f1f7eeb5145551505b450f8424b016a8422151c82c2de",
    "random-ic-4": "c43fd4c7e6af6b5b7d9df25bd02988665fffb4109a14c16c74f998fb400d8ac3",
    "random-ic-5": "3504cee8f3d6125fad347531820d428bfda25755ef1a8cf734f93bd7a1920889",
    "random-ic-6": "82aca1ec0943d888ca8f853851c0ec87d036d101ee49c92426e8079bf70bf2bb",
    "random-ic-7": "499b8419de9ad37678bc3d8829e5bcf207670fd63645f45d815744b9c34e3610",
    "random-ic-8": "929ca7275813bdc481096de86597b26c577e2e5f0b0844d3a94bed6f024d4609",
}


def _knit_json(comp):
    return {"knit": comp.to_json(), "reps": [v.rep.to_json() for v in comp.vertices]}


def _module_json(M):
    return None if M is None else M.to_json()


def family_blob(P) -> dict:
    """Everything the digest of P hashes."""
    report = verify_slice(standard_slice(P, ic_decompose(P)))
    comp = knit(P, max_meshes=MAX_MESHES, max_total_dim=MAX_DIM)
    opp = None
    if comp.status == "complete":
        opp = _knit_json(knit(P.opposite(), max_meshes=MAX_MESHES, max_total_dim=MAX_DIM))
    samples = []
    for v in [v for v in comp.tau_map if comp.vertex(v).rep.total_dim() <= SAMPLE_DIM][:SAMPLE]:
        M = comp.vertex(v).rep
        seq = ar_sequence_end(M, check_indecomposable=False)
        samples.append({
            "vertex": v,
            "tau_end": seq.tau_end.to_json(),
            "middles": [[m.to_json(), mult] for m, mult in seq.middles],
            "tau": _module_json(tau(M)),
            "transpose_dual_tau": _module_json(transpose_dual_tau(M)),
        })
    return {"slice": report.describe(), "knit": _knit_json(comp), "opposite": opp, "samples": samples}


FAMILY = {P.name: P for P in random_ic_family()[:9]}


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_family_is_pinned(name):
    blob = json.dumps(family_blob(FAMILY[name]), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FAMILY_DIGESTS[name]
