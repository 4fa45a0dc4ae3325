"""The Hermitian-form geometry behind brouwer_polyphase, as tuples and
Block objects: the oracle the tests check the construction's points and
blocks against.

brouwer_polyphase builds its matrix from the isotropic points alone
(etfforge.construct._isotropic_points and _orbit_reps); this module
adds the totally isotropic planes, written out member by member, so
the geometry's counts and its partial-linear-space axioms can be
checked and its bytes pinned.  Its points come from isotropic_points,
the zeros of a whole n^3 cube, not from the norm-fibre listing of
_isotropic_points, and its orbit representatives from orbit_reps, a
minimum over every image, not from the one-table _orbit_reps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from etfforge.construct import _HermitianForm, _points
from etfforge.gf import FiniteField



@dataclass(frozen=True)
class Block:
    """A block of the quadratic-form geometry: a totally isotropic plane,
    tagged with the closed-form parameters that produced it."""

    kind: str  # "ab" or "a"
    params: tuple
    ovoid_vertex: tuple
    members: tuple

    def __contains__(self, vertex) -> bool:
        return tuple(vertex) in self.members


@dataclass
class BrouwerGeometry:
    q: int
    field: FiniteField
    vertices: list
    ovoid: list
    orbit_reps: list
    blocks: list


def isotropic_points(t: _HermitianForm) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic points in leading-one form as int16 rows: x1 = 1 in
    lexicographic order (the zeros of an n^3 cube, cost about q^6), then
    the ovoid x1 = 0."""
    add, norm = t.field.add, t.norm
    one_plus = add[1, norm]  # 1 + N(x)
    cube = add[add[one_plus[:, None], norm][:, :, None], norm]
    finite = _points(1, *np.nonzero(cube == 0))
    ovoid = np.concatenate(
        [
            _points(0, 1, *np.nonzero(add[one_plus[:, None], norm] == 0)),
            _points(0, 0, 1, *np.nonzero(one_plus == 0)),
        ]
    )
    return finite, ovoid


def orbit_reps(t: _HermitianForm, finite: np.ndarray) -> np.ndarray:
    """One representative per orbit of j . x = (x1, B^j x2, B^j x3, B^j x4)
    on the points with x1 = 1, in q+1 passes, one per image.  The
    representative minimises (not preferred, x), where a preferred member
    has x2 = 0 or x3 = x4 = 0, so the sorted keys list the
    representatives preferred first."""
    n = t.field.order
    rep_keys = np.full(len(finite), 2 * n**3)
    for bj in t.beta_pows:
        x2, x3, x4 = t.field.mul[bj, finite[:, 1:].T].astype(np.int64)
        preferred = (x2 == 0) | ((x3 == 0) & (x4 == 0))
        np.minimum(rep_keys, ((~preferred * n + x2) * n + x3) * n + x4, out=rep_keys)
    rep_keys, sizes = np.unique(rep_keys, return_counts=True)
    if np.any(sizes != t.q + 1):
        raise AssertionError("orbit collapsed; the action should be free")
    return _points(1, rep_keys // (n * n) % n, rep_keys // n % n, rep_keys % n)


def _tuples(points: np.ndarray) -> list:
    """Rows of a 2-d array as tuples of Python ints."""
    return list(zip(*points.T.tolist()))


def _blocks(kind: str, params: np.ndarray, ovoid_vertex: np.ndarray, x2, x3, x4) -> list:
    """Blocks from per-block table rows: the closed-form parameters, the
    ovoid vertex, and the last three coordinates of the n members with
    leading coordinate 1, listed in ascending order."""
    finite = _points(1, x2, x3, x4)
    return [
        Block(
            kind=kind,
            params=tuple(par),
            ovoid_vertex=tuple(ov),
            members=(tuple(ov),) + tuple(_tuples(fin)),
        )
        for par, ov, fin in zip(params.tolist(), ovoid_vertex.tolist(), finite)
    ]


def brouwer_geometry(q: int) -> BrouwerGeometry:
    """Isotropic points and totally isotropic planes of the hermitian-type
    form sum x_l^(q+1) on GF(q^2)^4, with the norm-one group action, as
    tuples and Block objects.

    Blocks come from the two closed forms
    span{(1,0,a,b), (0,1,-B^j b^q, B^j a^q)} with N(a)+N(b) = -1 and
    span{(1,a,0,0), (0,0,1,B^j a)} with N(a) = -1, where B has order q+1.
    """
    t = _HermitianForm(q)
    add, mul, neg = t.field.add, t.field.mul, t.field.neg
    norm, beta_pows = t.norm, t.beta_pows
    minus_one = neg[1]
    finite, ovoid = isotropic_points(t)
    reps = orbit_reps(t, finite)

    d = np.arange(t.field.order)
    # N(a) + N(b) = -1, then every j
    a, b = np.nonzero(add[norm[:, None], norm] == minus_one)
    j = np.tile(np.arange(q + 1), len(a))
    a, b = np.repeat(a, q + 1), np.repeat(b, q + 1)
    w3 = neg[mul[beta_pows[j], t.frob[b]]]
    w4 = mul[beta_pows[j], t.frob[a]]
    blocks = _blocks(
        "ab",
        np.stack([a, b, j], axis=1),
        _points(0, 1, w3, w4),
        d,
        add[a[:, None], mul[d, w3[:, None]]],
        add[b[:, None], mul[d, w4[:, None]]],
    )
    # N(a) = -1, then every j
    (a,) = np.nonzero(norm == minus_one)
    j = np.tile(np.arange(q + 1), len(a))
    a = np.repeat(a, q + 1)
    w4 = mul[beta_pows[j], a]
    blocks += _blocks(
        "a", np.stack([a, j], axis=1), _points(0, 0, 1, w4), a[:, None], d, mul[d, w4[:, None]]
    )

    ovoid = _tuples(ovoid)
    return BrouwerGeometry(
        q=q,
        field=t.field,
        vertices=_tuples(finite) + ovoid,
        ovoid=ovoid,
        orbit_reps=_tuples(reps),
        blocks=blocks,
    )

