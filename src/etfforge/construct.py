"""Constructions of polyphase matrices whose |.|^2 is a BIBD(v, k, 1)
and whose columns form an equiangular tight frame at every nontrivial
character.

Conventions shared by everything below:

* field elements are ordered zero first, then ascending powers of the
  designated generator alpha;
* group elements are indexed mixed-radix row-major;
* projective points are canonical representatives scaled so the first
  nonzero coordinate is 1, written as tuples of element encodings;
* whenever a deterministic choice is needed (orbit representatives,
  the auxiliary vector that threads the blocks through an isotropic
  point), ties break lexicographically on coordinate encodings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf import FiniteField, field_create, prime_power_split
from .groupring import AbelianGroup
from .polymat import PolyphaseMatrix, zero_one_array


@dataclass(frozen=True)
class BibdParams:
    v: int
    k: int
    r: int
    b: int
    u: int | None
    lam: int = 1

    @classmethod
    def from_vk(cls, v: int, k: int) -> "BibdParams":
        if k < 2:
            raise ValueError(f"block size k = {k} must be >= 2")
        if v <= k:
            raise ValueError(f"need v > k, got v = {v}, k = {k}")
        if (v - 1) % (k - 1):
            raise ValueError(f"(v - 1) = {v - 1} not divisible by (k - 1) = {k - 1}")
        r = (v - 1) // (k - 1)
        if (v * r) % k:
            raise ValueError(f"v r = {v * r} not divisible by k = {k}")
        b = v * r // k
        u_frac = Fraction(k * (k - 1) ** 2 * (k - 2), v + k * (k - 2))
        u = int(u_frac) if u_frac.denominator == 1 else None
        return cls(v=v, k=k, r=r, b=b, u=u)

    @property
    def etf_dimension(self) -> Fraction:
        return Fraction(self.v * self.r, self.r + self.k - 1)


@dataclass(frozen=True)
class GqParams:
    s: int
    t: int

    @property
    def n_vertices(self) -> int:
        return (self.s + 1) * (self.s * self.t + 1)

    @property
    def n_blocks(self) -> int:
        return (self.t + 1) * (self.s * self.t + 1)


@dataclass(frozen=True)
class DracknParams:
    n: int
    f: int
    c: int

    @property
    def delta(self) -> int:
        return self.n - self.f * self.c - 2


def simplex_phased(v: int) -> PolyphaseMatrix:
    """The C(v,2) x v matrix over Z_2 with z^0 at the smaller vertex and
    z^1 at the larger vertex of each 2-subset; at the sign character its
    columns are a regular simplex."""
    if v < 3:
        raise ValueError(f"need v >= 3, got {v}")
    group = AbelianGroup([2])
    pairs = list(itertools.combinations(range(v), 2))
    support = np.zeros((len(pairs), v), dtype=bool)
    exps = np.zeros((len(pairs), v), dtype=np.intp)
    for i, (a, b) in enumerate(pairs):
        support[i, a] = True
        support[i, b] = True
        exps[i, b] = 1
    return PolyphaseMatrix(group, support, exps)


_EXAMPLE_9_3_3_EXPONENTS = [
    [0, 0, 0, None, None, None, None, None, None],
    [None, None, None, 0, 0, 0, None, None, None],
    [None, None, None, None, None, None, 0, 0, 0],
    [0, None, None, 0, None, None, 0, None, None],
    [None, 0, None, None, 2, None, None, 1, None],
    [None, None, 0, None, None, 1, None, None, 2],
    [0, None, None, None, None, 2, None, 2, None],
    [None, 0, None, 1, None, None, None, None, 0],
    [None, None, 0, None, 0, None, 1, None, None],
    [0, None, None, None, 1, None, None, None, 1],
    [None, 0, None, None, None, 0, 2, None, None],
    [None, None, 0, 2, None, None, None, 0, None],
]


def example_9_3_3() -> PolyphaseMatrix:
    """The 12 x 9 matrix over Z_3 whose |.|^2 is an affine plane of order
    3 and whose columns give a 6-dimensional ETF of 9 vectors at either
    nontrivial cube-root character."""
    group = AbelianGroup([3])
    entries = [
        [None if e is None else (e,) for e in row] for row in _EXAMPLE_9_3_3_EXPONENTS
    ]
    return PolyphaseMatrix.from_entries(group, entries)


def affine_polyphase(q: int) -> PolyphaseMatrix:
    """(q+1)q x q^2 matrix over the additive group of GF(q).

    Rows come in q+1 fibers indexed by a slope i (field elements in
    power order, then infinity), columns by (intercept j, point y).  A
    finite-slope row (i, x) meets column (j, y) when x - y = i*j, with
    phase z^(j(x+y)); the infinity fiber is unphased and marks x = j.
    """
    p, m = prime_power_split(q)
    fld = field_create(p, m)
    group = AbelianGroup([p] * m)
    els = np.concatenate(([0], fld.exp))
    pos = np.empty(q, dtype=np.intp)
    pos[els] = np.arange(q)
    # the group index of a phase is its digit vector read mixed-radix
    # row-major, i.e. with the digits reversed
    place = p ** np.arange(m)
    group_index = np.arange(q)[:, None] // place % p @ place[::-1]
    i_idx, j_idx, y_idx = np.indices((q, q, q))
    i, j, y = els[i_idx], els[j_idx], els[y_idx]
    x = fld.add[y, fld.mul[i, j]]
    rows = i_idx * q + pos[x]
    cols = j_idx * q + y_idx
    b, v = (q + 1) * q, q * q
    support = np.zeros((b, v), dtype=bool)
    exps = np.zeros((b, v), dtype=np.intp)
    support[rows, cols] = True
    exps[rows, cols] = group_index[fld.mul[j, fld.add[x, y]]]
    support[q * q :] = np.repeat(np.eye(q, dtype=bool), q, axis=1)
    return PolyphaseMatrix(group, support, exps)


BROUWER_SIZE_GUARD = 7


class _HermitianForm:
    """GF(q^2) tables for the form sum_l frob(x_l) y_l on GF(q^2)^4: the
    Frobenius x^q, the norm x^(q+1) onto GF(q), and the powers and
    discrete log (-1 off the subgroup) of beta = alpha^(q-1), a generator
    of the norm-one subgroup of order q+1."""

    def __init__(self, q: int):
        p, m = prime_power_split(q)
        self.q = q
        self.field = field_create(p, 2 * m)
        self.frob = self._power(q)
        self.norm = self._power(q + 1)
        self.beta_pows = self.field.exp[(q - 1) * np.arange(q + 1)]
        self.beta_dlog = np.full(self.field.order, -1, dtype=np.int16)
        self.beta_dlog[self.beta_pows] = np.arange(q + 1)

    def _power(self, e: int) -> np.ndarray:
        """The table x -> x^e, with 0^e = 0."""
        fld = self.field
        out = np.zeros(fld.order, dtype=np.int16)
        out[1:] = fld.exp[fld.log[1:].astype(np.int64) * e % (fld.order - 1)]
        return out

    def dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sum of frob(x_l) * y_l over the last axis (four coordinates),
        broadcasting the others; conjugate-linear in x."""
        add, mul = self.field.add, self.field.mul
        acc = mul[self.frob[x[..., 0]], y[..., 0]]
        for l in range(1, 4):
            acc = add[acc, mul[self.frob[x[..., l]], y[..., l]]]
        return acc


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
    tables: _HermitianForm = field(repr=False, default=None)


def _points(*coords) -> np.ndarray:
    """Stack broadcast coordinate arrays (or scalars) along a new last axis."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1, dtype=np.int16)


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


def _orbit_reps(t: _HermitianForm, finite: np.ndarray) -> np.ndarray:
    """One representative per orbit of j . x = (x1, B^j x2, B^j x3, B^j x4)
    on the points with x1 = 1.  The representative minimises (not
    preferred, x), where a preferred member has x2 = 0 or x3 = x4 = 0, so
    the sorted keys list the representatives preferred first."""
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


def brouwer_geometry(q: int) -> BrouwerGeometry:
    """Isotropic points and totally isotropic planes of the hermitian-type
    form sum x_l^(q+1) on GF(q^2)^4, with the norm-one group action.

    Vertices are enumerated by leading-one canonical form (cost about
    q^6); blocks come from the two closed forms
    span{(1,0,a,b), (0,1,-B^j b^q, B^j a^q)} with N(a)+N(b) = -1 and
    span{(1,a,0,0), (0,0,1,B^j a)} with N(a) = -1, where B has order q+1.
    """
    if q > BROUWER_SIZE_GUARD:
        raise ValueError(f"q = {q} exceeds the size guard {BROUWER_SIZE_GUARD}")
    t = _HermitianForm(q)
    add, mul, neg = t.field.add, t.field.mul, t.field.neg
    norm, beta_pows = t.norm, t.beta_pows
    n = t.field.order
    minus_one = neg[1]
    one_plus = add[1, norm]  # 1 + N(x)

    # leading coordinate 1: (1, x2, x3, x4) with 1 + N2 + N3 + N4 = 0; the
    # nonzero cells of the cube come out in lexicographic order
    cube = add[add[one_plus[:, None], norm][:, :, None], norm]
    finite = _points(1, *np.nonzero(cube == 0))
    ovoid = np.concatenate(
        [
            _points(0, 1, *np.nonzero(add[one_plus[:, None], norm] == 0)),
            _points(0, 0, 1, *np.nonzero(one_plus == 0)),
        ]
    )

    orbit_reps = _orbit_reps(t, finite)

    d = np.arange(n)
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
        orbit_reps=_tuples(orbit_reps),
        blocks=blocks,
        tables=t,
    )


def _threading_vector(t: _HermitianForm, y) -> tuple:
    """Lexicographically least z = (1, z2, z3, z4) with z.z = 0 and y.z = 0;
    the q+1 blocks through the isotropic point y are spanned by y with the
    norm-one orbit of z."""
    add, mul, neg, norm = t.field.add, t.field.mul, t.field.neg, t.norm
    n = t.field.order
    coeff = t.frob[list(y[1:])]
    pivot = int(np.nonzero(coeff)[0][-1])
    free = [i for i in range(3) if i != pivot]
    z = np.empty((3, n * n), dtype=np.int64)
    z[free] = np.indices((n, n)).reshape(2, -1)
    rhs = add[mul[coeff[free[0]], z[free[0]]], mul[coeff[free[1]], z[free[1]]]]
    z[pivot] = mul[t.field.inv[coeff[pivot]], neg[rhs]]
    iso = add[add[add[1, norm[z[0]]], norm[z[1]]], norm[z[2]]] == 0
    if not iso.any():
        raise AssertionError("no threading vector; y is not an isotropic point")
    key = np.where(iso, (z[0] * n + z[1]) * n + z[2], n**3)
    return (1,) + tuple(z[:, np.argmin(key)].tolist())


def brouwer_polyphase(q: int) -> PolyphaseMatrix:
    """q^2(q^2-q+1) x (q^3+1) matrix over Z_{q+1}.

    Rows are orbit representatives of non-ovoid points, columns are the
    ovoid points.  Where x is orthogonal to y the entry is z^g with
    B^g = 1 - x.z_y, which makes each lifted block the translation
    permutation that records which block through y each orbit member
    lands in.
    """
    geom = brouwer_geometry(q)
    t = geom.tables
    group = AbelianGroup([q + 1])
    cols = sorted(geom.ovoid)
    rows = np.array(geom.orbit_reps)
    threading = np.array([_threading_vector(t, y) for y in cols])
    support = t.dot(rows[:, None, :], np.array(cols)) == 0
    r, c = np.nonzero(support)
    g = t.beta_dlog[t.field.add[1, t.field.neg[t.dot(rows[r], threading[c])]]]  # 1 - x.z
    if np.any(g < 0):
        raise AssertionError("1 - x.z must have norm one when x is orthogonal to y")
    exps = np.zeros(support.shape, dtype=np.intp)
    exps[r, c] = g
    return PolyphaseMatrix(group, support, exps)


def gq_from_polyphase(m: PolyphaseMatrix) -> np.ndarray:
    """Stack I_v (x) ones(1, f) on the filter bank lift: the point-block
    incidence of a generalized quadrangle with a spread when |.|^2 is a
    BIBD(v, k, 1) with k = f and the polyphase identities hold.  Returns
    a dense int8 0/1 array.  The lift is built for any support once f
    equals the first row's weight; verify_gq_axioms reports whatever
    else is wrong with it."""
    f, v = m.group.order, m.cols
    k = int(m.support[0].sum()) if m.rows else 0
    if k != f:
        raise ValueError(f"group order {f} must equal block size {k}")
    z = zero_one_array(v + m.rows * f, v * f)
    points = np.arange(v * f)
    z[points // f, points] = 1
    rows, cols = m.lift_support()
    z[v + rows, cols] = 1
    return z


def polyphase_from_gq(z, group: AbelianGroup) -> PolyphaseMatrix:
    """Invert gq_from_polyphase: strip the spread rows and read one
    monomial out of each translation-permutation block."""
    z = np.asarray(z)
    f = group.order
    n_rows, n_cols = z.shape
    if n_cols % f:
        raise ValueError(f"column count {n_cols} not divisible by group order {f}")
    v = n_cols // f
    if n_rows < v or (n_rows - v) % f:
        raise ValueError("row count does not fit a spread plus lifted blocks")
    b = (n_rows - v) // f
    spread = np.kron(np.eye(v, dtype=np.int64), np.ones((1, f), dtype=np.int64))
    if not np.array_equal(z[:v], spread):
        raise ValueError("leading rows are not the expected spread")
    perms = {}
    for gi in range(f):
        blk = np.zeros((f, f), dtype=np.int64)
        blk[group.add_index[gi, np.arange(f)], np.arange(f)] = 1
        perms[gi] = blk
    support = np.zeros((b, v), dtype=bool)
    exps = np.zeros((b, v), dtype=np.intp)
    body = z[v:]
    for i in range(b):
        for j in range(v):
            blk = body[i * f : (i + 1) * f, j * f : (j + 1) * f]
            if not blk.any():
                continue
            col0 = np.nonzero(blk[:, 0])[0]
            gi = int(group.add_index[col0[0], 0]) if len(col0) == 1 else -1
            if gi < 0 or not np.array_equal(blk, perms[gi]):
                raise ValueError(
                    f"block ({i}, {j}) is neither zero nor a translation permutation"
                )
            support[i, j] = True
            exps[i, j] = gi
    return PolyphaseMatrix(group, support, exps)


def phased_to_polyphase(phi: np.ndarray, p: int, tol: float = 1e-9) -> PolyphaseMatrix:
    """Match every nonzero entry of a phased matrix to a p-th root of
    unity and return the corresponding matrix over Z_p."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    phi = np.asarray(phi, dtype=np.complex128)
    group = AbelianGroup([p])
    support = np.zeros(phi.shape, dtype=bool)
    exps = np.zeros(phi.shape, dtype=np.intp)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            val = phi[i, j]
            if abs(val) <= tol:
                continue
            ell = int(np.round(np.angle(val) * p / (2 * np.pi))) % p
            root = np.exp(2j * np.pi * ell / p)
            if abs(val - root) > tol:
                raise ValueError(
                    f"entry ({i}, {j}) = {val} is not a {p}-th root of unity within {tol}"
                )
            support[i, j] = True
            exps[i, j] = ell
    return PolyphaseMatrix(group, support, exps)
