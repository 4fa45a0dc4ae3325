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

from .gf import FiniteField, beta, field_create, field_norm, frobenius, prime_power_split
from .groupring import AbelianGroup
from .polymat import GroupRingMatrix, PolyphaseMatrix


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
    def etf_vectors(self) -> int:
        return self.v

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
    els = fld.power_ordered_elements()
    pos = {x.encoding: idx for idx, x in enumerate(els)}
    b, v = (q + 1) * q, q * q
    support = np.zeros((b, v), dtype=bool)
    exps = np.zeros((b, v), dtype=np.intp)
    for i_idx, i in enumerate(els):
        for j_idx, j in enumerate(els):
            ij = i * j
            for y_idx, y in enumerate(els):
                x = y + ij
                row = i_idx * q + pos[x.encoding]
                col = j_idx * q + y_idx
                phase = j * (x + y)
                support[row, col] = True
                exps[row, col] = group.index(phase.coeffs)
    for j_idx in range(q):
        for y_idx in range(q):
            support[q * q + j_idx, j_idx * q + y_idx] = True
    return PolyphaseMatrix(group, support, exps)


class _NormTables:
    """Encoding-level arithmetic tables for GF(q^2) with the norm to GF(q)."""

    def __init__(self, q: int):
        p, m = prime_power_split(q)
        self.q = q
        self.field = field_create(p, 2 * m)
        els = self.field.elements()
        n = self.field.order
        self.add = [[(els[a] + els[b]).encoding for b in range(n)] for a in range(n)]
        self.mul = [[(els[a] * els[b]).encoding for b in range(n)] for a in range(n)]
        self.neg = [(-els[a]).encoding for a in range(n)]
        self.inv = [0] + [els[a].inverse().encoding for a in range(1, n)]
        self.frob = [frobenius(els[a], q).encoding for a in range(n)]
        self.norm = [field_norm(els[a], q).encoding for a in range(n)]
        self.norm_preimages: dict[int, list[int]] = {}
        for a in range(n):
            self.norm_preimages.setdefault(self.norm[a], []).append(a)
        bq = beta(self.field, q)
        self.beta_pows = []
        x = self.field.one
        for _ in range(q + 1):
            self.beta_pows.append(x.encoding)
            x = x * bq
        self.beta_dlog = {e: j for j, e in enumerate(self.beta_pows)}
        self.minus_one = self.neg[1]

    def dot(self, x, y) -> int:
        """Sum of frob(x_l) * y_l over four coordinates, conjugate-linear
        in the first argument."""
        acc = 0
        for xl, yl in zip(x, y):
            acc = self.add[acc][self.mul[self.frob[xl]][yl]]
        return acc

    def sum4(self, a, b, c, d) -> int:
        return self.add[self.add[self.add[a][b]][c]][d]


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
    tables: _NormTables = field(repr=False, default=None)


def brouwer_geometry(q: int, size_guard: int = 7) -> BrouwerGeometry:
    """Isotropic points and totally isotropic planes of the hermitian-type
    form sum x_l^(q+1) on GF(q^2)^4, with the norm-one group action.

    Vertices are enumerated by leading-one canonical form (cost about
    q^6); blocks come from the two closed forms
    span{(1,0,a,b), (0,1,-B^j b^q, B^j a^q)} with N(a)+N(b) = -1 and
    span{(1,a,0,0), (0,0,1,B^j a)} with N(a) = -1, where B has order q+1.
    """
    if q > size_guard:
        raise ValueError(f"q = {q} exceeds the size guard {size_guard}")
    t = _NormTables(q)
    n = t.field.order
    minus_one = t.minus_one

    vertices = []
    # leading coordinate 1: (1, x2, x3, x4), need 1 + N2 + N3 + N4 = 0
    for x2 in range(n):
        for x3 in range(n):
            want = t.neg[t.add[t.add[1][t.norm[x2]]][t.norm[x3]]]
            for x4 in t.norm_preimages.get(want, ()):
                vertices.append((1, x2, x3, x4))
    ovoid = []
    for x3 in range(n):
        want = t.neg[t.add[1][t.norm[x3]]]
        for x4 in t.norm_preimages.get(want, ()):
            ovoid.append((0, 1, x3, x4))
    for x4 in t.norm_preimages.get(minus_one, ()):
        ovoid.append((0, 0, 1, x4))
    vertices = vertices + ovoid

    # orbits of j . x = (x1, B^j x2, B^j x3, B^j x4) on the non-ovoid part
    seen = set()
    orbit_reps = []
    for vert in vertices:
        if vert[0] == 0 or vert in seen:
            continue
        orbit = []
        for bj in t.beta_pows:
            orbit.append((1, t.mul[bj][vert[1]], t.mul[bj][vert[2]], t.mul[bj][vert[3]]))
        if len(set(orbit)) != q + 1:
            raise AssertionError("orbit collapsed; the action should be free")
        seen.update(orbit)
        preferred = [m for m in orbit if m[1] == 0 or (m[2] == 0 and m[3] == 0)]
        orbit_reps.append(min(preferred) if preferred else min(orbit))
    orbit_reps.sort(key=lambda rep: (0 if rep[1] == 0 or (rep[2] == 0 and rep[3] == 0) else 1, rep))

    blocks = []
    for a in range(n):
        want = t.add[minus_one][t.neg[t.norm[a]]]  # N(b) = -1 - N(a)
        for b in t.norm_preimages.get(want, ()):
            for j, bj in enumerate(t.beta_pows):
                w3 = t.neg[t.mul[bj][t.frob[b]]]
                w4 = t.mul[bj][t.frob[a]]
                members = [(0, 1, w3, w4)]
                for d in range(n):
                    members.append((1, d, t.add[a][t.mul[d][w3]], t.add[b][t.mul[d][w4]]))
                blocks.append(
                    Block(
                        kind="ab",
                        params=(a, b, j),
                        ovoid_vertex=(0, 1, w3, w4),
                        members=tuple(sorted(members)),
                    )
                )
    for a in t.norm_preimages.get(minus_one, ()):
        for j, bj in enumerate(t.beta_pows):
            w4 = t.mul[bj][a]
            members = [(0, 0, 1, w4)]
            for e in range(n):
                members.append((1, a, e, t.mul[e][w4]))
            blocks.append(
                Block(
                    kind="a",
                    params=(a, j),
                    ovoid_vertex=(0, 0, 1, w4),
                    members=tuple(sorted(members)),
                )
            )

    return BrouwerGeometry(
        q=q,
        field=t.field,
        vertices=vertices,
        ovoid=ovoid,
        orbit_reps=orbit_reps,
        blocks=blocks,
        tables=t,
    )


def _threading_vector(t: _NormTables, y) -> tuple:
    """Lexicographically least z = (1, z2, z3, z4) with z.z = 0 and y.z = 0;
    the q+1 blocks through the isotropic point y are spanned by y with the
    norm-one orbit of z."""
    coeff = [t.frob[y[1]], t.frob[y[2]], t.frob[y[3]]]
    pivot = max(i for i in range(3) if coeff[i] != 0)
    free = [i for i in range(3) if i != pivot]
    inv_piv = t.inv[coeff[pivot]]
    n = t.field.order
    best = None
    for u0 in range(n):
        for u1 in range(n):
            zs = [0, 0, 0]
            zs[free[0]], zs[free[1]] = u0, u1
            rhs = t.add[t.mul[coeff[free[0]]][u0]][t.mul[coeff[free[1]]][u1]]
            zs[pivot] = t.mul[inv_piv][t.neg[rhs]]
            if t.sum4(1, t.norm[zs[0]], t.norm[zs[1]], t.norm[zs[2]]) == 0:
                cand = tuple(zs)
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise AssertionError("no threading vector; y is not an isotropic point")
    return (1,) + best


def brouwer_polyphase(q: int, size_guard: int = 7) -> PolyphaseMatrix:
    """q^2(q^2-q+1) x (q^3+1) matrix over Z_{q+1}.

    Rows are orbit representatives of non-ovoid points, columns are the
    ovoid points.  Where x is orthogonal to y the entry is z^g with
    B^g = 1 - x.z_y, which makes each lifted block the translation
    permutation that records which block through y each orbit member
    lands in.
    """
    geom = brouwer_geometry(q, size_guard=size_guard)
    t = geom.tables
    group = AbelianGroup([q + 1])
    cols = sorted(geom.ovoid)
    rows = geom.orbit_reps
    support = np.zeros((len(rows), len(cols)), dtype=bool)
    exps = np.zeros((len(rows), len(cols)), dtype=np.intp)
    threading = [_threading_vector(t, y) for y in cols]
    for jcol, y in enumerate(cols):
        zy = threading[jcol]
        for irow, x in enumerate(rows):
            if t.dot(x, y) != 0:
                continue
            u = t.add[1][t.neg[t.dot(x, zy)]]  # 1 - x.z
            g = t.beta_dlog.get(u)
            if g is None:
                raise AssertionError("1 - x.z must have norm one when x is orthogonal to y")
            support[irow, jcol] = True
            exps[irow, jcol] = g
    return PolyphaseMatrix(group, support, exps)


def gq_from_polyphase(m: PolyphaseMatrix) -> "scipy.sparse.csr_matrix":
    """Stack I_v (x) ones(1, f) on the filter bank lift: the point-block
    incidence of a generalized quadrangle with a spread when |.|^2 is a
    BIBD(v, k, 1) with k = f and the polyphase identities hold.  Returns
    an int64 CSR matrix; call .toarray() for the dense incidence."""
    from scipy.sparse import identity, kron, vstack

    x = m.modulus_squared()
    row_sums = x.sum(axis=1)
    k = int(row_sums[0])
    if not np.all(row_sums == k):
        raise ValueError("rows have unequal support sizes")
    f = m.group.order
    if k != f:
        raise ValueError(f"group order {f} must equal block size {k}")
    spread = kron(identity(m.cols, dtype=np.int64), np.ones((1, f), dtype=np.int64))
    return vstack([spread, m.filter_bank_lift()], format="csr")


def polyphase_from_gq(z, group: AbelianGroup) -> PolyphaseMatrix:
    """Invert gq_from_polyphase: strip the spread rows and read one
    monomial out of each translation-permutation block.  z may be dense
    or sparse."""
    from scipy.sparse import csr_matrix

    z = csr_matrix(z).toarray()
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


def drackn_from_polyphase(m: PolyphaseMatrix) -> tuple[GroupRingMatrix, DracknParams]:
    """Gram minus r times the identity, with its (n, f, c) parameters."""
    x = m.modulus_squared()
    params = BibdParams.from_vk(m.cols, int(x.sum(axis=1)[0]))
    r = params.r
    gram = m.adjoint() @ m
    a = gram - GroupRingMatrix.from_scalar(m.group, r * np.eye(m.cols, dtype=np.int64))
    f = m.group.order
    c_num = params.k * (r - 1)
    if c_num % f:
        raise ValueError("k (r - 1) is not divisible by the group order")
    return a, DracknParams(n=m.cols, f=f, c=c_num // f)
