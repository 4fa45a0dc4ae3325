"""Constructions of polyphase matrices whose |.|^2 is a BIBD(v, k, 1)
and whose columns form an equiangular tight frame at every nontrivial
character.

Conventions shared by everything below:

* field elements are ordered zero first, then ascending powers of the
  designated generator alpha;
* group elements are indexed mixed-radix row-major;
* projective points are canonical representatives scaled so the first
  nonzero coordinate is 1, written as int16 rows of element encodings;
* whenever a deterministic choice is needed (orbit representatives,
  the auxiliary vector that threads the blocks through an isotropic
  point), ties break lexicographically on coordinate encodings.

The constructions are array programs that list the nonzero cells of a
PolyphaseMatrix row-major, with no b x v array.  affine_polyphase and
simplex_phased refuse a b x v matrix over MAX_DENSE_CELLS before they
allocate anything.  brouwer_polyphase threads all ovoid points in one
search over z2, which is free because an ovoid point always has y3 or
y4 nonzero, and finds each row's cells among the q^2+1 points of its
polar line, in row spans of WRITE_SPAN_CELLS candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import MAX_FIELD_ORDER, field_create, prime_power_split
from .groupring import AbelianGroup
from .polymat import (
    WRITE_SPAN_CELLS,
    PolyphaseMatrix,
    dense_cap_refusal,
    listed_cells_refusal,
    parse_polyphase,
    ragged_ranges,
    row_spans,
    zero_one_array,
)


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
    n = v * (v - 1) // 2
    if refusal := dense_cap_refusal(f"{n}x{v} matrix", n * v):
        raise ValueError(refusal)
    a, b = np.triu_indices(v, 1)
    return PolyphaseMatrix(AbelianGroup([2]), (n, v), np.arange(n).repeat(2),
                           np.stack((a, b), axis=1).ravel(), np.tile([0, 1], n))


_EXAMPLE_9_3_3 = """POLYPHASE rows=12 cols=9 group=Z3
0 0 0 . . . . . .
. . . 0 0 0 . . .
. . . . . . 0 0 0
0 . . 0 . . 0 . .
. 0 . . 2 . . 1 .
. . 0 . . 1 . . 2
0 . . . . 2 . 2 .
. 0 . 1 . . . . 0
. . 0 . 0 . 1 . .
0 . . . 1 . . . 1
. 0 . . . 0 2 . .
. . 0 2 . . . 0 .
"""


def example_9_3_3() -> PolyphaseMatrix:
    """The 12 x 9 matrix over Z_3 whose |.|^2 is an affine plane of order
    3 and whose columns give a 6-dimensional ETF of 9 vectors at either
    nontrivial cube-root character."""
    return parse_polyphase(_EXAMPLE_9_3_3)


def affine_polyphase(q: int) -> PolyphaseMatrix:
    """(q+1)q x q^2 matrix over the additive group of GF(q).

    Rows come in q+1 fibers indexed by a slope i (field elements in
    power order, then infinity), columns by (intercept j, point y).  A
    finite-slope row (i, x) meets column (j, y) when x - y = i*j, with
    phase z^(j(x+y)); the infinity fiber is unphased and marks x = j.
    """
    p, m = prime_power_split(q)
    b, v = (q + 1) * q, q * q  # over the field cap, field_create names that cap
    if q <= MAX_FIELD_ORDER and (refusal := dense_cap_refusal(f"{b}x{v} matrix", b * v)):
        raise ValueError(refusal)
    fld = field_create(p, m)
    group = AbelianGroup([p] * m)
    els = np.concatenate(([0], fld.exp))
    pos = np.empty(q, dtype=np.intp)
    pos[els] = np.arange(q)
    # the group index of a phase is its digit vector read mixed-radix
    # row-major, i.e. with the digits reversed
    place = p ** np.arange(m)
    group_index = np.arange(q)[:, None] // place % p @ place[::-1]
    # row (i, x) meets column (j, x - i j) at each intercept j, in column order
    i_idx, x_idx, j_idx = np.indices((q, q, q))
    i, x, j = els[i_idx], els[x_idx], els[j_idx]
    y = fld.add[x, fld.neg[fld.mul[i, j]]]
    # then infinity row x meets the q columns of intercept j = x, unphased
    ii = np.concatenate(((i_idx * q + x_idx).ravel(), v + np.arange(v) // q))
    jj = np.concatenate(((j_idx * q + pos[y]).ravel(), np.arange(v)))
    e = np.concatenate((group_index[fld.mul[j, fld.add[x, y]]].ravel(), np.zeros(v, np.intp)))
    return PolyphaseMatrix(group, (v + q, v), ii, jj, e)


BROUWER_SIZE_GUARD = 9


class _HermitianForm:
    """GF(q^2) tables for the form sum_l frob(x_l) y_l on GF(q^2)^4: the
    Frobenius x^q, the norm x^(q+1) onto GF(q), and the powers and
    discrete log (-1 off the subgroup) of beta = alpha^(q-1), a generator
    of the norm-one subgroup of order q+1."""

    def __init__(self, q: int):
        if q > BROUWER_SIZE_GUARD:
            raise ValueError(f"q = {q} exceeds the size guard {BROUWER_SIZE_GUARD}")
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
        broadcasting the others; conjugate-linear in x.  Each product and
        sum is a 1-d take from a raveled table at a * n + b."""
        add, mul = self.field.add.ravel(), self.field.mul.ravel()
        row = self.field.order * np.arange(self.field.order)
        frob_row = row[self.frob]
        acc = mul.take(frob_row[x[..., 0]] + y[..., 0])
        for l in range(1, 4):
            acc = add.take(row[acc] + mul.take(frob_row[x[..., l]] + y[..., l]))
        return acc


def _points(*coords) -> np.ndarray:
    """Stack broadcast coordinate arrays (or scalars) along a new last axis."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1, dtype=np.int16)


def _isotropic_points(t: _HermitianForm) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic points in leading-one form as int16 rows: x1 = 1 in
    lexicographic order, then the ovoid x1 = 0.  For each (x2, x3), x4
    runs over the norm fibre N(x4) = -1 - N(x2) - N(x3); with GF(q^2)
    sorted once by (norm, value), one repeat over the n^2 pairs lists
    each fibre in order, about q^4 cells in all."""
    add, neg, norm = t.field.add, t.field.neg, t.norm
    n = t.field.order
    one_plus = add[1, norm]  # 1 + N(x)
    by_norm = np.argsort(norm, kind="stable").astype(np.int16)
    size = np.bincount(norm, minlength=n)
    fibre = neg[add[one_plus[:, None], norm]].ravel()  # the N(x4) of each (x2, x3)
    start, reps = (np.cumsum(size) - size)[fibre], size[fibre]
    x2, x3 = np.repeat(np.indices((n, n), dtype=np.int16).reshape(2, -1), reps, axis=1)
    finite = _points(1, x2, x3, by_norm[ragged_ranges(start, reps)])
    ovoid = np.concatenate(
        [
            _points(0, 1, *np.nonzero(add[one_plus[:, None], norm] == 0)),
            _points(0, 0, 1, *np.nonzero(one_plus == 0)),
        ]
    )
    return finite, ovoid


def _orbit_reps(t: _HermitianForm, finite: np.ndarray) -> np.ndarray:
    """One representative per orbit of j . x = (x1, B^j x2, B^j x3, B^j x4)
    on the points with x1 = 1 (finite, in lexicographic order): the
    lexicographically least member.  All members share their zero
    pattern, and B acts freely on GF(q^2)*, so x is the least iff its
    first nonzero a among (x2, x3, x4) is the least of the q+1 images
    B^j a, which one per-element table records.  Preferred
    representatives, x2 = 0 or x3 = x4 = 0, come first."""
    images = t.field.mul[t.beta_pows[:, None], np.arange(1, t.field.order)]
    ordered = np.sort(images, axis=0)
    least = np.concatenate(([False], images.argmin(axis=0) == 0))
    x2, x3, x4 = finite[:, 1:].T
    reps = finite[least[np.where(x2 != 0, x2, np.where(x3 != 0, x3, x4))]]
    if np.any(ordered[1:] == ordered[:-1]) or len(reps) * (t.q + 1) != len(finite):
        raise AssertionError("orbit collapsed; the action should be free")
    preferred = (reps[:, 1] == 0) | ((reps[:, 2] == 0) & (reps[:, 3] == 0))
    return np.concatenate((reps[preferred], reps[~preferred]))


def _threading_vectors(t: _HermitianForm, cols: np.ndarray) -> np.ndarray:
    """Per ovoid point y, the lexicographically least z = (1, z2, z3, z4)
    with z.z = 0 and y.z = 0, as int16 rows; the q+1 blocks through y are
    spanned by y with the norm-one orbit of z.

    Every ovoid point has y3 or y4 nonzero, so the last of them pivots:
    y.z = 0 solves z3 or z4 from the other two, and z2 is always free.
    One search serves all points: for z2 = 0, 1, ... it tabulates the n
    values of the other free coordinate for the points still unthreaded,
    takes the least z3 n + z4 that is isotropic, and stops once every
    point is threaded."""
    add, mul, neg, norm = t.field.add, t.field.mul, t.field.neg, t.norm
    n = t.field.order
    c2, c3, c4 = t.frob[cols[:, 1:].T[:, :, None]]  # y.z coefficients, one column each
    z4_pivot = c4 != 0
    c_free, c_piv = np.where(z4_pivot, c3, c4), np.where(z4_pivot, c4, c3)
    w = np.arange(n)
    keys = np.empty(len(cols), dtype=np.intp)  # z2 n^2 + z3 n + z4 per point
    todo = np.arange(len(cols))
    for z2 in range(n):
        zp = mul[t.field.inv[c_piv[todo]], neg[add[mul[c2[todo], z2], mul[c_free[todo], w]]]]
        z3 = np.where(z4_pivot[todo], w, zp)
        z4 = np.where(z4_pivot[todo], zp, w)
        iso = add[add[add[1, norm[z2]], norm[z3]], norm[z4]] == 0
        key = np.where(iso, (z2 * n + z3) * n + z4, n**3).min(axis=1)
        hit = key < n**3
        keys[todo[hit]] = key[hit]
        todo = todo[~hit]
        if not len(todo):
            return _points(1, keys // (n * n), keys // n % n, keys % n)
    raise AssertionError("no threading vector; some column is not an isotropic point")


def brouwer_polyphase(q: int) -> PolyphaseMatrix:
    """q^2(q^2-q+1) x (q^3+1) matrix over Z_{q+1}, from the points alone.

    Rows are orbit representatives of non-ovoid points, columns are the
    ovoid points in lexicographic order.  Where x is orthogonal to y the
    entry is z^g with B^g = 1 - x.z_y, which makes each lifted block the
    translation permutation that records which block through y each
    orbit member lands in.  The threading vectors z_y come from one
    search over all columns, z2 = 0, 1, ... in turn; at z2 = 0 only the
    q+1 columns (0, 0, 1, c) have no isotropic z, and at q <= 9 every
    column is threaded by z2 = 17.

    The columns orthogonal to x are the isotropic points of its polar
    line a2 y2 + a3 y3 + a4 y4 = 0 (a = frob x) in the plane y1 = 0, q+1
    of its q^2+1 points, as on every secant of the Hermitian curve.  So
    each row tests those q^2+1 candidates, not all q^3+1 columns, and a
    hit finds its column by its key (y2 n + y3) n + y4, which increases
    in column order.
    """
    t = _HermitianForm(q)
    add, mul, neg, inv, norm = t.field.add, t.field.mul, t.field.neg, t.field.inv, t.norm
    n = t.field.order
    finite, ovoid = _isotropic_points(t)
    rows = _orbit_reps(t, finite)
    cols = ovoid[np.lexsort(ovoid.T[::-1])]
    col_keys = (cols[:, 1].astype(np.intp) * n + cols[:, 2]) * n + cols[:, 3]
    threading = _threading_vectors(t, cols)
    # the polar line as the n points p + w d and the point d, in leading-one
    # (y2, y3, y4) form: p = (1, 0, -a2/a4), d = (0, 1, -a3/a4) if a4 != 0;
    # else d = (0, 0, 1), never isotropic, and p = (1, -a2/a3, 0), or
    # (0, 1, 0) if a3 = 0 too, which is the one orbit of (1, x2, 0, 0)
    a2, a3, a4 = t.frob[rows[:, 1:].T]
    zero, one = np.zeros_like(a2), np.ones_like(a2)
    p = np.where(
        a4 != 0,
        [one, zero, mul[neg[a2], inv[a4]]],
        np.where(a3 != 0, [one, mul[neg[a2], inv[a3]], zero], [zero, one, zero]),
    )
    d = np.where(a4 != 0, [zero, one, mul[neg[a3], inv[a4]]], [zero, zero, one])
    # each sum a 1-d take from a raveled table at u n + v
    row = n * np.arange(n)
    minus_norms = neg[add[norm[:, None], norm]]  # -(N(u) + N(v))
    cells = []
    for r0, r1 in row_spans(np.full(len(rows), n + 1), WRITE_SPAN_CELLS):
        y = np.empty((3, r1 - r0, n + 1), dtype=np.int16)
        y[..., n] = d[:, r0:r1]
        for l in range(3):  # one coordinate at a time keeps the intp index small
            y[l, :, :n] = add.take(row[p[l, r0:r1, None]] + mul[d[l, r0:r1]])
        r, w = np.nonzero(norm[y[2]] == minus_norms.take(row[y[0]] + y[1]))
        y2, y3, y4 = y[:, r, w].astype(np.intp)
        key = (y2 * n + y3) * n + y4
        c = np.searchsorted(col_keys, key)
        if not np.array_equal(col_keys.take(c, mode="clip"), key):
            raise AssertionError("an isotropic point of a polar line is not an ovoid column")
        r += r0
        g = t.beta_dlog[add[1, neg[t.dot(rows[r], threading[c])]]]  # 1 - x.z
        if np.any(g < 0):
            raise AssertionError("1 - x.z must have norm one when x is orthogonal to y")
        order = np.argsort(r * len(cols) + c)
        cells.append((r[order], c[order], g[order]))
    return PolyphaseMatrix(AbelianGroup([q + 1]), (len(rows), len(cols)),
                           *map(np.concatenate, zip(*cells)))


def _gq_shape(m: PolyphaseMatrix) -> tuple[int, int]:
    """Shape of the GQ lift of m; raises unless f equals the first row's weight."""
    f, v = m.group.order, m.cols
    k = int(np.searchsorted(m.ii, 1))
    if k != f:
        raise ValueError(f"group order {f} must equal block size {k}")
    return v + m.rows * f, v * f


def gq_cells(m: PolyphaseMatrix) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """Shape and row-major ones of the GQ lift of m: spread row j meets
    points j f .. j f + f - 1, and lifted row v + i f + a meets point
    j f + b when Phi_ij = z^g with a = g + b.  Raises before any cell of
    the lift is listed unless f equals the first row's weight and the
    lift's v f + f nnz(m) cells are within listed_cells_refusal's cap."""
    shape = _gq_shape(m)
    f, v = m.group.order, m.cols
    if refusal := listed_cells_refusal(*shape, (v + len(m.e)) * f):
        raise ValueError(refusal)
    b, points = np.arange(f), np.arange(v * f)
    rows = v + m.ii[:, None] * f + m.group.add_index[m.e[:, None], b]
    rows = np.concatenate((points // f, rows.ravel()))
    cols = np.concatenate((points, (m.jj[:, None] * f + b).ravel()))
    # the keys are distinct, so a plain sort orders them as a stable one would
    return shape, *np.divmod(np.sort(rows * shape[1] + cols), shape[1])


def gq_from_polyphase(m: PolyphaseMatrix) -> np.ndarray:
    """The GQ lift of gq_cells as a dense int8 0/1 array: the incidence of
    a GQ with a spread when |.|^2 is a BIBD(v, k, 1) with k = f and the
    polyphase identities hold; verify_gq_axioms reports what else is wrong.
    Raises zero_one_array's dense cap before any cell is listed."""
    z = zero_one_array(*_gq_shape(m))
    _, rows, cols = gq_cells(m)
    z[rows, cols] = 1
    return z


def polyphase_from_gq(z, group: AbelianGroup) -> PolyphaseMatrix:
    """Invert gq_from_polyphase: strip the spread rows and read z^g off
    each nonzero f x f block, g the row of its column-0 one.  Only those
    blocks are compared with the f translation permutations; the first bad
    one, row-major, is named in the error."""
    z = np.asarray(z)
    f = group.order
    n_rows, n_cols = z.shape
    if n_cols % f:
        raise ValueError(f"column count {n_cols} not divisible by group order {f}")
    v = n_cols // f
    if n_rows < v or (n_rows - v) % f:
        raise ValueError("row count does not fit a spread plus lifted blocks")
    b = (n_rows - v) // f
    # row j of the spread is ones on the f columns of point class j
    spread = np.broadcast_to(np.eye(v, dtype=np.int8)[:, :, None], (v, v, f))
    if not np.array_equal(z[:v].reshape(v, v, f), spread):
        raise ValueError("leading rows are not the expected spread")
    blocks = z[v:].reshape(b, f, v, f).swapaxes(1, 2)
    ii, jj = np.nonzero(blocks.any((2, 3)))
    nonzero = blocks[ii, jj]
    col0 = nonzero[:, :, 0] != 0
    exps = col0.argmax(axis=1)
    # perms[g, a, c] = 1 where a = g + c: the lift of z^g
    perms = group.add_index[:, None, :] == np.arange(f)[:, None]
    ok = (col0.sum(axis=1) == 1) & (nonzero == perms[exps]).all((1, 2))
    if not ok.all():
        bad = np.argmin(ok)
        raise ValueError(
            f"block ({ii[bad]}, {jj[bad]}) is neither zero nor a translation permutation"
        )
    return PolyphaseMatrix(group, (b, v), ii, jj, exps)


def phased_to_polyphase(phi: np.ndarray, p: int, tol: float = 1e-9) -> PolyphaseMatrix:
    """Match every entry of modulus above tol to the nearest p-th root of
    unity, which must lie within tol, and return the matrix over Z_p; the
    first bad entry (a NaN included), row-major, is named in the error."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim != 2:
        raise ValueError(f"phi must be a 2-d array, got shape {phi.shape}")
    # moduli by hypot, as scalar abs() takes them: np.abs of a complex
    # array can be an ulp off, which moves entries across tol
    ii, jj = np.nonzero(~(np.hypot(phi.real, phi.imag) <= tol))
    vals = phi[ii, jj]
    ell = np.round(np.angle(vals) * p / (2 * np.pi)) % p
    off = vals - np.exp(1j * (2 * np.pi * ell / p))
    ok = np.hypot(off.real, off.imag) <= tol
    if not ok.all():
        i, j = ii[np.argmin(ok)], jj[np.argmin(ok)]
        raise ValueError(
            f"entry ({i}, {j}) = {phi[i, j]} is not a {p}-th root of unity within {tol}"
        )
    return PolyphaseMatrix(AbelianGroup([p]), phi.shape, ii, jj, ell.astype(np.intp))
