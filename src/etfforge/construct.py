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
allocate anything.  brouwer_polyphase finds each row's q+1 cells, in row
spans of WRITE_SPAN_CELLS cells, and each column's threading vector with
one exact solver.  Over GF(q^2), N(x) = x^(q+1) and Tr(x) = x + x^q, the
line {p + w d} u {d} has sum_l N(p_l + w d_l) = alpha + Tr(beta w) +
gamma N(w), alpha = sum N(p_l), beta = sum p_l^q d_l, gamma = sum N(d_l).
If gamma != 0, N(w + c) = N(beta/gamma) - alpha/gamma =: nu with
c = (beta/gamma)^q, so the roots are u - c over the norm fibre of nu.  If
gamma = 0 they are z/beta over the trace fibre of -alpha, and d is
isotropic too.  A row x's polar line lies in its tangent plane x^perp but
misses x, so it meets each of the cone's q+1 lines once: q+1 roots per row.
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
    # row (i, x) meets column (j, x - i j) at each intercept j, in column
    # order, on axes (i, x, j); a + b and a b are 1-d takes at a q + b
    add, mul, at = fld.add.ravel(), fld.mul.ravel(), q * np.arange(q)
    col = at[els][:, None]
    y = add.take(col + fld.neg[mul.take(col + els)][:, None, :])
    # then infinity row x meets the q columns of intercept j = x, unphased
    ii = np.arange(v + q).repeat(q)
    jj = np.concatenate(((at + pos.take(y)).ravel(), np.arange(v)))
    e = np.concatenate((group_index.take(mul.take(at[add.take(col + y)] + els)).ravel(), np.zeros(v, np.intp)))
    return PolyphaseMatrix(group, (v + q, v), ii, jj, e)


BROUWER_SIZE_GUARD = 9


class _HermitianForm:
    """GF(q^2) tables for the form sum_l frob(x_l) y_l on GF(q^2)^4: the
    Frobenius x^q, the norm x^(q+1) onto GF(q), and the powers and
    discrete log (-1 off the subgroup) of beta = alpha^(q-1), a generator
    of the norm-one subgroup of order q+1.  fibres lists GF(q^2) by norm,
    then by trace x + x^q, each fibre in ascending order from fibre_at[v]
    for norm v and fibre_at[n + v] for trace v, then GF(q^2) from 2n."""

    def __init__(self, q: int):
        if q > BROUWER_SIZE_GUARD:
            raise ValueError(f"q = {q} exceeds the size guard {BROUWER_SIZE_GUARD}")
        p, m = prime_power_split(q)
        self.q = q
        self.field = fld = field_create(p, 2 * m)
        n = fld.order
        self._add, self._mul, self._row = fld.add.ravel(), fld.mul.ravel(), n * np.arange(n)
        self.frob = self._power(q)
        self.norm = self._power(q + 1)
        self.beta_pows = fld.exp[(q - 1) * np.arange(q + 1)]
        self.beta_dlog = np.full(n, -1, dtype=np.int16)
        self.beta_dlog[self.beta_pows] = np.arange(q + 1)
        keys = np.concatenate((self.norm, n + self.plus(np.arange(n), self.frob)))
        size = np.bincount(keys, minlength=2 * n)
        self.norm_size, self.fibre_at = size[:n], np.cumsum(size) - size
        self.fibres = np.concatenate((np.argsort(keys, kind="stable") % n, np.arange(n))).astype(np.int16)

    def _power(self, e: int) -> np.ndarray:
        """The table x -> x^e, with 0^e = 0."""
        fld = self.field
        out = np.zeros(fld.order, dtype=np.int16)
        out[1:] = fld.exp[fld.log[1:].astype(np.int64) * e % (fld.order - 1)]
        return out

    def plus(self, a, b) -> np.ndarray:
        """a + b, broadcasting: a 1-d take from the raveled table at a n + b."""
        return self._add.take(self._row[a] + b)

    def times(self, a, b) -> np.ndarray:
        """a * b, broadcasting, as plus does."""
        return self._mul.take(self._row[a] + b)

    def roots(self, alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
        """The roots w of gamma N(w) + Tr(beta w) + alpha = 0, alpha and gamma
        in GF(q), broadcasting the arguments, as in the module docstring:
        (w, count), q+1 candidates on a new last axis whose first count are
        the roots.  If every w is one, they are the q+1 least, 0, ..., q."""
        q, n, neg, inv = self.q, self.field.order, self.field.neg, self.field.inv
        alpha, beta, gamma = np.broadcast_arrays(alpha, beta, gamma)
        b = self.times(beta, inv[gamma])  # beta / gamma, or 0
        nu = self.plus(self.norm[b], neg[self.times(alpha, inv[gamma])])
        on_norm, on_trace = gamma != 0, (gamma == 0) & (beta != 0)
        at = np.where(on_norm, self.fibre_at[nu], np.where(on_trace, self.fibre_at[n + neg[alpha]], 2 * n))
        count = np.where(on_norm, self.norm_size[nu], np.where(on_trace, q, (alpha == 0) * (q + 1)))
        u = self.fibres.take(at[..., None] + np.arange(q + 1))
        w = self.plus(u, neg[self.frob[b]][..., None])  # u - (beta/gamma)^q on a norm fibre
        w[on_trace] = self.times(u[on_trace], inv[beta[on_trace], None])  # u / beta on a trace fibre
        return w, count


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
    fibre = neg[add[one_plus[:, None], norm]].ravel()  # the N(x4) of each (x2, x3)
    reps = t.norm_size[fibre]
    x2, x3 = np.repeat(np.indices((n, n), dtype=np.int16).reshape(2, -1), reps, axis=1)
    finite = _points(1, x2, x3, t.fibres[ragged_ranges(t.fibre_at[fibre], reps)])
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
    y.z = 0 makes it c z2 + r w, w the other of z3 and z4 (r = 0 if z3
    pivots).  At fixed z2 the least z is the least root w of z.z = 0, with
    alpha = 1 + N(z2) (1 + N(c)), beta = frob(c z2) r, gamma = 1 + N(r).
    One solve takes z2 = 0 for every point and each z2 > 0 for the q+1
    points with gamma = 0, (0, 0, 1, y4), which alone have no root at 0."""
    n, q, neg, inv, norm = t.field.order, t.q, t.field.neg, t.field.inv, t.norm
    c2, c3, c4 = t.frob[cols[:, 1:].T]  # y.z coefficients, one column each
    c, r = neg[t.times(c2, inv[np.where(c4 != 0, c4, c3)])], neg[t.times(c3, inv[c4])]
    gamma = t.plus(1, norm[r])
    late = np.flatnonzero(gamma == 0)
    at = np.concatenate((np.arange(len(cols)), late.repeat(n - 1)))
    z2 = np.concatenate((np.zeros(len(cols), dtype=np.intp), np.tile(np.arange(1, n), len(late))))
    w, count = t.roots(t.plus(1, t.times(norm[z2], t.plus(1, norm[c[at]]))),
                       t.times(t.frob[t.times(c[at], z2)], r[at]), gamma[at])
    w = np.where(np.arange(q + 1) < count[:, None], w, n).min(axis=1)
    keys = np.where(w < n, z2 * n + w, n * n)  # the least z2 n + w per point
    keys, rest = keys[:len(cols)], keys[len(cols):].reshape(len(late), n - 1)
    keys[late] = rest.min(axis=1, initial=n * n)
    if np.any(keys == n * n):
        raise AssertionError("no threading vector; some column is not an isotropic point")
    z2, w = np.divmod(keys, n)
    pivot = t.plus(t.times(c, z2), t.times(r, w))
    return _points(1, z2, *np.where(c4 != 0, [w, pivot], [pivot, w]))


def brouwer_polyphase(q: int) -> PolyphaseMatrix:
    """q^2(q^2-q+1) x (q^3+1) matrix over Z_{q+1}, from the points alone.

    Rows are orbit representatives of non-ovoid points, columns are the
    ovoid points in lexicographic order.  Where x is orthogonal to y the
    entry is z^g with B^g = 1 - x.z_y, which makes each lifted block the
    translation permutation that records which block through y each
    orbit member lands in.

    The columns orthogonal to x are the q+1 isotropic points of its polar
    line a2 y2 + a3 y3 + a4 y4 = 0 (a = frob x) in the plane y1 = 0, the
    roots of the module docstring's solver; each finds its column in a
    table over the 2n^2 leading-one keys (y2 n + y3) n + y4, y2 <= 1.
    """
    t = _HermitianForm(q)
    neg, inv, norm, n = t.field.neg, t.field.inv, t.norm, t.field.order
    finite, ovoid = _isotropic_points(t)
    rows = _orbit_reps(t, finite)
    cols = ovoid[np.lexsort(ovoid.T[::-1])]
    col_of = np.full(2 * n * n, -1, dtype=np.intp)
    col_of[(cols[:, 1].astype(np.intp) * n + cols[:, 2]) * n + cols[:, 3]] = np.arange(len(cols))
    z = _threading_vectors(t, cols)[:, 1:].T
    # the polar line as the n points p + w d and the point d, in leading-one
    # (y2, y3, y4) form: p = (1, 0, s), d = (0, 1, r), s = -a2/a4, r = -a3/a4
    # if a4 != 0; else d = (0, 0, 1), never isotropic, and p = (1, s, 0),
    # s = -a2/a3, or (0, 1, 0) if a3 = 0 too: the orbit of (1, x2, 0, 0).
    # With s = r = 0 where undefined, alpha = 1 + N(s), beta = frob(s) r,
    # gamma = 1 + N(r), and p + w d has key base + n w [a4 != 0] + p4 + w d4
    a2, a3, a4 = a = t.frob[rows[:, 1:].T]
    on_a4 = a4 != 0
    s, r = neg[t.times(a2, inv[np.where(on_a4, a4, a3)])], neg[t.times(a3, inv[a4])]
    alpha, beta, gamma = t.plus(1, norm[s]), t.times(t.frob[s], r), t.plus(1, norm[r])
    base = np.where(on_a4, n * n, np.where(a3 != 0, (n + s.astype(np.intp)) * n, n))
    p4, d4, w_step = np.where(on_a4, s, 0), np.where(on_a4, r, 1), n * on_a4
    jj, e = np.empty(len(rows) * (q + 1), dtype=np.intp), np.empty(len(rows) * (q + 1), dtype=np.int16)
    for r0, r1 in row_spans(np.full(len(rows), q + 1), WRITE_SPAN_CELLS):
        w, count = t.roots(alpha[r0:r1], beta[r0:r1], gamma[r0:r1])
        at_d = gamma[r0:r1] == 0
        if np.any(count + at_d != q + 1):
            raise AssertionError("a polar line must meet the Hermitian surface in q+1 points")
        key = t.plus(p4[r0:r1, None], t.times(w, d4[r0:r1, None])) + base[r0:r1, None]
        key += w_step[r0:r1, None] * w
        key[at_d, q] = n + r[r0:r1][at_d]  # d = (0, 1, r)
        c = np.sort(col_of.take(key), axis=1)
        if c[:, 0].min() < 0:
            raise AssertionError("an isotropic point of a polar line is not an ovoid column")
        # 1 - x.z_y = -(a2 z2 + a3 z3 + a4 z4), as x1 = z1 = 1
        xz = [t.times(a[l, r0:r1, None], z[l].take(c)) for l in range(3)]
        g = t.beta_dlog[neg[t.plus(t.plus(xz[0], xz[1]), xz[2])]]
        if np.any(g < 0):
            raise AssertionError("1 - x.z must have norm one when x is orthogonal to y")
        jj[r0 * (q + 1):r1 * (q + 1)], e[r0 * (q + 1):r1 * (q + 1)] = c.ravel(), g.ravel()
    return PolyphaseMatrix(AbelianGroup([q + 1]), (len(rows), len(cols)),
                           np.arange(len(rows)).repeat(q + 1), jj, e)


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
