"""Checkers for every identity the constructions promise.

Each verifier returns a VerificationReport: a list of named checks,
each pass/fail with a witness (index of the first offence) or a
residual (largest deviation).  Integer checks are authoritative and
exact; numeric checks use absolute tolerance 1e-9 on max entry
deviation and a relative singular value cutoff of 1e-8 for rank.
Verifiers raise only on API misuse; a malformed design gets a FAIL.

A Design derives what several checks read off one polyphase matrix Phi
once.  The exact and numeric routes stay independent: the combinatorial
verifier counts triple products with one bincount per row span over a
column-pair step table, the algebraic verifier multiplies each span of
rows of Phi into the integer Gram Phi* Phi by summing whole rows of the
Gram transposed and narrowed to the smallest exact integer type, and the
numeric verifier only ever sees evaluated complex matrices.

The DRACKN check reads A = Phi* Phi - rI as a plain (v, v, f) integer
array in row spans, and counts A^2 from the exponent table of A's
monomial off-diagonal cells with one bincount per span.

The GQ and SRG checks count from the nonzero cells of a 0/1 incidence Z
(a dense array's, or a Design's GQ lift cells) in bounded row spans, with
P = Z^T Z from one bincount over the point pairs of each block.  The
SRG quadratic of A = P - (t+1)I is checked as P^2 - (s+t)P - (t+1)J.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .construct import DracknParams, gq_cells
from .groupring import AbelianGroup, characters_of
from .polymat import PolyphaseMatrix, require_float_exact, row_pairs, row_spans

NUMERIC_TOL = 1e-9
RANK_REL_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    residual: float | None = None
    info: str = ""

    def line(self) -> str:
        bits = [("PASS" if self.passed else "FAIL"), self.name]
        if self.residual is not None:
            bits.append(f"residual={self.residual:.3g}")
        if self.witness is not None:
            bits.append(f"witness={self.witness}")
        if self.info:
            bits.append(f"[{self.info}]")
        return " ".join(bits)


@dataclass
class VerificationReport:
    subject: str
    checks: list[CheckResult] = dc_field(default_factory=list)
    numerics: "EtfNumerics | None" = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None, residual=None, info=""):
        if not passed and witness is None and residual is None:
            witness = ()
        self.checks.append(CheckResult(name, bool(passed), witness, residual, info))

    def extend(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name, c.passed, c.witness, c.residual, c.info)
            )

    def as_text(self) -> str:
        head = f"{'PASS' if self.passed else 'FAIL'} {self.subject}"
        return "\n".join([head] + ["  " + c.line() for c in self.checks])

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witness": list(c.witness) if c.witness is not None else None,
                    "residual": c.residual,
                    "info": c.info,
                }
                for c in self.checks
            ],
        }


@dataclass
class EtfNumerics:
    n: int
    d: int
    norm: float
    gram_modulus: float
    frame_constant: float
    welch: float
    coherence: float
    delta: float | None


def _first_bad(mask) -> tuple | None:
    idx = np.nonzero(mask)
    if len(idx[0]) == 0:
        return None
    return tuple(int(a[0]) for a in idx)


def verify_bibd(x: np.ndarray, v: int, k: int) -> VerificationReport:
    """Row sums k, column sums r = (v-1)/(k-1), every pair of columns
    meeting exactly once, and Fisher's bound."""
    rep = VerificationReport(subject=f"BIBD(v={v}, k={k}, lambda=1)")
    if k < 2 or v <= k:
        rep.add("parameters", False, info=f"block size k = {k} must be >= 2" if k < 2
                else f"need v > k, got v = {v}, k = {k}")
        return rep
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != v:
        rep.add("dimensions", False, witness=tuple(x.shape))
        return rep
    rep.add("dimensions", True)
    if (v - 1) % (k - 1):
        rep.add("replication-integral", False, witness=(v, k))
        return rep
    r = (v - 1) // (k - 1)
    rep.add("replication-integral", True, info=f"r={r}")
    if set(np.unique(x)) - {0, 1}:
        rep.add("zero-one", False, witness=_first_bad((x != 0) & (x != 1)))
        return rep
    rep.add("zero-one", True)
    rows = x.sum(axis=1)
    rep.add("row-sums", bool(np.all(rows == k)), witness=_first_bad(rows != k))
    cols = x.sum(axis=0)
    rep.add("col-sums", bool(np.all(cols == r)), witness=_first_bad(cols != r))
    # 0/1 entries and inner dimension b: every Gram sum is an exact float
    require_float_exact(x.shape[0], 1, 1)
    xf = x.astype(np.float64)
    gram = (xf.T @ xf).astype(np.int64)
    want = (r - 1) * np.eye(v, dtype=np.int64) + np.ones((v, v), dtype=np.int64)
    rep.add("pair-balance", bool(np.array_equal(gram, want)), witness=_first_bad(gram != want))
    rep.add("fisher", x.shape[0] >= v,
            witness=None if x.shape[0] >= v else (x.shape[0], v))
    return rep


class Design:
    """One polyphase matrix Phi and what the checks share, derived once:
    x = |Phi|^2, v, f, k (row 0's weight), r = (v-1)/(k-1) or None, the
    BIBD report; the Gram, a plain (v, v, f) int64 array, and the GQ lift
    cells when first read.  The DRACKN, a copy of the Gram, is rebuilt on
    each read, so it is not kept past its check."""

    def __init__(self, m: PolyphaseMatrix):
        self.m, self.x = m, m.modulus_squared()
        self.v, self.f = m.cols, m.group.order
        self.k = int(self.x[0].sum()) if m.rows else 0
        integral = self.k > 1 and (self.v - 1) % (self.k - 1) == 0
        self.r = (self.v - 1) // (self.k - 1) if integral else None
        self.bibd = verify_bibd(self.x, self.v, self.k)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Phi* Phi, the (v, v, f) int64 coefficient array of PolyphaseMatrix.gram."""
        return self.m.gram()

    @property
    def drackn(self) -> tuple[np.ndarray, DracknParams] | None:
        """(A, its parameters), where A = Phi* Phi - r I is a copy of the Gram
        with r taken off each diagonal cell at the identity; None unless
        c = k(r-1)/f is integral."""
        if self.r is None or self.k * (self.r - 1) % self.f:
            return None
        a = self.gram.copy()
        a[np.arange(self.v), np.arange(self.v), 0] -= self.r
        return a, DracknParams(self.v, self.f, self.k * (self.r - 1) // self.f)

    @functools.cached_property
    def gq(self) -> _Cells:
        """The GQ lift's cells; raises gq_cells's errors (k != f, over the cap)."""
        return _Cells(*gq_cells(self.m))


def _design_head(d: Design, kind: str) -> tuple[VerificationReport, bool]:
    """An exact report headed by the BIBD lines, and whether its identity may be checked."""
    rep = VerificationReport(f"polyphase {kind} ({d.m.rows}x{d.v} over {d.m.group.name()})")
    rep.extend(d.bibd, prefix="bibd:")
    if d.bibd.checks[0].name == "parameters":
        return rep, False
    divisible = d.k % d.f == 0
    rep.add("group-order-divides-k", divisible,
            witness=None if divisible else (d.f, d.k), info=f"f={d.f}, k={d.k}")
    return rep, d.bibd.passed and divisible


def _blocks(d: Design) -> tuple[np.ndarray, np.ndarray]:
    """The support columns and exponents of each row, as b x k arrays:
    once the BIBD has passed, every row holds k ones."""
    ii, jj = np.nonzero(d.x)
    return jj.reshape(-1, d.k), d.m.exponents[ii, jj].reshape(-1, d.k)


def verify_polyphase_combinatorial(d: Design) -> VerificationReport:
    """For every zero entry (i, j), the k triple products
    z^(i,j') z^(i',j')~ z^(i',j) over the blocks j' of i, where i' is the
    row through columns j' and j, must cover each group element exactly
    k/f times.  The last two factors depend on (j', j) alone, so they are
    read from one v x v step table, and each bounded row span counts its
    products with one bincount.  The witness is the row-major first
    offence; its info names the first group element off its quota."""
    rep, ok = _design_head(d, "combinatorial")
    if not ok:
        return rep
    m, x, v, k, f = d.m, d.x, d.v, d.k, d.f
    quota = k // f
    sub = m.group.add_index[:, m.group.neg_index]  # sub[a, b] = index of a - b
    sup, e = _blocks(d)
    # step[j' v + j] = e_(i'j) - e_(i'j') along the row i' through both
    # columns, unique under the BIBD; the diagonal is unread.  The span
    # loop gathers from flat tables, as 1-d takes are the fastest gathers
    step = np.zeros(v * v, dtype=np.intp)
    step[v * sup[:, :, None] + sup[:, None, :]] = sub[e[:, None, :], e[:, :, None]]
    add = m.group.add_index.ravel()
    bad, info = None, f"quota={quota}"
    for r0, r1 in row_spans(np.full(m.rows, k * (v - k)), SPAN_CELLS // 64):
        zeros = np.nonzero(x[r0:r1] == 0)[1].reshape(r1 - r0, v - k)
        # g[i, c, t] = e_(ij') + step[j', j] for row r0+i, its zero column
        # j = zeros[i, c] and its t-th block j', offset to a bincount slot
        g = step.take(v * sup[r0:r1, None, :] + zeros[:, :, None])
        g += f * e[r0:r1, None, :]
        g = add.take(g)
        g += (f * np.arange(zeros.size)).reshape(zeros.shape + (1,))
        counts = np.bincount(g.ravel(), minlength=zeros.size * f).reshape(zeros.shape + (f,))
        off = counts != quota
        if off.any():
            i, c, h = _first_bad(off)
            bad = (r0 + i, int(zeros[i, c]))
            info += f", element {m.group.elements[h]} counted {counts[i, c, h]}"
            break
    rep.add("triple-products", bad is None, witness=bad, info=info)
    return rep


def verify_polyphase_algebraic(d: Design) -> VerificationReport:
    """Exact group-ring identity: Phi Phi* Phi = (r+k-1) Phi + (k/f) G (J - X)
    where G is the sum of all group elements, checked against the integer
    Gram Phi* Phi laid out once as whole rows T[(j, h), c] = Gram[j, c](h)
    in the narrowest exact integer type.  Each bounded row span gathers
    the contiguous rows of T its support selects and stops at the first
    span with an offence; the witness is the row-major first offence, and
    its info names the first group element off its target and its count."""
    rep, ok = _design_head(d, "algebraic")
    if not ok:
        return rep
    m, x, v, k, r, f = d.m, d.x, d.v, d.k, d.r, d.f
    g = m.group
    quota = k // f
    coeffs = d.gram
    # every partial sum of k Gram coefficients lies in [0, k * max] and each
    # subtracted term (quota or r+k-1) is at most r+k-1, so this type is
    # exact for any input
    dt = np.min_scalar_type(-(k * int(coeffs.max()) + r + k))
    gram_t = np.empty((v, f, v), dt)
    gram_t[...] = coeffs.transpose(0, 2, 1)
    gram_t = gram_t.reshape(v * f, v)
    sub = g.add_index[:, g.neg_index]  # sub[a, b] = index of a - b
    sup, e = _blocks(d)
    # row i of the left side at (h, c) is sum_j Gram[j, c](h - e_ij): the
    # rows j f + sub[h, e_ij] of T, summed over the k support columns j
    diff, info = None, f"a={r + k - 1}"
    for r0, r1 in row_spans(np.full(m.rows, k * f * v), SPAN_CELLS // 8):
        n = r1 - r0
        idx = sup[r0:r1, :, None] * f + sub.T[e[r0:r1]]
        lhs = gram_t.take(idx.ravel(), axis=0).reshape(n, k, f, v).sum(axis=1, dtype=dt)
        lhs -= (quota * (x[r0:r1] == 0).astype(dt))[:, None, :]
        lhs[np.arange(n)[:, None], e[r0:r1], sup[r0:r1]] -= r + k - 1
        if lhs.any():
            # a support cell (i, c) always holds (r+k-1) z^(e_ic), as row i is
            # the only row through c and another of its columns; so the
            # offence is at a zero cell, whose target is quota everywhere
            i, c = _first_bad(lhs.any(axis=1))
            h = int(np.flatnonzero(lhs[i, :, c])[0])
            diff = (r0 + i, c)
            info += f", element {g.elements[h]} got {int(lhs[i, h, c]) + quota}, want {quota}"
            break
    rep.add("triple-identity", diff is None, witness=diff, info=info)
    return rep


def verify_etf_numeric(phi: np.ndarray, tol: float = NUMERIC_TOL) -> VerificationReport:
    """Equal norms, equiangularity, tightness of the Gram, and Welch-bound
    equality, plus the signature quadratic when off-diagonals are nonzero."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim != 2 or phi.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    n = phi.shape[1]
    norms = np.sum(np.abs(phi) ** 2, axis=0)
    rep = VerificationReport(subject=f"numeric ETF ({phi.shape[0]}x{n})")
    if np.min(norms) <= tol:
        rep.add("nonzero-columns", False, witness=_first_bad(norms <= tol))
        return rep
    r = float(np.mean(norms))
    rep.add("equal-norms", bool(np.max(np.abs(norms - r)) <= tol),
            residual=float(np.max(np.abs(norms - r))))
    gram = phi.conj().T @ phi
    offmask = ~np.eye(n, dtype=bool)
    if n > 1:
        mods = np.abs(gram[offmask])
        w = float(np.mean(mods))
        res = float(np.max(np.abs(mods - w)))
    else:
        w, res = 0.0, 0.0
    rep.add("equiangular", res <= tol, residual=res)
    sv = np.linalg.svd(phi, compute_uv=False)
    d = int(np.sum(sv > RANK_REL_TOL * sv[0]))
    a = r * n / d
    res = float(np.max(np.abs(gram @ gram - a * gram)))
    rep.add("tightness", res <= tol, residual=res, info=f"a={a:.6g}, d={d}")
    welch = math.sqrt((n - d) / (d * (n - 1))) if n > 1 else 0.0
    coherence = w / r
    rep.add("welch-equality", abs(coherence - welch) <= tol,
            residual=abs(coherence - welch))
    delta = None
    if w > tol:
        s = (gram - r * np.eye(n)) / w
        delta = (a - 2 * r) / w
        res = float(np.max(np.abs(s @ s - delta * s - (n - 1) * np.eye(n))))
        rep.add("signature-quadratic", res <= tol, residual=res,
                info=f"delta={delta:.6g}")
        d_back = n / 2 * (1 - delta / math.sqrt(delta * delta + 4 * (n - 1)))
        rep.add("signature-dimension", abs(d_back - d) <= 1e-6,
                residual=abs(d_back - d))
    else:
        rep.add("signature-quadratic", True, info="vacuous (orthogonal columns)")
    rep.numerics = EtfNumerics(
        n=n, d=d, norm=r, gram_modulus=w, frame_constant=a,
        welch=welch, coherence=coherence,
        delta=None if delta is None else float(delta),
    )
    return rep


# cells per row span of the GQ triple-product check, small enough to
# stay in cache; the point-pair spans may hold as many pairs as Z^T Z has
# cells, combinatorial gathers SPAN_CELLS // 64 per span and algebraic
# SPAN_CELLS // 8 narrowed Gram cells, at most 256 KiB at int16; drackn
# reads SPAN_CELLS // 16 cells of A, and counts as many sums, per span
SPAN_CELLS = 2**20


def _block_pairs(ii, jj, rows, n_points: int):
    """(block, point, point) of every ordered pair of points on a common
    block, in block order, one bounded row span at a time; (ii, jj) are
    the row-major nonzero cells and rows the row sums."""
    ptr = np.concatenate(([0], np.cumsum(rows)))
    for r0, r1 in row_spans(rows * rows, max(n_points * n_points, SPAN_CELLS)):
        lo = ptr[r0]
        a, b = row_pairs(ii[lo:ptr[r1]])
        yield ii[lo + a], jj[lo + a], jj[lo + b]


def _point_pairs(ii, jj, rows, n_points: int) -> np.ndarray:
    """Z^T Z of a 0/1 matrix: entry (a, c) counts the blocks through both
    points, by one bincount per row span of the ordered point pairs.  The
    counts are float64, exact below 2^53, so the SRG quadratic can
    multiply them with no copy."""
    total = None
    for _, a, c in _block_pairs(ii, jj, rows, n_points):
        part = np.bincount(a * n_points + c, np.ones(len(a)), n_points * n_points)
        total = part if total is None else np.add(total, part, out=total)
    return total.reshape(n_points, n_points)


class _Cells:
    """A 0/1 incidence by its shape, its row-major nonzero cells (ii, jj),
    their row sums and the first cell that is not 1 (None for a lift,
    whose cells are all ones); Z^T Z is counted on first use."""

    def __init__(self, shape, ii, jj, not_one=None):
        self.shape, self.ii, self.jj, self.not_one = shape, ii, jj, not_one
        self.rows = np.bincount(ii, minlength=shape[0])

    @classmethod
    def from_dense(cls, z) -> "_Cells":
        """The cells of a dense array, from one flat scan."""
        z = np.asarray(z)
        flat = np.flatnonzero(z)
        ii, jj = np.divmod(flat, z.shape[-1])
        bad = np.flatnonzero(z.ravel()[flat] != 1)
        return cls(z.shape, ii, jj, (int(ii[bad[0]]), int(jj[bad[0]])) if len(bad) else None)

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        return _point_pairs(self.ii, self.jj, self.rows, self.shape[1])


def _cells(z) -> _Cells:
    """A Design's GQ lift cells, counted once per Design, or a dense array's."""
    if isinstance(z, Design):
        return z.gq
    return z if isinstance(z, _Cells) else _Cells.from_dense(z)


def _first_shared_block_pair(ii, jj, rows, shared) -> tuple:
    """Row-major first off-diagonal entry (i, j) of Z Z^T above 1, given
    the off-diagonal point pairs that share two blocks: i is the first
    block holding such a pair, j the first other block meeting i twice."""
    for blk, a, c in _block_pairs(ii, jj, rows, len(shared)):
        hit = np.flatnonzero(shared[a, c])
        if len(hit):
            i = int(blk[hit[0]])
            break
    meets = np.bincount(ii[np.isin(jj, jj[ii == i])], minlength=len(rows))
    meets[i] = 0
    return i, int(np.flatnonzero(meets > 1)[0])


def _first_triple_offence(ii, jj, rows, pairs, s: int, t: int) -> tuple | None:
    """Row-major first entry where Z (Z^T Z) != (s+t) Z + J.  Row i of the
    product sums the point-pair rows of the points of block i; each
    bounded row span adds one point per row per step (short rows add a
    zero row) and the search stops at the first span with an offence."""
    n_points = len(pairs)
    # every count is at most the number of ones of z
    padded = np.zeros((n_points + 1, n_points), dtype=np.int32 if len(ii) < 2**31 else np.int64)
    padded[:n_points] = pairs
    ptr = np.concatenate(([0], np.cumsum(rows)))
    for r0, r1 in row_spans((rows + 1) * n_points, SPAN_CELLS):
        lo, hi = ptr[r0], ptr[r1]
        at = ii[lo:hi] - r0
        slots = np.full((r1 - r0, rows[r0:r1].max(initial=0)), n_points)
        slots[at, np.arange(lo, hi) - ptr[r0:r1][at]] = jj[lo:hi]
        span = np.full((r1 - r0, n_points), -1, dtype=padded.dtype)
        for points in slots.T:
            span += padded[points]
        span[at, jj[lo:hi]] -= s + t
        if np.count_nonzero(span):
            i, c = _first_bad(span != 0)
            return r0 + i, c
    return None


def verify_gq_axioms(z, s: int, t: int, check_spread: bool = False) -> VerificationReport:
    """Point-block incidence of a generalized quadrangle of order (s, t):
    blocks of size s+1, t+1 blocks per point, no repeated pairs, and the
    triple product Z Z^T Z = (s+t) Z + J.  z is a dense array or a
    Design, whose GQ lift is read; everything is counted from the nonzero
    cells and the point-pair matrix Z^T Z, so no blocks x blocks or
    blocks x points array is formed."""
    z = _cells(z)
    rep = VerificationReport(subject=f"GQ({s},{t}) axioms")
    n_blocks = (t + 1) * (s * t + 1)
    n_points = (s + 1) * (s * t + 1)
    if z.shape != (n_blocks, n_points):
        rep.add("dimensions", False, witness=tuple(z.shape),
                info=f"expected {n_blocks}x{n_points}")
        return rep
    rep.add("dimensions", True)
    rep.add("zero-one", z.not_one is None, witness=z.not_one)
    if z.not_one is not None:
        return rep
    ii, jj, rows = z.ii, z.jj, z.rows
    rep.add("row-sums", bool(np.all(rows == s + 1)), witness=_first_bad(rows != s + 1))
    cols = np.bincount(jj, minlength=n_points)
    rep.add("col-sums", bool(np.all(cols == t + 1)), witness=_first_bad(cols != t + 1))
    pairs = z.pairs
    shared = pairs > 1
    np.fill_diagonal(shared, False)
    # for a 0/1 matrix two blocks share two points exactly when two
    # points share two blocks, so only an offence needs the block search
    witness = _first_shared_block_pair(ii, jj, rows, shared) if shared.any() else None
    rep.add("block-pair-intersections", witness is None, witness=witness)
    witness = _first_bad(shared)
    rep.add("point-pair-collinearity", witness is None, witness=witness)
    witness = _first_triple_offence(ii, jj, rows, pairs, s, t)
    rep.add("triple-product", witness is None, witness=witness)
    if check_spread:
        # the first st+1 rows hold the points j(s+1) .. j(s+1)+s in row j
        head, points = np.searchsorted(ii, s * t + 1), np.arange(n_points)
        rep.add("spread", np.array_equal(ii[:head], points // (s + 1))
                and np.array_equal(jj[:head], points))
    return rep


def verify_drackn(a: np.ndarray, group: AbelianGroup, c: int) -> VerificationReport:
    """A = Phi* Phi - r I as an (n, n, f) integer array of group-ring
    coefficients: self-adjoint, hollow, monomial off the diagonal, and the
    exact quadratic A^2 = (n - fc - 2) A + (n-1) I + c G (J - I); then each
    nontrivial character evaluation must be an ETF signature matrix.  A is
    read in bounded row spans.  A^2 is counted from the exponent table D of
    A's monomial off-diagonal cells: each span takes the sums D_ik + D_kj
    from one add table and counts them with one bincount.  That is A^2
    wherever A is hollow and monomial off its diagonal; elsewhere only that
    part is counted, and the report already fails."""
    a = np.asarray(a)
    n, f = a.shape[0] if a.ndim else 0, group.order
    if a.shape != (n, n, f):
        raise ValueError(f"expected an (n, n, {f}) array, got shape {a.shape}")
    rep = VerificationReport(subject=f"({n},{f},{c})-DRACKN")
    spans = list(row_spans(np.full(n, n * f), SPAN_CELLS // 16))
    # D holds the exponent of each monomial off-diagonal cell of A; every
    # other cell is a hole, coded as f
    d = np.full((n, n), f, dtype=np.intp)
    adjoint_bad = monomial_bad = None
    for r0, r1 in spans:
        span, off = a[r0:r1], np.arange(n) != np.arange(r0, r1)[:, None]
        # row i of A* is column i of A under the involution
        bad = (span != a[:, r0:r1, group.neg_index].transpose(1, 0, 2)).any(axis=2)
        if adjoint_bad is None and (hit := _first_bad(bad)):
            adjoint_bad = (r0 + hit[0], hit[1])
        nonzero = span != 0
        monomial = (np.sum(span == 1, axis=2) == 1) & (np.sum(nonzero, axis=2) == 1) & off
        if monomial_bad is None and (hit := _first_bad(~monomial & off)):
            monomial_bad = (r0 + hit[0], hit[1])
        np.copyto(d[r0:r1], nonzero.argmax(axis=2), where=monomial)
    rep.add("self-adjoint", adjoint_bad is None, witness=adjoint_bad)
    diag = a[np.arange(n), np.arange(n)]
    rep.add("zero-diagonal", bool(np.all(diag == 0)), witness=_first_bad(diag.any(axis=1)))
    rep.add("monomial-off-diagonal", monomial_bad is None, witness=monomial_bad)
    delta = n - f * c - 2
    # the group's add table plus a hole row and column that send any hole
    # to slot f, which is dropped.  Span row i reads add[D_ik, D_kj] from
    # add[D[span]] at flat index (i n + k)(f + 1) + D_kj, laid out (i, j, k)
    # and counted into slots (i n + j)(f + 1) + h
    add = np.full((f + 1, f + 1), f, dtype=np.intp)
    add[:f, :f] = group.add_index
    rows = max(1, SPAN_CELLS // 16 // (n * n))
    index = (f + 1) * (n * np.arange(rows)[:, None, None] + np.arange(n)) + d.T
    slot = (f + 1) * np.arange(rows * n).reshape(rows, n, 1)
    diff = None
    for r0 in range(0, n, rows):
        m = min(rows, n - r0)
        # a self-adjoint A has a self-adjoint A^2 - (the right side), whose
        # row-major first offence lies on or right of the diagonal, so its
        # spans count the columns from the first row's diagonal on
        j0 = r0 if adjoint_bad is None else 0
        g = add[d[r0:r0 + m]].take(index[:m, j0:])
        g += slot[:m, j0:]
        counts = np.bincount(g.ravel(), minlength=m * n * (f + 1)).reshape(m, n, f + 1)
        lhs = counts[:, j0:, :f]
        lhs -= delta * a[r0:r0 + m, j0:] + c
        i = np.arange(m)
        lhs[i, r0 - j0 + i] += c - (n - 1) * (np.arange(f) == 0)
        if lhs.any():
            i, j = _first_bad(lhs.any(axis=2))
            diff = (r0 + i, j0 + j)
            break
    rep.add("quadratic", diff is None, witness=diff, info=f"delta={delta}")
    eye = np.eye(n)
    off = ~np.eye(n, dtype=bool)
    sig = np.empty((n, n), dtype=np.complex128)
    for gamma in characters_of(group):
        if gamma.is_trivial:
            continue
        for r0, r1 in spans:
            sig[r0:r1] = np.tensordot(a[r0:r1], gamma.values, axes=([2], [0]))
        name = f"signature@{gamma.exponents}"
        res = max(
            float(np.max(np.abs(sig - sig.conj().T))),
            float(np.max(np.abs(np.diagonal(sig)))),
            float(np.max(np.abs(np.abs(sig[off]) - 1))),
            float(np.max(np.abs(sig @ sig - delta * sig - (n - 1) * eye))),
        )
        dim = n / 2 * (1 - delta / math.sqrt(delta * delta + 4 * (n - 1)))
        rep.add(name, res <= NUMERIC_TOL, residual=res, info=f"d={dim:.6g}")
    return rep


def verify_srg_collinearity(
    z, s: int, t: int, gq: VerificationReport | None = None
) -> VerificationReport:
    """Collinearity graph of a GQ(s, t): strongly regular with parameters
    ((s+1)(st+1), s(t+1), s-1, t+1).  z is a dense array or a Design, as
    for verify_gq_axioms; gq is that check's report on the same z,
    computed here when not given; its spread line is ignored."""
    z = _cells(z)
    if gq is None:
        gq = verify_gq_axioms(z, s, t)
    axioms = [c for c in gq.checks if c.name != "spread"]
    if not all(c.passed for c in axioms):
        return VerificationReport(f"SRG of GQ({s},{t}) (GQ axioms failed)", axioms)
    n, deg, lam, mu = (s + 1) * (s * t + 1), s * (t + 1), s - 1, t + 1
    pairs = z.pairs  # P = Z^T Z; the adjacency is A = P - (t+1) I
    rep = VerificationReport(subject=f"SRG({n},{deg},{lam},{mu})")
    rep.add("gq-axioms", True)
    diag = pairs.diagonal()
    simple = (np.array_equal(pairs, pairs.T) and np.all(diag == t + 1)
              and np.count_nonzero(pairs > 1) == np.count_nonzero(diag > 1))
    rep.add("adjacency-simple", bool(simple))
    rows = pairs.sum(axis=1) - (t + 1)
    rep.add("regular", bool(np.all(rows == deg)), witness=_first_bad(rows != deg))
    # A^2 - (lam - mu) A - (deg - mu) I - mu J = P^2 - (s+t) P - (t+1) J must
    # vanish, exactly in float64 under the guard.  P is symmetric, so BLAS
    # forms P P^T = P^2 as a symmetric rank-k update; the rest is subtracted
    # in row spans of about a megabyte, so no other points x points array forms
    pmax = int(pairs.max(initial=0))
    require_float_exact(n, pmax, pmax)
    quad, witness = pairs @ pairs.T, None
    for r0, r1 in row_spans(np.full(n, n), SPAN_CELLS // 8):
        span = quad[r0:r1]
        span -= (s + t) * pairs[r0:r1] + (t + 1)
        if span.any():
            i, j = _first_bad(span != 0)
            witness = (r0 + i, j)
            break
    rep.add("srg-quadratic", witness is None, witness=witness)
    return rep


@dataclass(frozen=True)
class ScreenRow:
    v: int
    k: int
    r: int
    b: int
    u: int
    real_feasible: bool


def screen_parameters(k_min: int, k_max: int) -> list[ScreenRow]:
    """All (v, k) surviving the integrality screen: u ranges over divisors
    of k(k-1)(k-2) up to (k-1)(k-2)/2, determines v and r, and must also
    divide r(k-1)(k-2); b must be integral and at least v.  k = 2 admits
    every v (u = 0), so no rows are enumerated for it.  The flag marks
    the parity rule for real phases: v, k even and r odd."""
    if not 2 <= k_min <= k_max <= 20:
        raise ValueError(f"need 2 <= k_min <= k_max <= 20, got ({k_min}, {k_max})")
    rows = []
    for k in range(k_min, k_max + 1):
        kk = k * (k - 1) * (k - 2)
        for u in range(1, (k - 1) * (k - 2) // 2 + 1):
            if kk % u:
                continue
            v = k * (k - 1) ** 2 * (k - 2) // u - k * (k - 2)
            r = kk // u - (k - 1)
            if (r * (k - 1) * (k - 2)) % u:
                continue
            if (v * r) % k:
                continue
            b = v * r // k
            if b < v:
                continue
            real = v % 2 == 0 and k % 2 == 0 and r % 2 == 1
            rows.append(ScreenRow(v=v, k=k, r=r, b=b, u=u, real_feasible=real))
    rows.sort(key=lambda row: (row.k, row.v))
    return rows


# Expected screener output for 3 <= k <= 9, tabulated by hand from the
# divisibility rules, as (v, k, r, b, u).  The command line cross-check
# compares freshly screened rows against this list.
REFERENCE_ROWS: tuple[tuple[int, int, int, int, int], ...] = (
    (9, 3, 4, 12, 1),
    (16, 4, 5, 20, 3),
    (28, 4, 9, 63, 2),
    (64, 4, 21, 336, 1),
    (25, 5, 6, 30, 6),
    (45, 5, 11, 99, 4),
    (65, 5, 16, 208, 3),
    (105, 5, 26, 546, 2),
    (225, 5, 56, 2520, 1),
    (36, 6, 7, 42, 10),
    (51, 6, 10, 85, 8),
    (76, 6, 15, 190, 6),
    (96, 6, 19, 304, 5),
    (126, 6, 25, 525, 4),
    (276, 6, 55, 2530, 2),
    (576, 6, 115, 11040, 1),
    (49, 7, 8, 56, 15),
    (91, 7, 15, 195, 10),
    (175, 7, 29, 725, 6),
    (217, 7, 36, 1116, 5),
    (385, 7, 64, 3520, 3),
    (595, 7, 99, 8415, 2),
    (1225, 7, 204, 35700, 1),
    (64, 8, 9, 72, 21),
    (120, 8, 17, 255, 14),
    (288, 8, 41, 1476, 7),
    (344, 8, 49, 2107, 6),
    (736, 8, 105, 9660, 3),
    (1128, 8, 161, 22701, 2),
    (2304, 8, 329, 94752, 1),
    (81, 9, 10, 90, 28),
    (225, 9, 28, 700, 14),
    (441, 9, 55, 2695, 8),
    (513, 9, 64, 3648, 7),
    (945, 9, 118, 12390, 4),
    (1953, 9, 244, 52948, 2),
    (3969, 9, 496, 218736, 1),
)
