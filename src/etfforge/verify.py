"""Checkers for every identity the constructions promise.

Each verifier returns a VerificationReport: a list of named checks,
each pass/fail with a witness (index of the first offence) or a
residual (largest deviation).  Integer checks are authoritative and
exact; numeric checks use absolute tolerance 1e-9 on max entry
deviation.  The numeric rank comes from the frame potential, and a
relative singular value cutoff of 1e-8 sets it only when tightness fails.
Verifiers raise only on API misuse; a malformed design gets a FAIL.

A Design derives what several checks read off one polyphase matrix Phi
once, among them its one Gram array A = Phi* Phi - sI, narrow and laid
out (v, f, v), whose shift s is r when r is integral, else 0.  The exact
routes stay independent: the combinatorial verifier never reads A: it
gathers whole rows of a column-pair step table for each row span and
counts the span's triple products at every column as digit sums (below),
in span buffers it allocates once;
the algebraic verifier never reads the step table: it multiplies each
span of rows of Phi into A by adding whole rows of A, one support column
at a time, with no copy of A.  The numeric checks share one pass,
character_reports, and its one stage per character, square_at: A at the
character, S, in complex128 (float64 at a real character) and its one
product S S.  etf reads G = S + sI and G^2 = S S + 2sS + s^2 I off it
with O(v^2) more work; the DRACKN check reads its signature residuals
and, by Parseval over the group, A^2 exactly under an a-priori float
guard.  Evaluation at a conjugate character conjugates every entry and
changes no reported quantity, so the stage runs once per conjugate pair,
the trivial one included, in the calling thread.  That full pass, and so
the float guard, runs only where bibd (lambda = 1) or algebraic fails,
and for verify_drackn and verify_etf_numeric: once both pass, verify
derives every nontrivial etf and DRACKN line and forms one square to
cross-check them.  Proof:
algebraic gives Phi A = (k-1) Phi + (k/f) G (J - X), X the support; as
G z = G and X^T X = (r-1) I + J, Phi* G (J - X) = (r-1) G (J - I), so
A^2 = (k-1-r) A + r(k-1) I + c G (J - I), c = k(r-1)/f: the DRACKN
quadratic.  A is self-adjoint (a Gram), hollow (col-sums = r) and
monomial off its diagonal (pair-balance = 1).  At a nontrivial gamma,
gamma(G) = 0: S is a signature matrix, S^2 = delta S + (n-1) I, and
G = rI + S has G^2 = (r+k-1) G, an ETF at the Welch bound.

The combinatorial count is positional.  With quota = k/f and
B = quota + 1, the group's elements are split into lanes, runs of w
elements from h0, and element h weighs B^(h-h0) in its lane.  A zero
cell passes iff, in every lane, its k products' weights sum to B^w - 1,
the number whose w base-B digits all equal quota.  Proof: counts
c_h >= 0 with sum c_h B^(h-h0) = B^w - 1 have sum c_h >= quota w, with
equality only for the base-B digits, as each carry of a c_h >= B into
the next digit lowers sum c_h by B - 1 = quota >= 1 (none carries past
the top digit, as the sum is below B^w).  The lanes' counts add to
k = quota f, so every lane sits at its minimum and every c_h = quota.
A lane's sum is at most k B^(w-1), all k products on its top element;
lanes are as few as keep that below LANE_LIMIT = 2^63, so intp weights
and sums hold it.  At quota 1 (B = 2) one lane holds up to 57 elements
at k = 64.

The GQ and SRG checks count from the nonzero cells of a 0/1 incidence Z
(a dense array's, or a Design's GQ lift cells) by walks over its two hop
tables, block -> points and point -> blocks: a row of P = Z^T Z counts the
point -> block -> point walks from its point, a row of Z Z^T Z the
block -> point -> block -> point walks from its block.  One kernel
gathers whole table rows for a bounded span of sources at a time and
counts where the walks end with one bincount, so no array grows with
points^2; the BIBD pair balance walks its Z^T Z the same way.
For any Phi, each x in its group maps the lift onto itself: lifted row
v + i f + a goes to v + i f + (a + x), point j f + b to j f + (b + x),
and each spread row stays.  Z, P, Z Z^T and both sides of the triple
product are invariant too, so a row offends exactly when the
lowest-index row of its orbit does, and the row-major first offence
lies in such a row.  The walks start from those rows only: the points
j f for P, the spread rows and rows v + i f for Z Z^T and the triple
product; f times fewer sources, the same witnesses.  A dense array has
translation order 1, so every row is read.  The axioms report is counted
once per set of cells and (s, t), and the SRG check reads it: once the
axioms pass, every SRG identity follows from them, so no P^2 is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .construct import DracknParams, gq_cells
from .groupring import AbelianGroup, Character, characters_of, first_of_conjugates, select_characters
from .polymat import PolyphaseMatrix, row_spans

NUMERIC_TOL = 1e-9
RANK_REL_TOL = 1e-8
CHECK_NAMES = ("bibd", "combinatorial", "algebraic", "etf", "drackn", "gq", "srg")


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
    """Row-major first True of a boolean array, or None, by argmax: no index arrays."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape)) if mask.any() else None


def verify_bibd(x, v: int, k: int) -> VerificationReport:
    """Row sums k, column sums r = (v-1)/(k-1), every pair of columns
    meeting exactly once, and Fisher's bound, of a dense array or _Cells x.
    A failing row-sums, col-sums or pair-balance line names the count at
    its witness against its target, as "got X, want Y"."""
    rep = VerificationReport(subject=f"BIBD(v={v}, k={k}, lambda=1)")
    if k < 2 or v <= k:
        rep.add("parameters", False, info=f"block size k = {k} must be >= 2" if k < 2
                else f"need v > k, got v = {v}, k = {k}")
        return rep
    if len(np.shape(x)) != 2 or np.shape(x)[1] != v:
        rep.add("dimensions", False, witness=np.shape(x))
        return rep
    rep.add("dimensions", True)
    if (v - 1) % (k - 1):
        rep.add("replication-integral", False, witness=(v, k))
        return rep
    r = (v - 1) // (k - 1)
    rep.add("replication-integral", True, info=f"r={r}")
    x = _cells(x)
    if not _add_sums(rep, x, k, r):
        return rep
    # Z^T Z by point -> block -> point walks, as for the GQ check: r on the
    # diagonal, 1 off it
    def off_balance(at, pairs):
        mask, diagonal = pairs != 1, (np.arange(len(at)), at)
        mask[diagonal] = pairs[diagonal] != r
        return mask

    bad = _first_offence(np.arange(v), x.hops[::-1], v, off_balance)
    rep.add("pair-balance", not bad, witness=bad and bad[:2],
            info="" if not bad else f"got {bad[2]}, want {r if bad[0] == bad[1] else 1}")
    b = x.shape[0]
    rep.add("fisher", b >= v, witness=None if b >= v else (b, v))
    return rep


class Design:
    """One polyphase matrix Phi and what the checks share, derived once:
    v, f, k (row 0's cells), r = (v-1)/(k-1) or None, the BIBD report on
    Phi's cells; when first read, the one Gram array that algebraic, etf
    and drackn read, the algebraic report, and then the GQ lift cells."""

    def __init__(self, m: PolyphaseMatrix):
        self.m, self.v, self.f = m, m.cols, m.group.order
        self.k = int(np.searchsorted(m.ii, 1))
        integral = self.k > 1 and (self.v - 1) % (self.k - 1) == 0
        self.r = (self.v - 1) // (self.k - 1) if integral else None
        self.bibd = verify_bibd(_Cells(m.shape, m.ii, m.jj, 1), self.v, self.k)

    @functools.cached_property
    def gram(self) -> tuple[np.ndarray, int]:
        """(A, shift): PolyphaseMatrix.gram less shift I, shift = r if integral,
        else 0; widened only where -r misses its type (columns missing r)."""
        a, shift = self.m.gram(), self.r or 0
        if -shift < np.iinfo(a.dtype).min:
            a = a.astype(np.min_scalar_type(-shift))
        a[np.arange(self.v), 0, np.arange(self.v)] -= shift
        return a, shift

    @functools.cached_property
    def drackn(self) -> tuple[np.ndarray, DracknParams] | None:
        """(A = Phi* Phi - r I, its parameters); None unless c = k(r-1)/f is integral."""
        if self.r is None or self.k * (self.r - 1) % self.f:
            return None
        return self.gram[0], DracknParams(self.v, self.f, self.k * (self.r - 1) // self.f)

    @functools.cached_property
    def algebraic(self) -> VerificationReport:
        """verify_polyphase_algebraic's report: its verdict lets etf and drackn be derived."""
        return verify_polyphase_algebraic(self)

    @functools.cached_property
    def gq(self) -> _Cells:
        """The GQ lift's cells, translation order f; raises gq_cells's errors.
        The Gram array is dropped first, so the GQ checks do not hold it."""
        for key in ("gram", "drackn"):
            vars(self).pop(key, None)
        return _Cells(*gq_cells(self.m), self.f)


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
    """The support columns and intp exponents of each row, as b x k arrays:
    once the BIBD has passed, every row holds k cells."""
    return d.m.jj.reshape(-1, d.k), d.m.e.astype(np.intp).reshape(-1, d.k)


def verify_polyphase_combinatorial(d: Design) -> VerificationReport:
    """For every zero entry (i, j), the k triple products
    z^(i,j') z^(i',j')~ z^(i',j) over the blocks j' of i, where i' is the
    row through columns j' and j, must cover each group element exactly
    k/f times.  The last two factors depend on (j', j) alone, so they are
    read from one v x v step table, narrow enough to hold f^2.  Each
    bounded row span gathers the k whole table rows its blocks select,
    as slots of the flat add table, takes each product's weight in every
    lane and sums the k weights at every column, its support cells set
    to the target before the search (see the module docstring); the span
    buffers are allocated once, as large as the largest span.  The
    witness is the row-major first cell where any lane misses; its info
    names the first group element off its quota, counted from that
    cell's k products alone."""
    rep, ok = _design_head(d, "combinatorial")
    if not ok:
        return rep
    m, v, k, f = d.m, d.v, d.k, d.f
    quota = k // f
    sup, e = _blocks(d)
    # step[j', j] = e_(i'j) - e_(i'j') along the row i' through both
    # columns, unique under the BIBD; the diagonal reaches only support
    # cells.  It adds f e below, so it is typed to hold f^2, the size of
    # the flat add table, and is written by flat index one block j' of
    # every row at a time, so no b x k x k array forms
    step = np.zeros((v, v), dtype=np.min_scalar_type(f * f))
    sub = m.group.add_index[:, m.group.neg_index].astype(step.dtype).ravel()  # a - b at a f + b
    fe = f * e
    for t in range(k):  # a flat setitem scatters about 3x faster than put
        step.reshape(-1)[sup[:, t, None] * v + sup] = sub.take(fe + e[:, t, None])
    add = m.group.add_index.ravel()
    fe = fe.astype(step.dtype)
    # the intp weight of each flat add table slot in each lane, and the
    # sums the lanes must reach, B^w - 1
    plan = _lanes(k, f)
    weight = np.zeros((f, len(plan)), dtype=np.intp)
    for lane, (h0, w) in enumerate(plan):
        weight[h0:h0 + w, lane] = (quota + 1) ** np.arange(w)
    table, want = weight[add], np.array([(quota + 1) ** w - 1 for _, w in plan])
    # the span buffers, allocated once, each as many rows as the largest
    # span: the gathered step rows, their intp slots (take reads any other
    # index type through a fresh intp copy), the lanes' weights, written
    # over the slots when there is one lane, and the sums
    budget = SPAN_CELLS // 16
    most = min(max(1, budget // (k * v)), m.rows)
    gathered = np.empty((most, k, v), dtype=step.dtype)
    slots = np.empty((most, k, v), dtype=np.intp)
    lanes = slots[..., None] if len(plan) == 1 else np.empty((most, k, v, len(plan)), np.intp)
    sums = np.empty((most, v, len(plan)), dtype=np.intp)
    bad, info = None, f"quota={quota}"
    for r0, r1 in row_spans(np.full(m.rows, k * v), budget):
        n = r1 - r0
        # s[i, t, j] = f e_(ij') + step[j', j], the flat add table slot of
        # the product for row r0+i, its t-th block j' and every column j;
        # the support columns sum junk, set to the target before the
        # search.  Every index is in range, so "clip" only spares take its
        # buffered copy, and each slot is read before it is written
        g, s, total = gathered[:n], slots[:n], sums[:n]
        np.take(step, sup[r0:r1], axis=0, out=g, mode="clip")
        np.add(g, fe[r0:r1, :, None], out=s)
        np.add.reduce(table.take(s, axis=0, out=lanes[:n], mode="clip"), axis=1, out=total)
        total[np.arange(n)[:, None], sup[r0:r1]] = want
        off = (total != want).any(axis=2)
        if off.any():
            i, j = _first_bad(off)
            counts = np.bincount(add.take(g[i, :, j] + fe[r0 + i]), minlength=f)
            h = int(np.flatnonzero(counts != quota)[0])
            bad = (r0 + i, j)
            info += f", element {m.group.elements[h]} counted {counts[h]}"
            break
    rep.add("triple-products", bad is None, witness=bad, info=info)
    return rep


def _lanes(k: int, f: int) -> list[tuple[int, int]]:
    """(first element h0, width w) of each lane of the combinatorial count:
    the f group elements split into as few runs of equal width as keep
    each lane's largest sum, k B^(w-1) for B = k/f + 1, below LANE_LIMIT."""
    base, most = k // f + 1, 1
    while most < f and k * base**most < LANE_LIMIT:
        most += 1
    w = -(-f // -(-f // most))
    return [(h0, min(w, f - h0)) for h0 in range(0, f, w)]


def verify_polyphase_algebraic(d: Design) -> VerificationReport:
    """Exact group-ring identity: Phi Phi* Phi = (r+k-1) Phi + (k/f) G (J - X)
    where G is the sum of all group elements, checked as
    Phi A = (k-1) Phi + (k/f) G (J - X) on the Design's A = Phi* Phi - rI,
    read with no copy as whole rows T[(j, h), c] = A[j, h, c].  Each
    bounded row span, of f v sums per row, adds the rows of T its support
    selects one support column at a time, and the search stops at the
    first span with an offence; the witness is the row-major first
    offence, and its info names the first group element off its target
    and its count.  The sums are exact in the narrowest type
    that holds k max|A| + 2k: a sum of k coefficients lies within k max|A|,
    and the quota (k/f) and k-1 it is compared with are each at most k.  On
    a design of 0/1 Gram coefficients that is 3k, int8 up to k = 42."""
    rep, ok = _design_head(d, "algebraic")
    if not ok:
        return rep
    m, v, k, r, f = d.m, d.v, d.k, d.r, d.f
    g = m.group
    quota = k // f
    a = d.drackn[0]  # f | k makes c = k(r-1)/f integral, so A is there
    dt = np.min_scalar_type(-(k * max(int(a.max()), -int(a.min())) + 2 * k) - 1)
    t = a.reshape(v * f, v)
    sub = g.add_index[:, g.neg_index]  # sub[a, b] = index of a - b
    sup, e = _blocks(d)
    # row i of Phi A at (h, c) is sum_j A[j, h - e_ij, c]: the rows
    # j f + sub[h, e_ij] of T, summed over the k support columns j
    diff, info = None, f"a={r + k - 1}"
    for r0, r1 in row_spans(np.full(m.rows, f * v), SPAN_CELLS // 8):
        n = r1 - r0
        idx = sup[r0:r1, :, None] * f + sub.T[e[r0:r1]]  # (n, k, f) rows of T
        lhs = t.take(idx[:, 0], axis=0).astype(dt, copy=False)
        for s in range(1, k):
            lhs += t.take(idx[:, s], axis=0)
        lhs -= quota  # the target at a zero cell; at a support cell, (k-1) z^(e_ic)
        lhs[np.arange(n)[:, None], :, sup[r0:r1]] += quota
        lhs[np.arange(n)[:, None], e[r0:r1], sup[r0:r1]] -= k - 1
        if lhs.any():
            # on A = Phi* Phi - rI a support cell (i, c) always holds
            # (k-1) z^(e_ic), as row i is the only row through c and another
            # of its columns, so the offence is at a zero cell; any other A
            # may offend at a support cell first
            i, c = _first_bad(lhs.any(axis=1))
            h = int(np.flatnonzero(lhs[i, :, c])[0])
            diff = (r0 + i, c)
            at = sup[r0 + i] == c
            want = (k - 1) * int(e[r0 + i][at][0] == h) if at.any() else quota
            info += f", element {g.elements[h]} got {int(lhs[i, h, c]) + want}, want {want}"
            break
    rep.add("triple-identity", diff is None, witness=diff, info=info)
    return rep


def verify_etf_numeric(phi, tol: float = NUMERIC_TOL, *, gamma: Character | None = None
                       ) -> VerificationReport:
    """Equal norms, equiangularity, tightness of the Gram, and Welch-bound
    equality, plus the signature quadratic when off-diagonals are nonzero.
    phi is a PolyphaseMatrix, read at the character gamma, or a dense
    matrix.  A real character or a real phi is checked in float64, any
    other in complex128.  Every quantity reported is unchanged when phi is
    conjugated entrywise, so the report at a character also holds at its
    conjugate.

    G = Phi* Phi, phi.gram() at gamma or one BLAS product, and the one
    product G^2 serve tightness and the signature quadratic.  d is
    the frame potential's estimate round((tr G)^2 / tr G^2): that ratio is
    n / (1 + (n-1)(w/r)^2) for norms r and off-diagonal moduli w, at most
    rank G, with equality iff the nonzero eigenvalues are equal (Welch;
    Benedetto-Fickus, 2003); a = tr G / d.  Why a passing tightness pins d:
    G is Hermitian, so E = G^2 - aG has the eigenvalue lam (lam - a) at each
    eigenvalue lam of G, and |E| <= tol entrywise bounds each by n tol.  So
    every lam lies within 2 n tol / a of 0 or of a, and as tr G = d a
    exactly, the count m of eigenvalues near a has
    |m - d| <= 2 n^2 tol / a^2, below 1/2 whenever a > 2 n sqrt(tol): for
    tol = 1e-9 and a design, where a >= r >= 1, any n up to 15000.  Then
    d = m, the rank at any cutoff between the two clusters, and the SVD's
    rank at the relative cutoff 1e-8 whenever the singular values of Phi
    off the top cluster are below 1e-8 of the largest, as they are at
    rounding level on an ETF.  Only a failing tightness runs the SVD of Phi,
    taken from the R of a QR of its nonzero cells built one row span at a
    time, so a FAIL line's a and d are those of the numerical rank."""
    if not isinstance(phi, PolyphaseMatrix):
        phi = np.asarray(phi, dtype=np.complex128 if np.iscomplexobj(phi) else np.float64)
    elif gamma is None or gamma.group != phi.group:
        raise ValueError("a PolyphaseMatrix is read at a character of its group")
    if len(phi.shape) != 2 or phi.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if isinstance(phi, PolyphaseMatrix):
        return character_reports(phi.gram(), 0, phi.group, [gamma], phi=phi, tol=tol)[0]
    return etf_from_square(gram := phi.conj().T @ phi, gram @ gram, 0, phi, tol=tol)


def character_reports(a: np.ndarray, shift: int, group: AbelianGroup, gammas=(),
                      c: int | None = None, *, phi=None, tol: float = NUMERIC_TOL,
                      proven: bool = False) -> list:
    """The one numeric pass over the characters of group, on the (n, f, n)
    a = Phi* Phi - shift I: the etf report on phi at each of gammas, then,
    if c is given, the DRACKN report on a with that c.  Each is read at the
    first character of its conjugate pair, and each such first (with c,
    every first, the trivial one included) takes one square_at: the DRACKN
    reads S and S S before etf writes G and G^2 over them.  The firsts run
    in the calling thread, one square at a time.  If proven, Phi
    passed bibd and algebraic (shift r), so each line at a nontrivial
    character is derived but at one cross-check first: the first real one
    of etf's nontrivial firsts, else the first, or with none, of every
    nontrivial first.  If it fails, a cross-check line names the contradiction."""
    if gammas and phi is None:
        raise ValueError("etf reports need phi, the matrix whose Gram less shift I is a")
    chars = characters_of(group)
    pairs = first_of_conjugates(chars)
    etf_at = [pairs[group.index(g.exponents)] for g in gammas]
    todo = sorted(set(etf_at) | set(pairs if c is not None else ()))
    if proven:
        cross = sorted(set(etf_at) - {0}) or [i for i in todo if i]
        cross = [i for i in cross if chars[i].is_real()] + cross
        todo = sorted({0} & set(etf_at) | set(cross[:1]))
    energy = np.zeros((len(a), len(a))) if c is not None else None  # DRACKN's alone
    residuals, checked = {}, {}
    for i in todo:
        s, p = square_at(a, chars[i])
        if c is not None:
            residuals[i] = signature_term(s, p, chars[i], c, energy)
        if i in etf_at:
            checked[i] = etf_from_square(s, p, shift, phi, chars[i], tol)
    tail = [_drackn_report(a, group, c, energy, residuals, pairs, proven)] if c is not None else []
    if proven:
        checked = {i: checked.get(i) or _etf_exact(len(a), shift, phi.shape[0]) for i in etf_at}
        if cross and not all(rep.passed for rep in [checked.get(cross[0]), *tail] if rep):
            (checked.get(cross[0]) or tail[0]).add("cross-check", False, info=(
                f"the square at {chars[cross[0]].exponents} fails, though bibd and algebraic pass"))
    return [checked[i] for i in etf_at] + tail


def _etf_exact(n: int, r: int, rows: int) -> VerificationReport:
    """etf_from_square's report at a nontrivial character of a design that
    passed bibd and algebraic, where S is exactly a signature matrix: every
    residual 0.0, a = r+k-1 with k-1 = (n-1)/r, d = nr/a, delta = k-1-r."""
    a = r + (n - 1) // r
    d, delta, rep = n * r // a, a - 2 * r, VerificationReport(f"numeric ETF ({rows}x{n})")
    for name, info in (("equal-norms", ""), ("equiangular", ""), ("tightness", f"a={a:.6g}, d={d}"),
                       ("welch-equality", ""), ("signature-quadratic", f"delta={delta:.6g}"),
                       ("signature-dimension", "")):
        rep.add(name, True, residual=0.0, info=info)
    welch = math.sqrt((n - d) / (d * (n - 1)))
    rep.numerics = EtfNumerics(n, d, float(r), 1.0, float(a), welch, 1 / r, float(delta))
    return rep


def square_at(a: np.ndarray, gamma: Character) -> tuple[np.ndarray, np.ndarray]:
    """S = the (n, f, n) a at gamma, by row spans, in float64 at a real
    character, else complex128, and S S: the stage etf and drackn share."""
    n, values = len(a), gamma.typed_values
    s = np.empty((n, n), dtype=values.dtype)
    for r0, r1 in row_spans(np.full(n, a.shape[1] * n), SPAN_CELLS // 16):
        s[r0:r1] = values @ a[r0:r1]
    return s, s @ s


def etf_from_square(gram, e, shift: int, phi, gamma=None, tol=NUMERIC_TOL) -> VerificationReport:
    """verify_etf_numeric's report on phi (at gamma) from S = Phi* Phi - shift I
    and e = S S, which become G and G^2 - aG in place, with O(n^2) work."""
    n = len(gram)
    e += 2 * shift * gram
    e.flat[::n + 1] += shift * shift
    gram.flat[::n + 1] += shift
    norms = gram.diagonal().real
    rep = VerificationReport(subject=f"numeric ETF ({phi.shape[0]}x{n})")
    if np.min(norms) <= tol:
        rep.add("nonzero-columns", False, witness=_first_bad(norms <= tol))
        return rep
    r = float(np.mean(norms))
    rep.add("equal-norms", bool(np.max(np.abs(norms - r)) <= tol),
            residual=float(np.max(np.abs(norms - r))))
    if n > 1:
        mods = np.abs(gram[~np.eye(n, dtype=bool)])
        w = float(np.mean(mods))
        res = float(np.max(np.abs(mods - w)))
    else:
        w, res = 0.0, 0.0
    rep.add("equiangular", res <= tol, residual=res)
    # e = G^2 - aG, in place of G^2; for Hermitian G, tr G^2 = |G|_F^2
    d = round((r * n) ** 2 / float(np.trace(e).real))
    a = r * n / d
    e -= a * gram
    res = float(np.max(np.abs(e)))
    if res > tol:
        # Phi = QR and R share their singular values; R is refactored with
        # each span of Phi's cells stacked under it, in one buffer of n + n/2
        # rows that the first span fills whole.  qr holds two more copies of
        # the stack, so the QR peaks at 3 (n + n/2) n cells, whatever b is
        ii, jj = np.nonzero(phi) if gamma is None else (phi.ii, phi.jj)
        cells = phi[ii, jj] if gamma is None else gamma.typed_values[phi.e]
        b = phi.shape[0]
        buf, top, r0 = np.zeros((min(b, n + max(1, n // 2)), n), dtype=cells.dtype), 0, 0
        while r0 < b:
            r1 = min(b, r0 + len(buf) - top)
            lo, hi = np.searchsorted(ii, (r0, r1))
            buf[top:] = 0
            buf[top + ii[lo:hi] - r0, jj[lo:hi]] = cells[lo:hi]
            rows, top, r0 = top + r1 - r0, min(top + r1 - r0, n), r1
            buf[:top] = np.linalg.qr(buf[:rows], mode="r")
        sv = np.linalg.svd(buf[:top], compute_uv=False)
        d, a_est = int(np.sum(sv > RANK_REL_TOL * sv[0])), a
        a = r * n / d
        e += (a_est - a) * gram
        res = float(np.max(np.abs(e)))
    rep.add("tightness", res <= tol, residual=res, info=f"a={a:.6g}, d={d}")
    welch = math.sqrt((n - d) / (d * (n - 1))) if n > 1 else 0.0
    coherence = w / r
    rep.add("welch-equality", abs(coherence - welch) <= tol,
            residual=abs(coherence - welch))
    delta = None
    if w > tol:
        # for s = (G - rI) / w, s^2 = (G^2 - 2rG + r^2 I) / w^2, so
        # s^2 - delta s - (n-1) I = (e + ((a - r) r - (n-1) w^2) I) / w^2
        delta = (a - 2 * r) / w
        e.flat[::n + 1] += (a - r) * r - (n - 1) * w * w
        res = float(np.max(np.abs(e))) / (w * w)
        rep.add("signature-quadratic", res <= tol, residual=res,
                info=f"delta={delta:.6g}")
        d_back = n / 2 * (1 - delta / math.sqrt(delta * delta + 4 * (n - 1)))
        rep.add("signature-dimension", abs(d_back - d) <= 1e-6,
                residual=abs(d_back - d))
    else:
        rep.add("signature-quadratic", True, info="vacuous (orthogonal columns)")
    rep.numerics = EtfNumerics(n, d, r, w, a, welch, coherence, delta)
    return rep


# cells per row span: the walk kernel of the GQ and pair-balance checks
# holds SPAN_CELLS // 16 walks plus counted cells per span, or width^2 / 4
# if fewer, so its few intp arrays per span take no more bytes than the
# int64 Z^T Z of that width that they stand in for;
# combinatorial gathers SPAN_CELLS // 16 cells of its step table per span,
# k v per row, into buffers it allocates once (at most 512 KiB of intp
# slots; on a 2-core VM, affine q=27 took 31, 39 and 39 ms at this budget,
# at half and at a quarter of it, and 33 ms at twice it, affine q=16 4.6,
# 4.9, 5.7 and 4.5 ms);
# algebraic holds SPAN_CELLS // 8 sums, f v per row, at most 256 KiB at
# int16, and adds into them one gathered support column at a time;
# square_at evaluates SPAN_CELLS // 16 cells of A per span
SPAN_CELLS = 2**20
# bound on a combinatorial lane's largest sum, so that its intp sums hold it
LANE_LIMIT = 2**63


def _walk_counts(sources, hops, width: int):
    """Yield (r0, counts) per span of sources: counts[i, c] is the number
    of walks from sources[r0 + i] along the chain of hop tables (see
    _Cells.hops) that end at c < width.  Each span gathers whole table rows
    hop by hop, so its walks stay grouped by source, and counts their ends
    with one bincount; it holds at most the budget in walks plus counted
    cells, unless one source alone exceeds it."""
    budget = min(SPAN_CELLS // 16, width * width // 4)
    walks = math.prod(table.shape[1] for table in hops)
    for r0, r1 in row_spans(np.full(len(sources), walks + width), budget):
        at = sources[r0:r1]
        for table in hops:
            at = table.take(at, axis=0)
        # each source's ends, offset to its own row of width + 1 slots, the
        # last of which counts the walks that reached the sink
        at = at.reshape(r1 - r0, -1)
        at += (width + 1) * np.arange(r1 - r0)[:, None]
        counts = np.bincount(at.ravel(), minlength=(r1 - r0) * (width + 1))
        yield r0, counts.reshape(r1 - r0, width + 1)[:, :width]


def _first_offence(sources, hops, width: int, bad) -> tuple | None:
    """(source, end, count) at the row-major first cell of the walk counts
    of _walk_counts where bad(at, counts) holds, at the span's sources;
    None if there is none.  The search stops at the first such span."""
    for r0, counts in _walk_counts(sources, hops, width):
        at = sources[r0:r0 + len(counts)]
        mask = bad(at, counts)
        if mask.any():
            i, c = _first_bad(mask)
            return int(at[i]), c, int(counts[i, c])
    return None


def _shared(at, counts):
    """Off-diagonal counts above 1: two nodes joined by two walks."""
    mask = counts > 1
    mask[np.arange(len(at)), at] = False
    return mask


class _Cells:
    """A 0/1 incidence by its shape, its row-major nonzero cells (ii, jj),
    their row and column sums, the first cell that is not 1 (None for a
    lift, whose cells are all ones) and its translation order f: the group
    order for a lift, whose translation orbits are each spread row, the
    lifted rows v + i f + a and the points j f + b; 1 for a dense array.
    The two hop tables the walks gather along, and the GQ axioms report
    for each (s, t), are derived on first use."""

    def __init__(self, shape, ii, jj, f, not_one=None):
        self.shape, self.ii, self.jj, self.f, self.not_one = shape, ii, jj, f, not_one
        self.rows, self.cols = (np.bincount(a, minlength=m) for a, m in zip((ii, jj), shape))
        self.axioms: dict[tuple[int, int], VerificationReport] = {}

    @classmethod
    def from_dense(cls, z) -> "_Cells":
        """The cells of a dense array, from one flat scan."""
        z = np.asarray(z)
        flat = np.flatnonzero(z)
        ii, jj = np.divmod(flat, z.shape[-1])
        bad = np.flatnonzero(z.ravel()[flat] != 1)
        return cls(z.shape, ii, jj, 1, (int(ii[bad[0]]), int(jj[bad[0]])) if len(bad) else None)

    @functools.cached_property
    def hops(self) -> tuple[np.ndarray, np.ndarray]:
        """(block -> points, point -> blocks) as tables, one row of
        neighbours per node: the row-major cells, and the blocks of each
        point from one sort of the distinct keys jj b + ii (as ii ascends, a
        stable sort of jj, far faster than a stable argsort).  Once the sums
        hold they are (blocks, s+1) and (points, t+1); else short rows are
        padded with a sink node, one past the last, whose own row, the
        table's last, leads to the other sink."""
        b, p = self.shape
        return _table(self.rows, self.jj, p), _table(self.cols, np.sort(self.jj * b + self.ii) % b, b)


def _table(degrees, targets, sink: int) -> np.ndarray:
    """Rows of targets of the given degrees, padded with sink, and a last row of sink."""
    table = np.full((len(degrees) + 1, degrees.max(initial=0)), sink)
    table[:-1][np.arange(table.shape[1]) < degrees[:, None]] = targets
    return table


def _cells(z) -> _Cells:
    """A Design's GQ lift cells, counted once per Design, a _Cells as is, or a dense array's."""
    if isinstance(z, Design):
        return z.gq
    return z if isinstance(z, _Cells) else _Cells.from_dense(z)


def _add_sums(rep: VerificationReport, z: _Cells, row: int, col: int) -> bool:
    """Add z's zero-one line, then, if z is 0/1, its row and col sums lines; return whether."""
    rep.add("zero-one", z.not_one is None, witness=z.not_one)
    if z.not_one is not None:
        return False
    for name, sums, want in (("row-sums", z.rows, row), ("col-sums", z.cols, col)):
        witness = _first_bad(sums != want)
        rep.add(name, witness is None, witness=witness,
                info="" if witness is None else f"got {sums[witness]}, want {want}")
    return True


def verify_gq_axioms(z, s: int, t: int, check_spread: bool = False) -> VerificationReport:
    """Point-block incidence of a generalized quadrangle of order (s, t):
    blocks of size s+1, t+1 blocks per point, no repeated pairs, and the
    triple product Z Z^T Z = (s+t) Z + J.  z is a dense array or a
    Design, whose GQ lift is read; everything is counted by walks over the
    nonzero cells in bounded spans, so no blocks x blocks, blocks x points
    or points x points array is formed.  The walks start from one row per
    translation orbit of a Design's lift, where the first offence lies
    (see the module docstring), so witnesses are the full products'.  A
    failing row-sums, col-sums or triple-product line names the count at
    its witness against its target, as "got X, want Y"."""
    z = _cells(z)
    axioms = _gq_axioms(z, s, t)
    rep = VerificationReport(axioms.subject)
    rep.extend(axioms)
    # a report that stopped at its dimensions or zero-one line gets no spread
    if check_spread and rep.checks[-1].name == "triple-product":
        # the first st+1 rows hold the points j(s+1) .. j(s+1)+s in row j
        head, points = np.searchsorted(z.ii, s * t + 1), np.arange(z.shape[1])
        rep.add("spread", np.array_equal(z.ii[:head], points // (s + 1))
                and np.array_equal(z.jj[:head], points))
    return rep


def _gq_axioms(z: _Cells, s: int, t: int) -> VerificationReport:
    """verify_gq_axioms's report on z with no spread line, counted once
    per (s, t) and kept on z."""
    if (s, t) not in z.axioms:
        z.axioms[s, t] = _count_gq_axioms(z, s, t)
    return z.axioms[s, t]


def _count_gq_axioms(z: _Cells, s: int, t: int) -> VerificationReport:
    rep = VerificationReport(subject=f"GQ({s},{t}) axioms")
    n_blocks = (t + 1) * (s * t + 1)
    n_points = (s + 1) * (s * t + 1)
    if z.shape != (n_blocks, n_points):
        rep.add("dimensions", False, witness=tuple(z.shape),
                info=f"expected {n_blocks}x{n_points}")
        return rep
    rep.add("dimensions", True)
    if not _add_sums(rep, z, s + 1, t + 1):
        return rep
    to_points, to_blocks = z.hops
    # the first offence of Z^T Z lies in a point j f, and that of Z Z^T or
    # of the triple product in a spread row or a row v + i f
    points = np.arange(0, n_points, z.f)
    blocks = np.flatnonzero(np.maximum(np.arange(n_blocks) - n_points // z.f, 0) % z.f == 0)
    pair = _first_offence(points, (to_blocks, to_points), n_points, _shared)
    # for a 0/1 matrix two blocks share two points exactly when two
    # points share two blocks, so only an offence needs the block walks
    block_pair = pair and _first_offence(blocks, (to_points, to_blocks), n_blocks, _shared)
    for name, hit in (("block-pair-intersections", block_pair), ("point-pair-collinearity", pair)):
        rep.add(name, not hit, witness=hit and hit[:2],
                info=f"got {hit[2]}, want at most 1" if hit else "")

    def off_target(at, counts):
        # row i of Z Z^T Z is s+t+1 on the points of block i, 1 elsewhere; the
        # extra last column takes the sink, which pads blocks only when the sums fail
        want = np.ones((len(at), n_points + 1), dtype=counts.dtype)
        want[np.arange(len(at))[:, None], to_points.take(at, axis=0)] = s + t + 1
        return counts != want[:, :n_points]

    triple = _first_offence(blocks, (to_points, to_blocks, to_points), n_points, off_target)
    info = ""
    if triple:
        i, c, got = triple
        info = f"got {got}, want {s + t + 1 if c in to_points[i] else 1}"
    rep.add("triple-product", not triple, witness=triple and triple[:2], info=info)
    return rep


def verify_drackn(a: np.ndarray, group: AbelianGroup, c: int) -> VerificationReport:
    """A = Phi* Phi - r I as an (n, f, n) array of any integer type,
    A[i, h, j] the coefficient of z^h in entry (i, j): self-adjoint,
    hollow, monomial off the diagonal, with A^2 = delta A + (n-1) I +
    c G (J - I) exactly, delta = n - fc - 2; then each nontrivial character
    evaluation must be an ETF signature matrix.  Both read signature_term of
    one product per conjugate pair of characters, the trivial one included,
    that character_reports forms: S = A at gamma, S^2, and
    E = S^2 - delta S - (n-1) I, less c f (J - I) at the trivial character.
    E is the integer error D = A^2 - (the right side) at gamma, so by
    Parseval the energy sum_gamma |E[i, j]|^2 (a pair's first counted
    twice) is f sum_h D[i, h, j]^2, 0 or at least f: a cell offends iff its
    float energy exceeds f/2.  The info names the first group element whose
    exact count at the row-major first offence misses its target.
    The guard (Higham, ch. 3, first order in u = 2^-53): with B = sum_h |A|
    in int64 (abs of an int8 -128 wraps), b its largest cell and R its
    largest row sum, |E| <= E* = R b + |delta| b + n + |c| f.  A character
    value errs by (2 pi (t^2 + 2) + 2) u <= (8 pi f + 6) u, as its phase
    sums t reduced terms below 1 and t^2 + 2 <= 4f, and a length-m complex
    dot product by (m + 2) u sum |x||y|, so
    |E^ - E| <= (16 pi f + 2f + n + 21) u E*, under 0.85 eps for
    eps = 64 (n + f) u E*.  While (2 E* + eps) eps < 1/2
    each |E^|^2 is within 0.43 of |E|^2, and the energy decides every cell
    exactly; past that, `quadratic` fails naming the guard."""
    a = np.asarray(a)
    n, f = a.shape[0] if a.ndim else 0, group.order
    if a.shape != (n, f, n):
        raise ValueError(f"expected an (n, {f}, n) array, got shape {a.shape}")
    return character_reports(a, 0, group, c=c)[0]


def _drackn_report(a, group: AbelianGroup, c: int, energy, residuals: dict, firsts: list,
                   proven: bool = False) -> VerificationReport:
    """verify_drackn's report on a from the energy and the signature
    residuals, by firsts of conjugate pairs, that character_reports summed.
    If proven, a passed bibd and algebraic, so the structural lines and the
    quadratic hold exactly (see the module docstring) and nothing is
    scanned, and a signature line with no residual summed reads 0.0."""
    n, f = len(a), group.order
    rep = VerificationReport(subject=f"({n},{f},{c})-DRACKN")
    delta = n - f * c - 2
    if proven:
        for name in ("self-adjoint", "zero-diagonal", "monomial-off-diagonal"):
            rep.add(name, True)
        rep.add("quadratic", True, info=f"delta={delta}")
    else:
        adjoint_bad = monomial_bad = None
        b_max = b_rows = 0
        for r0, r1 in row_spans(np.full(n, f * n), SPAN_CELLS // 16):
            span, off = a[r0:r1], np.arange(n) != np.arange(r0, r1)[:, None]
            # row i of A* is column i of A under the involution
            bad = (span != a[:, group.neg_index, r0:r1].transpose(2, 1, 0)).any(axis=1)
            if adjoint_bad is None and (hit := _first_bad(bad)):
                adjoint_bad = (r0 + hit[0], hit[1])
            monomial = (np.sum(span == 1, axis=1) == 1) & (np.sum(span != 0, axis=1) == 1) & off
            if monomial_bad is None and (hit := _first_bad(~monomial & off)):
                monomial_bad = (r0 + hit[0], hit[1])
            b = np.abs(span, dtype=np.int64).sum(axis=1)
            b_max, b_rows = max(b_max, int(b.max())), max(b_rows, int(b.sum(axis=1).max()))
        rep.add("self-adjoint", adjoint_bad is None, witness=adjoint_bad)
        diag = a[np.arange(n), :, np.arange(n)]
        rep.add("zero-diagonal", bool(np.all(diag == 0)), witness=_first_bad(diag.any(axis=1)))
        rep.add("monomial-off-diagonal", monomial_bad is None, witness=monomial_bad)
        e_max = (b_rows + abs(delta)) * b_max + n + abs(c) * f
        eps = 64 * (n + f) * 2.0**-53 * e_max
        diff, info = _first_bad(energy > f / 2), f"delta={delta}"
        if (2 * e_max + eps) * eps >= 0.5:
            diff, info = (), f"{info}, past the float guard: E*={e_max}, eps={eps:.3g}"
        elif diff:
            # the exact count in cell (i, j) of A^2 from n f^2 integer products
            i, j = diff
            counts = np.zeros(f, dtype=np.int64)
            np.add.at(counts, group.add_index, a[i].astype(np.int64) @ a[:, :, j].astype(np.int64))
            want = delta * a[i, :, j].astype(np.int64) + c * (i != j)
            want[0] += (n - 1) * (i == j)
            h = int(np.flatnonzero(counts != want)[0])
            info += f", element {group.elements[h]} got {counts[h]}, want {want[h]}"
        rep.add("quadratic", diff is None, witness=diff, info=info)
    chars = characters_of(group)
    dim = n / 2 * (1 - delta / math.sqrt(delta * delta + 4 * (n - 1)))
    # A at the conjugate of a character is the conjugate matrix, with the
    # same residual, so the pair's second line repeats its first
    for gamma, first in zip(chars[1:], firsts[1:]):
        residual = residuals.get(first, 0.0)
        rep.add(f"signature@{gamma.exponents}", residual <= NUMERIC_TOL,
                residual=residual, info=f"d={dim:.6g}")
    return rep


def signature_term(s, p, gamma: Character, c: int, energy) -> float:
    """verify_drackn's reading of S = A at gamma and p = S S: adds |E|^2 to
    energy, twice unless gamma is real, and returns the largest
    deviation of S from a signature matrix: S* = S, hollow, unimodular, E = 0."""
    n, f, off = len(s), gamma.group.order, ~np.eye(len(s), dtype=bool)
    deviation = [np.max(np.abs(s.diagonal())), np.max(np.abs(np.abs(s) - 1)[off])]
    e = np.conjugate(s)  # (S* - S)^T, then E in the same buffer: with S and p, three v x v arrays
    e -= s.T
    deviation.append(np.max(np.abs(e)))
    np.subtract(p, np.multiply(s, n - f * c - 2, out=e), out=e)
    e.flat[::n + 1] -= n - 1
    residual = float(max(*deviation, np.max(np.abs(e))))
    if gamma.is_trivial:  # G (J - I) is f (J - I) at the trivial character, 0 at any other
        e -= c * f * off
    e = np.abs(e)  # and the complex E is freed
    e *= (1 + (not gamma.is_real())) * e
    energy += e
    return residual


def verify_srg_collinearity(z, s: int, t: int) -> VerificationReport:
    """Collinearity graph of a GQ(s, t): strongly regular with parameters
    ((s+1)(st+1), s(t+1), s-1, t+1).  z is a dense array or a Design, as
    for verify_gq_axioms, whose report on z (with no spread line) this
    reads, counted once per z and (s, t); if it fails, its lines are
    this report's.  If it passes, so does every SRG line, by exact integer
    algebra on what it checked (0/1 entries, row sums s+1, column sums
    t+1, P = Z^T Z at most 1 off its diagonal, Z Z^T Z = (s+t) Z + J):
    - diag P is the column sums, t+1, and P is 0 or 1 off it, so the
      adjacency A = P - (t+1) I is simple;
    - row a of P sums the sizes of the t+1 blocks through a, (t+1)(s+1),
      so A is regular of degree s(t+1);
    - P^2 = Z^T (Z Z^T Z) = Z^T ((s+t) Z + J) = (s+t) P + (t+1) J, which
      is A^2 = (lam - mu) A + (deg - mu) I + mu J.
    No step reads a lift's structure, so this holds for any incidence."""
    axioms = _gq_axioms(_cells(z), s, t)
    if not axioms.passed:
        rep = VerificationReport(f"SRG of GQ({s},{t}) (GQ axioms failed)")
        rep.extend(axioms)
        return rep
    rep = VerificationReport(f"SRG({(s + 1) * (s * t + 1)},{s * (t + 1)},{s - 1},{t + 1})")
    for name in ("gq-axioms", "adjacency-simple", "regular", "srg-quadratic"):
        rep.add(name, True)
    return rep


def verify(subject, checks=None, character: str = "all-nontrivial"
           ) -> tuple[list[str], list[VerificationReport]]:
    """The check plan: (SKIP lines, reports) for each of checks (default
    CHECK_NAMES) on subject, a PolyphaseMatrix or a 0/1 incidence array, in
    CHECK_NAMES order.  A check that does not apply gets "SKIP name
    (reason)", or a FAIL `applicable` report if checks names it; an
    incidence gets the BIBD report and a SKIP line for every other check.
    etf runs at the characters that character selects, read only then, and
    each of its reports names its character."""
    wanted = list(CHECK_NAMES if checks is None else checks)
    for name in wanted:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; pick from {','.join(CHECK_NAMES)}")
    if isinstance(subject, np.ndarray):
        k = int(subject[0].sum()) if subject.shape[0] else 0
        return ([f"SKIP {n} (incidence input carries no phases)" for n in wanted if n != "bibd"],
                [verify_bibd(subject, subject.shape[1], k)])
    skips, reports = [], []

    def skip(name, reason):
        if checks is None:
            skips.append(f"SKIP {name} ({reason})")
        else:
            reports.append(rep := VerificationReport(subject=name.upper()))
            rep.add("applicable", False, info=reason)

    d = Design(subject)
    if "bibd" in wanted:
        reports.append(d.bibd)
    if "combinatorial" in wanted:
        reports.append(verify_polyphase_combinatorial(d))
    if refusal := d.m.gram_refusal():  # over the dense cap, the Gram's readers do not apply
        for name in [n for n in ("algebraic", "etf", "drackn") if n in wanted]:
            skip(name, refusal)
        wanted = [n for n in wanted if n not in ("algebraic", "etf", "drackn")]
    gammas = select_characters(d.m.group, character) if "etf" in wanted else []
    if "algebraic" in wanted:
        reports.append(d.algebraic)
    bibd_fail = next((c.name for c in d.bibd.checks if not c.passed), None)
    drackn = "drackn" in wanted and not bibd_fail and d.drackn is not None
    if gammas or drackn:
        checked = character_reports(*d.gram, d.m.group, gammas, d.drackn[1].c if drackn else None,
                                    phi=d.m, proven=d.algebraic.passed)
        reports += [VerificationReport(f"{rep.subject} at character {gamma.exponents}",
                                       list(rep.checks), rep.numerics)
                    for gamma, rep in zip(gammas, checked)] + checked[len(gammas):]
    if "drackn" in wanted and not drackn:
        skip("drackn", f"needs a BIBD: {bibd_fail} fails" if bibd_fail
             else "c = k(r-1)/f is not an integer")
    if {"gq", "srg"} & set(wanted):
        s, t = d.k - 1, d.r
        if d.k != d.f:
            reason = f"needs k = f, got k={d.k}, f={d.f}"
        elif t is None:
            reason = f"r = (v-1)/(k-1) is not an integer, got v={d.v}, k={d.k}"
        else:
            try:  # over the lift cap, gq and srg do not apply
                lift, reason = d.gq, None
            except ValueError as exc:
                reason = str(exc)
        for name in [n for n in ("gq", "srg") if n in wanted]:
            if reason:
                skip(name, reason)
            else:  # srg reads the axioms that gq counted, or counts them itself
                reports.append(verify_gq_axioms(lift, s, t, check_spread=True) if name == "gq"
                               else verify_srg_collinearity(lift, s, t))
    return skips, reports


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
