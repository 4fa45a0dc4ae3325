"""The dense numeric ETF check, the oracle the tests hold the cell route of
etfforge.verify.verify_etf_numeric against.

It evaluates nothing itself: it takes a dense b x n matrix, forms the
b n^2 Gram product, takes the rank from an SVD at the relative cutoff
RANK_REL_TOL, and squares G and the signature matrix s = (G - rI) / w
separately.  Its report has the same check names, order, witnesses and
info texts as the cell route's.
"""

from __future__ import annotations

import math

import numpy as np

from etfforge.verify import NUMERIC_TOL, RANK_REL_TOL, EtfNumerics, VerificationReport


def dense_etf_numeric(phi: np.ndarray, tol: float = NUMERIC_TOL) -> VerificationReport:
    """Equal norms, equiangularity, tightness of the Gram, Welch-bound
    equality and the signature quadratic of the dense matrix phi, in
    float64 for a real phi and complex128 otherwise."""
    phi = np.asarray(phi)
    phi = phi.astype(np.complex128 if np.iscomplexobj(phi) else np.float64, copy=False)
    if phi.ndim != 2 or phi.shape[1] == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    n = phi.shape[1]
    norms = np.sum(np.abs(phi) ** 2, axis=0)
    rep = VerificationReport(subject=f"numeric ETF ({phi.shape[0]}x{n})")
    if np.min(norms) <= tol:
        rep.add("nonzero-columns", False, witness=(int(np.argmax(norms <= tol)),))
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
