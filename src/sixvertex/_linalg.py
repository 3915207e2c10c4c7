"""Verified multiprecision Hankel computations from a moment sequence, each
run twice: once at the working precision and once at the context's guard
precision.

Two routes are kept deliberately distinct so they can cross-check each other:

* ``hankel_pivots`` uses Chebyshev's algorithm on the moments themselves and
  returns the norms h_k = D_{k+1}/D_k of the monic orthogonal polynomials,
  the leading-principal-minor ratios of the Hankel matrix.  For the moments
  of a positive measure every h_k is positive.  Every Z_n and tau_n the
  package computes is a prefix product of these norms;
* ``hankel_determinant`` uses partially pivoted LU on the Hankel matrix, good
  for any nonsingular matrix and insensitive to pivot ordering.  It serves
  only ``hankel.hankel_det``, the reference the norms are checked against.
"""

from __future__ import annotations

from typing import List, Sequence

from mpmath import mp

from .errors import PrecisionFailureError
from .model import PrecisionContext


def _hankel_matrix(moments: Sequence, n: int) -> List[List]:
    """n x n matrix with entry (i, k) = moments[i + k], rounded to ambient
    precision."""
    return [[+moments[i + k] for k in range(n)] for i in range(n)]


def _lu_det(a: List[List]):
    """Determinant by LU with partial pivoting, at ambient precision."""
    n = len(a)
    det = mp.mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mp.mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            row_r, row_c = a[r], a[col]
            for k in range(col + 1, n):
                row_r[k] -= f * row_c[k]
    return det


def _forward_pivots(moments: List) -> List:
    """Norms h_0..h_{n-1} from mu_0..mu_{2n-2} by Chebyshev's algorithm
    (W. Gautschi, SIAM J. Sci. Stat. Comput. 3 (1982) 289), in O(n^2)
    operations of whatever arithmetic the moments carry.

    With sigma_{0,l} = mu_l and sigma_{-1,l} = 0, the mixed moments
    sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
    - beta_{k-1} sigma_{k-2,l} give h_k = sigma_{k,k} and the recurrence
    coefficients alpha_k = sigma_{k,k+1}/h_k - sigma_{k-1,k}/h_{k-1},
    beta_k = h_k/h_{k-1}.

    Raises PrecisionFailureError on a non-positive h_k: the moments fed in
    here are those of positive measures, whose norms are all positive, so a
    sign flip can only be numerical.
    """
    m = len(moments)
    prev, row = [0] * m, list(moments)  # sigma_{k-1,l}, sigma_{k,l}
    alpha = beta = ratio = 0
    norms = []
    for k in range((m + 1) // 2):
        if k:
            prev, row = row, [0] * k + [
                row[l + 1] - alpha * row[l] - beta * prev[l] for l in range(k, m - k)
            ]
        h = row[k]
        if not h > 0:
            raise PrecisionFailureError(f"non-positive norm h_{k}; raise bits")
        if k + 1 < m - k:  # sigma_{k,k+1} is known, so alpha_k is needed
            last, ratio = ratio, row[k + 1] / h
            alpha = ratio - last
        if norms:
            beta = h / norms[-1]
        norms.append(h)
    return norms


def _check_agreement(base, guard, ctx: PrecisionContext, what: str) -> int:
    """Bits on which the base and guard values agree, floor(-log2 of
    |base - guard| / |guard|) and at most ctx.bits.  Raises
    PrecisionFailureError when they differ by more than 2^(-claim_bits)."""
    tol = ctx.verify_tolerance()
    with mp.workprec(ctx.guard_bits):
        scale = abs(guard)
        diff = abs(base - guard)
        if scale == 0 or diff > tol * scale:
            raise PrecisionFailureError(
                f"{what} failed verification at {ctx.bits} bits "
                f"(guard rerun at {ctx.guard_bits} bits disagrees); raise bits"
            )
        if diff == 0:
            return ctx.bits
        mant, exp = mp.frexp(diff / scale)  # 1/2 <= mant < 1
    return min(ctx.bits, -exp + (mant == 0.5))


def hankel_determinant(moments: Sequence, n: int, ctx: PrecisionContext):
    """Verified determinant of the n x n Hankel matrix of ``moments``.

    Computed once at ctx.bits (entries rounded to ctx.bits) and once at
    ctx.guard_bits; relative agreement within 2^(-claim_bits) is required.
    Returns the guard-precision value and the bits on which the two agree.
    """
    if len(moments) < 2 * n - 1:
        raise ValueError(f"need moments up to order {2 * n - 2}, got {len(moments) - 1}")
    with mp.workprec(ctx.bits):
        base = _lu_det(_hankel_matrix(moments, n))
    with mp.workprec(ctx.guard_bits):
        guard = _lu_det(_hankel_matrix(moments, n))
    return guard, _check_agreement(base, guard, ctx, f"Hankel determinant (n={n})")


def hankel_pivots(moments: Sequence, n: int, ctx: PrecisionContext):
    """Verified norms h_0..h_{n-1} (leading-principal-minor ratios of the
    n x n Hankel matrix) of ``moments``, from mu_0..mu_{2n-2} rounded to
    ctx.bits and then to ctx.guard_bits.  Each h_k must be positive and agree
    between the base and guard runs to within 2^(-claim_bits) relative.  Returns
    the guard-precision norms and, for each, the bits on which the runs
    agree."""
    if len(moments) < 2 * n - 1:
        raise ValueError(f"need moments up to order {2 * n - 2}, got {len(moments) - 1}")
    with mp.workprec(ctx.bits):
        base = _forward_pivots([+mu for mu in moments[: 2 * n - 1]])
    with mp.workprec(ctx.guard_bits):
        guard = _forward_pivots([+mu for mu in moments[: 2 * n - 1]])
    agreement = [
        _check_agreement(b, g, ctx, f"Hankel pivot h_{k}")
        for k, (b, g) in enumerate(zip(base, guard))
    ]
    return guard, agreement
