"""Verified multiprecision Hankel computations from a moment sequence.  One
runner, ``_verified_run``, checks n and the moments' order and runs a kernel
on mu_0..mu_{2n-2} at the working and then at the guard precision; each
kernel rounds its own inputs.  Its two routes cross-check each other:

* ``hankel_pivots`` uses Chebyshev's algorithm on the moments themselves and
  returns the norms h_k = D_{k+1}/D_k of the monic orthogonal polynomials,
  the leading-principal-minor ratios of the Hankel matrix.  For the moments
  of a positive measure every h_k is positive.  Its one caller is
  ``hankel.norms_from_moments``.  Its O(n^2) mixed moments run on integer
  mantissas, each formed exactly and rounded once;
* ``hankel_determinant`` uses partially pivoted LU in mpf arithmetic on the
  Hankel matrix, good for any nonsingular matrix and insensitive to pivot
  ordering.  Its one caller is ``hankel.hankel_det``, the reference the norms
  are checked against.
"""

from __future__ import annotations

from typing import List, Sequence

from mpmath import mp

from .errors import ParameterDomainError, PrecisionFailureError
from .model import PrecisionContext


def _hankel_matrix(moments: Sequence) -> List[List]:
    """n x n matrix with entry (i, k) = mu_{i+k} of mu_0..mu_{2n-2}, rounded
    to ambient precision."""
    n = (len(moments) + 1) // 2
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


# Exponent that _exact gives an exact zero: above that of every finite value
# the kernel meets, so a zero term never sets the alignment of a sum.
_ZERO_EXP = 1 << 40


def _exact(x):
    """(man, exp), Python ints with man 2^exp equal to the mpf x exactly; an
    exact zero is (0, _ZERO_EXP)."""
    sign, man, exp, bc = x._mpf_
    if not man:
        if bc:  # mpmath's inf and nan have a zero mantissa and a nonzero bc
            raise ValueError(f"non-finite value {x}")
        return 0, _ZERO_EXP
    return (-man if sign else man), exp


def _split(x):
    """``_exact`` of x rounded to ambient precision."""
    return _exact(mp.mpf(x))


def _round(man: int, exp: int, prec: int):
    """man 2^exp rounded to nearest with prec bits, ties toward +inf, as
    (man, exp); an exact zero is (0, _ZERO_EXP)."""
    excess = man.bit_length() - prec
    if excess > 0:
        return ((man >> (excess - 1)) + 1) >> 1, exp + excess
    return (man, exp) if man else (0, _ZERO_EXP)


def _div(man: int, exp: int, den: int, prec: int):
    """man 2^exp / den for an int den > 0, rounded as ``_round`` rounds.  A
    floored quotient of more than prec bits rounds as the exact one does."""
    shift = max(0, prec + 1 + den.bit_length() - man.bit_length())
    return _round((man << shift) // den, exp - shift, prec)


def _forward_pivots(moments: List) -> List:
    """Norms h_0..h_{n-1} from mu_0..mu_{2n-2} by Chebyshev's algorithm
    (W. Gautschi, SIAM J. Sci. Stat. Comput. 3 (1982) 289), in O(n^2)
    operations at ambient precision P = mp.prec.

    With sigma_{0,l} = mu_l and sigma_{-1,l} = 0, the mixed moments
    sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
    - beta_{k-1} sigma_{k-2,l} give h_k = sigma_{k,k} and the recurrence
    coefficients alpha_k = sigma_{k,k+1}/h_k - sigma_{k-1,k}/h_{k-1},
    beta_k = h_k/h_{k-1}.

    Each moment is rounded to P bits and split once into integers
    (man, exp), and everything after runs on such pairs.  Each sigma_{k,l}
    is formed exactly from its three integer terms, aligned to their
    smallest exponent, and rounded once to P bits by ``_round``, so an entry
    costs one rounding where mpf arithmetic takes four.  beta_k and each
    ratio sigma_{k,k+1}/h_k are one rounded division (``_div``), and alpha_k
    is the exact difference of two ratios, rounded once.  Exact zeros stay
    exact: when every odd moment is 0 (a symmetric measure) so is every
    alpha_k and every sigma_{k,l} of odd k + l, and those are not formed.
    The norms are returned as mpf.

    Raises PrecisionFailureError on a non-positive h_k: the moments fed in
    here are those of positive measures, whose norms are all positive, so a
    sign flip can only be numerical.
    """
    prec = mp.prec
    m = len(moments)
    # sigma_{k-1,l} and sigma_{k,l} as (man, exp); row k starts at l = k
    prev, row = [(0, _ZERO_EXP)] * m, [_split(mu) for mu in moments]
    step = 1 if any(man for man, _ in row[1::2]) else 2
    am, ae = bm, be = lm, le = 0, _ZERO_EXP  # alpha_{k-1}, beta_{k-1}, last ratio
    norms = []
    for k in range((m + 1) // 2):
        if k:
            out = []
            for (m1, e1), (m2, e2), (m3, e3) in zip(
                row[k + 1 : m - k + 1 : step], row[k : m - k : step], prev[k : m - k : step]
            ):
                e2 += ae
                e3 += be
                e = min(e1, e2, e3)
                s = (m1 << (e1 - e)) - ((am * m2) << (e2 - e)) - ((bm * m3) << (e3 - e))
                out.append(_round(s, e, prec))
            new = [(0, _ZERO_EXP)] * (m - k)
            new[k::step] = out
            prev, row = row, new
        hm, he = row[k]
        if hm <= 0:
            raise PrecisionFailureError(f"non-positive norm h_{k} at {prec} bits; raise bits")
        if k + 1 < m - k:  # sigma_{k,k+1} is known, so alpha_k is needed
            rm, re = _div(row[k + 1][0], row[k + 1][1] - he, hm, prec)
            e = min(re, le)
            am, ae = _round((rm << (re - e)) - (lm << (le - e)), e, prec)
            lm, le = rm, re
        if norms:
            bm, be = _div(hm, he - pe, pm, prec)
        pm, pe = hm, he
        norms.append(mp.mpf((hm, he)))
    return norms


def _check_agreement(base, guard, ctx: PrecisionContext, what: str) -> int:
    """Bits on which the mpf base and guard values agree, floor(-log2 of
    |base - guard| / |guard|) and at most ctx.bits, computed exactly on their
    integer mantissas.  Raises PrecisionFailureError when they differ by more
    than 2^(-claim_bits)."""
    (bm, be), (gm, ge) = _exact(base), _exact(guard)
    d = s = 0
    # a zero on either side, or leading bits two or more binades apart, puts
    # |base - guard| above |guard| / 2, past every claim: no need to align
    if bm and gm and abs(bm.bit_length() + be - gm.bit_length() - ge) < 2:
        e = min(be, ge)
        g = gm << (ge - e)
        d, s = abs((bm << (be - e)) - g), abs(g)
    if not s or d << ctx.claim_bits > s:
        raise PrecisionFailureError(
            f"{what} failed verification at {ctx.bits} bits "
            f"(guard rerun at {ctx.guard_bits} bits disagrees); raise bits"
        )
    if not d:
        return ctx.bits
    k = s.bit_length() - d.bit_length()  # 2^(k-1) < s/d < 2^(k+1)
    return min(ctx.bits, k if d << k <= s else k - 1)


def _verified_run(kernel, moments: Sequence, n: int, ctx: PrecisionContext):
    """(base, guard): kernel(mu_0..mu_{2n-2}) run at ctx.bits and at
    ctx.guard_bits.  The kernel rounds its inputs to the ambient precision."""
    if n < 1:
        raise ParameterDomainError(f"n >= 1 required, got {n}")
    if len(moments) < 2 * n - 1:
        raise ParameterDomainError(
            f"need moments up to order {2 * n - 2}, got {len(moments) - 1}"
        )
    with mp.workprec(ctx.bits):
        base = kernel(moments[: 2 * n - 1])
    with mp.workprec(ctx.guard_bits):
        guard = kernel(moments[: 2 * n - 1])
    return base, guard


def hankel_determinant(moments: Sequence, n: int, ctx: PrecisionContext):
    """Verified determinant tau_n of the n x n Hankel matrix of ``moments``
    by pivoted LU: the base and guard runs must agree within 2^(-claim_bits)
    relative, and then tau_n > 0, as for any positive measure.  Returns the
    guard-precision value and the bits on which the two runs agree."""
    base, tau = _verified_run(lambda mus: _lu_det(_hankel_matrix(mus)), moments, n, ctx)
    agreement = _check_agreement(base, tau, ctx, f"Hankel determinant (n={n})")
    if not tau > 0:
        raise PrecisionFailureError(
            f"tau_{n} <= 0 for a positive-measure moment sequence; raise bits"
        )
    return tau, agreement


def hankel_pivots(moments: Sequence, n: int, ctx: PrecisionContext):
    """Verified norms h_0..h_{n-1} (leading-principal-minor ratios of the
    n x n Hankel matrix) of ``moments`` by Chebyshev's algorithm.  Each h_k
    must be positive and agree between the base and guard runs within
    2^(-claim_bits) relative.  Returns the guard-precision norms and, for
    each, the bits on which the runs agree."""
    base, guard = _verified_run(_forward_pivots, moments, n, ctx)
    agreement = [
        _check_agreement(b, g, ctx, f"Hankel pivot h_{k}")
        for k, (b, g) in enumerate(zip(base, guard))
    ]
    return guard, agreement
