"""Brute-force oracles kept independent of the library code paths they check:
truncated series summation (moments, theta_4 and theta_1'(0)), the
ferroelectric Euler product, adaptive
quadrature, central differences, O(n^3) elimination on the Hankel moment
matrix, Chebyshev's algorithm in the arithmetic of its moments and
fraction-free over the integers, the bits on which two values agree,
closed-form exact moments of the critical lines, exact negative-order
polylogarithms, exact phi-derivatives at rational cot/coth values, the ASM
count, a vertex classifier for domain-wall lattice configurations, and the
transfer-matrix DP over all n rows.

Parameters are converted to mpf inside the stated working precision, so pass
exact values (ints, Fractions, decimal strings)."""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from mpmath import mp

from sixvertex import to_mpf
from sixvertex.lattice import DOWN, LEFT, RIGHT, UP


def _weighted_power_sums(kmax, nodes, weights):
    """[sum_l l^k w_l for k = 0..kmax] over the given nodes and weights."""
    sums, powers = [], list(weights)
    for _ in range(kmax + 1):
        sums.append(mp.fsum(powers))
        powers = [p * l for p, l in zip(powers, nodes)]
    return sums


def series_ferro_moments(kmax, t, gamma, bits=512, lmax=400):
    """sum_{l=1}^{lmax} l^k 2 e^{-2tl} sinh(2 gamma l) for k = 0..kmax by
    direct summation."""
    with mp.workprec(bits):
        t, gamma = to_mpf(t), to_mpf(gamma)
        nodes = range(1, lmax + 1)
        weights = [2 * mp.exp(-2 * t * l) * mp.sinh(2 * gamma * l) for l in nodes]
        return _weighted_power_sums(kmax, nodes, weights)


def series_af_moments(kmax, t, gamma, bits=512, lmax=400):
    """sum_{|l| <= lmax} l^k e^{2tl - 2 gamma |l|} for k = 0..kmax by direct
    summation."""
    with mp.workprec(bits):
        t, gamma = to_mpf(t), to_mpf(gamma)
        nodes = range(-lmax, lmax + 1)
        weights = [mp.exp(2 * t * l - 2 * gamma * abs(l)) for l in nodes]
        return _weighted_power_sums(kmax, nodes, weights)


@lru_cache(maxsize=None)
def _crit_fd_weight(x, r, prec):
    """e^{-x} - e^{-rx} at prec bits: the tanh-sinh nodes do not depend on
    k, so the quadratures of every moment at one precision share it."""
    with mp.workprec(prec):
        return mp.exp(-x) - mp.exp(-r * x)


@lru_cache(maxsize=None)
def _crit_afd_weight(x, r, prec):
    """e^{-x} for x >= 0 and e^{rx} below, at prec bits, shared as above."""
    with mp.workprec(prec):
        return mp.exp(-x) if x >= 0 else mp.exp(r * x)


def quad_crit_fd_moment(k, alpha, bits=512):
    """int_0^inf x^k (e^{-x} - e^{-rx}) dx by adaptive quadrature."""
    with mp.workprec(bits):
        a = to_mpf(alpha)
        r = (a + 1) / (a - 1)
        return mp.quad(lambda x: x**k * _crit_fd_weight(x, r, mp.prec), [0, mp.inf])


def quad_crit_afd_moment(k, alpha, bits=512):
    """int_R x^k w(x) dx for the two-sided exponential weight, split at the
    kink at 0."""
    with mp.workprec(bits):
        a = to_mpf(alpha)
        r = (1 + a) / (1 - a)
        return mp.quad(lambda x: x**k * _crit_afd_weight(x, r, mp.prec), [-mp.inf, 0, mp.inf])


def central_diff(f, x, h, bits=1024):
    """(f(x+h) - f(x-h)) / (2h) at the stated precision."""
    with mp.workprec(bits):
        x, h = to_mpf(x), to_mpf(h)
        return (f(x + h) - f(x - h)) / (2 * h)


def series_theta4(z, q, bits=512):
    """1 + 2 sum_{k>=1} (-1)^k q^(k^2) cos(2kz), keeping every term whose
    bound 2 q^(k^2) is above 2^-bits.  cos(2kz) runs by the recurrence
    cos(2kz) = 2 cos(2z) cos(2(k-1)z) - cos(2(k-2)z)."""
    with mp.workprec(bits):
        z, q = to_mpf(z), to_mpf(q)
        c = mp.cos(2 * z)
        s, prev, cur, sign = mp.mpf(1), mp.mpf(1), c, -1  # cur = cos(2kz) at k = 1
        for qk in _nome_squares(q, bits):
            s += 2 * sign * qk * cur
            prev, cur, sign = cur, 2 * c * cur - prev, -sign
        return s


@lru_cache(maxsize=None)
def _nome_squares(q, bits):
    """q^(k^2) for k = 1, 2, ... while 2 q^(k^2) > 2^-bits, as running
    products at bits; shared by every z of one (q, bits)."""
    with mp.workprec(bits):
        out, qk, step, eps = [], q, q**3, mp.mpf(2) ** -bits  # q^(k^2), q^(2k+1)
        while 2 * qk > eps:
            out.append(qk)
            qk, step = qk * step, step * q * q
        return tuple(out)


def series_theta1_prime0(q, bits=512):
    """2 sum_{k>=0} (-1)^k (2k+1) q^((k+1/2)^2), keeping every term above
    2^-bits.  q^((k+1/2)^2) is a running product from q^(1/4), by q^(2k+2)."""
    with mp.workprec(bits):
        q = to_mpf(q)
        s, k, eps = mp.mpf(0), 0, mp.mpf(2) ** -bits
        qk, step = mp.sqrt(mp.sqrt(q)), q * q  # q^((k+1/2)^2), q^(2k+2) at k = 0
        while (term := 2 * (2 * k + 1) * qk) > eps:
            s += (-1) ** k * term
            qk, step, k = qk * step, step * q * q, k + 1
        return s


def ferro_euler_product(gamma, bits=512):
    """prod_{k>=1} (1 - e^(-4 gamma k)) as a running product at bits, with
    every factor whose e^(-4 gamma k) is above 2^-bits."""
    with mp.workprec(bits):
        x = mp.exp(-4 * to_mpf(gamma))
        c, xk, eps = mp.mpf(1), x, mp.mpf(2) ** -bits
        while xk > eps:
            c *= 1 - xk
            xk *= x
        return c


def elimination_pivots(moments, n):
    """Pivots of unpivoted Gaussian elimination on the n x n Hankel matrix of
    ``moments``: the leading-principal-minor ratios D_{k+1}/D_k.

    Runs in the arithmetic of the moments (exact for Fractions, ambient
    precision for mpf) and in O(n^3) operations.
    """
    a = [[moments[i + k] for k in range(n)] for i in range(n)]
    pivots = []
    for col in range(n):
        p = a[col][col]
        pivots.append(p)
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f == 0:
                continue
            row_r, row_c = a[r], a[col]
            for k in range(col + 1, n):
                row_r[k] -= f * row_c[k]
    return pivots


def agreement_bits(base, guard, ctx):
    """floor(-log2 |base - guard| / |guard|) of two mpf values, at most
    ctx.bits (ctx.bits when they are equal), from their exact Fraction
    values; None when guard is 0."""
    b, g = ((-1 if x < 0 else 1) * Fraction(x.man) * Fraction(2) ** x.exp for x in (base, guard))
    if g == 0:
        return None
    r = abs(b - g) / abs(g)
    if r == 0:
        return ctx.bits
    # r < 2^-j < 4r: j is floor(-log2 r) or one below it
    j = r.denominator.bit_length() - r.numerator.bit_length() - 1
    while r <= Fraction(2) ** -(j + 1):
        j += 1
    return min(ctx.bits, j)


def chebyshev_norms(moments):
    """Norms h_0..h_{n-1} from mu_0..mu_{2n-2} by Chebyshev's algorithm
    (W. Gautschi, SIAM J. Sci. Stat. Comput. 3 (1982) 289), in O(n^2)
    operations of the arithmetic the moments carry: exact for Fractions.

    With sigma_{0,l} = mu_l and sigma_{-1,l} = 0, the mixed moments
    sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
    - beta_{k-1} sigma_{k-2,l} give h_k = sigma_{k,k},
    alpha_k = sigma_{k,k+1}/h_k - sigma_{k-1,k}/h_{k-1} and
    beta_k = h_k/h_{k-1}.
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
        if k + 1 < m - k:
            last, ratio = ratio, row[k + 1] / h
            alpha = ratio - last
        if norms:
            beta = h / norms[-1]
        norms.append(h)
    return norms


def fraction_free_norms(moments):
    """Norms h_0..h_{n-1} from rational mu_0..mu_{2n-2} by fraction-free
    integer Chebyshev, equal to ``chebyshev_norms`` on the same Fractions.

    D is built up over k until every nu_k = D^(k+1) mu_k is an integer; the
    nu are the moments of D times the measure stretched by x -> D x.  With
    D_k the k x k Hankel minor of the nu and sigma_{k,l} their mixed moments
    (``chebyshev_norms``), T_{k,l} = D_k sigma_{k,l} are integers and
    D_k^2 T_{k+1,l} = D_k (T_{k,k} T_{k,l+1} - T_{k,k+1} T_{k,l})
    + T_{k,k} (T_{k-1,k} T_{k,l} - T_{k,k} T_{k-1,l}) divides exactly.  Then
    D_{k+1} = T_{k,k} and h_k = D_{k+1} / (D_k D^(2k+1)).
    """
    scale = 1
    for k, mu in enumerate(moments):
        den = Fraction(mu).denominator
        scale *= den // gcd(den, scale ** (k + 1))
    m = len(moments)
    prev = [0] * m  # T_{k-1,l}
    row = [int(Fraction(mu) * scale ** (k + 1)) for k, mu in enumerate(moments)]
    minor = 1  # D_k
    norms = []
    for k in range((m + 1) // 2):
        norms.append(Fraction(row[k], minor * scale ** (2 * k + 1)))
        if 2 * k + 2 >= m:
            break
        tkk, tkk1, tk1k = row[k], row[k + 1], prev[k]
        new = [0] * m
        for l in range(k + 1, m - k - 1):
            num = minor * (tkk * row[l + 1] - tkk1 * row[l]) + tkk * (tk1k * row[l] - tkk * prev[l])
            new[l], rem = divmod(num, minor * minor)
            assert rem == 0
        prev, row, minor = row, new, tkk
    return norms


def crit_fd_exact_moments(alpha: Fraction, kmax: int):
    """mu_k = k! (1 - r^-(k+1)), r = (alpha+1)/(alpha-1), as Fractions."""
    r = (alpha + 1) / (alpha - 1)
    return [factorial(k) * (1 - r ** -(k + 1)) for k in range(kmax + 1)]


def crit_afd_exact_moments(alpha: Fraction, kmax: int):
    """mu_k = k! (1 + (-1)^k r^-(k+1)), r = (1+alpha)/(1-alpha), as Fractions:
    int_0^inf x^k e^-x dx plus int_-inf^0 x^k e^(rx) dx."""
    r = (1 + alpha) / (1 - alpha)
    return [factorial(k) * (1 + (-1) ** k * r ** -(k + 1)) for k in range(kmax + 1)]


@lru_cache(maxsize=None)
def eulerian_row(k: int):
    """A(k, 0..k-1) by the ascent recurrence; rows are all-positive ints."""
    if k == 1:
        return (1,)
    prev = eulerian_row(k - 1)
    row = []
    for j in range(k):
        left = (j + 1) * prev[j] if j < len(prev) else 0
        right = (k - j) * prev[j - 1] if 0 < j else 0
        row.append(left + right)
    return tuple(row)


def polylog_neg(k: int, q: Fraction) -> Fraction:
    """Li_{-k}(q) = sum_{l>=1} l^k q^l for rational 0 < q < 1, exactly, in the
    Eulerian form (sum_j A(k, j) q^(j+1)) / (1 - q)^(k+1)."""
    if k == 0:
        return q / (1 - q)
    num = sum(a * q ** (j + 1) for j, a in enumerate(eulerian_row(k)))
    return num / (1 - q) ** (k + 1)


def exact_phi_derivatives(s, sigma, x_plus, x_minus, kmax):
    """phi^(k)(t) = s (r_k(x_plus) + (-1)^k r_k(x_minus)) for k = 0..kmax as
    Fractions, with x_plus = x(gamma + t) and x_minus = x(gamma - t) the
    rational values of x = cot (sigma = -1) or coth (sigma = +1).

    r_k is the integer polynomial with (d/du)^k x = r_k(x): r_0(x) = x and
    r_{k+1} = (sigma - x^2) r_k'.  r_k(p/q) is summed over the integers as
    sum_i a_i p^i q^(deg - i) and divided by q^deg once.
    """

    def at(poly, x):
        x = Fraction(x)
        num, qpow = 0, 1
        for a in reversed(poly):
            num = num * x.numerator + a * qpow
            qpow *= x.denominator
        return Fraction(num, qpow // x.denominator)

    poly = [0, 1]  # coefficients of r_k, lowest degree first
    out = []
    for k in range(kmax + 1):
        if k:
            nxt = [0] * (len(poly) + 1)
            for i in range(1, len(poly)):
                nxt[i - 1] += sigma * i * poly[i]
                nxt[i + 1] -= i * poly[i]
            poly = nxt
        plus, minus = at(poly, x_plus), at(poly, x_minus)
        out.append(s * (plus + minus if k % 2 == 0 else plus - minus))
    return out


def asm_count(n: int) -> int:
    """A_n = prod_{k<n} (3k+1)! / (n+k)!, the number of n x n ASMs."""
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    return num // den


# Vertex types by the sides the arrows point in from, as the sixvertex.lattice
# docstring lists them.
_INWARD_TYPE = {
    frozenset({"left", "bottom"}): 1,
    frozenset({"right", "top"}): 2,
    frozenset({"left", "top"}): 3,
    frozenset({"right", "bottom"}): 4,
    frozenset({"top", "bottom"}): 5,
    frozenset({"left", "right"}): 6,
}


def ice_vertex_type(left, right, bottom, top):
    """Type 1..6 of a vertex with these incident arrows, or None unless
    exactly two of them point in: an arrow points in when it is Right on the
    left edge, Left on the right edge, Up on the bottom edge or Down on the
    top edge."""
    inward = frozenset(
        side
        for side, points_in in (
            ("left", left == RIGHT),
            ("right", right == LEFT),
            ("bottom", bottom == UP),
            ("top", top == DOWN),
        )
        if points_in
    )
    return _INWARD_TYPE.get(inward)


def dwbc_vertex_types(n, h, v):
    """types[i][j], the type 1..6 of the vertex in row i (from the bottom) and
    column j of the configuration with horizontal edges h[i][j] (left of
    column j, j = 0..n) and vertical edges v[i][j] (below row i, i = 0..n).
    Raises ValueError on a wrong shape, a broken domain wall (Up on the
    bottom, Down on top, Left on the left, Right on the right) or a vertex
    that is not two-in/two-out."""
    if len(h) != n or any(len(row) != n + 1 for row in h):
        raise ValueError("h must be n rows of n + 1 edges")
    if len(v) != n + 1 or any(len(row) != n for row in v):
        raise ValueError("v must be n + 1 rows of n edges")
    for i in range(n):
        if h[i][0] != LEFT or h[i][n] != RIGHT:
            raise ValueError(f"domain wall broken on a side edge of row {i}")
    for j in range(n):
        if v[0][j] != UP or v[n][j] != DOWN:
            raise ValueError(f"domain wall broken on a boundary edge of column {j}")
    types = []
    for i in range(n):
        row = []
        for j in range(n):
            vt = ice_vertex_type(h[i][j], h[i][j + 1], v[i][j], v[i + 1][j])
            if vt is None:
                raise ValueError(f"ice rule broken at vertex ({i}, {j})")
            row.append(vt)
        types.append(tuple(row))
    return tuple(types)


def transfer_matrix_rows(n, a, b, c):
    """Z_n by the two-frontier transfer-matrix DP run over all n rows, with no
    use of the lattice's symmetry.  Rational weights (ints or Fractions) run
    over the ints Da, Db, Dc, with D the lcm of their denominators, and give
    the Fraction total / D^(n^2); mpf weights run at the ambient precision.

    ``left`` and ``right``, by the horizontal arrow carried into the next
    vertex, map the mask of vertical edges (bit j set: Up in column j) to the
    weight so far.  A state passes on with a where carry and bit j agree and
    b where they differ; where they differ it also turns with c, flipping
    bit j and changing frontier.  Rows start from ``left``, keep ``right``
    only at the right wall, and the top wall keeps the all-Down mask."""
    d = None
    if all(isinstance(x, (int, Fraction)) for x in (a, b, c)):
        fracs = [Fraction(x) for x in (a, b, c)]
        d = lcm(*(x.denominator for x in fracs))
        a, b, c = (x.numerator * (d // x.denominator) for x in fracs)
    left, right = {(1 << n) - 1: 1}, {}
    for _ in range(n):
        for j in range(n):
            bit = 1 << j
            new_left = {m: wt * b if m & bit else wt * a for m, wt in left.items()}
            new_right = {m: wt * a if m & bit else wt * b for m, wt in right.items()}
            for m, wt in left.items():
                if m & bit:
                    new_right[m ^ bit] = new_right.get(m ^ bit, 0) + wt * c
            for m, wt in right.items():
                if not m & bit:
                    new_left[m | bit] = new_left.get(m | bit, 0) + wt * c
            left, right = new_left, new_right
        left, right = right, {}
    return left[0] if d is None else Fraction(left[0], d ** (n * n))
