"""Exact partition functions Z_n on the n x n domain-wall lattice, the
reference values for the Hankel route: a depth-first walk over every
configuration (DFS) and a 2^n-state transfer-matrix dynamic program.
Rational weights give exact rational results.

The DP scans the vertices row by row and keeps two frontiers, one per
carried horizontal arrow, each keyed by the int mask of the vertical edges.
At a vertex the ice rule comes down to two moves: pass both arrows on
(weight a where the carry and the bottom arrow agree, b where they differ),
or, where they differ, turn both (weight c), which flips the mask bit and
moves the state to the other frontier.  It scans only the lower ceil(n/2)
rows.  The 180-degree rotation (column j to n-1-j, every arrow reversed)
maps the lattice, its domain wall and its weights to themselves, so the top
floor(n/2) rows over a mask weigh what the bottom floor(n/2) rows weigh
over rho(mask), the mask reversed and complemented: Z_n joins the frontier
after ceil(n/2) rows with the one after floor(n/2) rows through rho.  The
DFS walks whole rows: the rows that fit above each tuple of bottom edges are
built once per call.

Every DWBC configuration has exactly n^2 vertices, so Z_n is homogeneous of
degree n^2 in (a, b, c): Z_n(a, b, c) = Z_n(Da, Db, Dc) / D^(n^2).  In exact
mode the weights are scaled by D, the lcm of their denominators, to the
integers Da, Db, Dc; every sum and product then runs over Python ints, and
the result is one Fraction division by D^(n^2).

Edge encoding: horizontal arrows are 0=Left / 1=Right, vertical arrows are
0=Down / 1=Up.  A vertex sees (left, right, bottom, top) incident edges; the
ice rule demands exactly two arrows in and two out.  Type assignment:

    1: in from left+bottom   2: in from right+top    (weight a)
    3: in from left+top      4: in from right+bottom (weight b)
    5: in from top+bottom    6: in from left+right   (weight c)

Domain wall boundaries: top and bottom vertical edges point into the square
(Down on top, Up on bottom), left and right horizontal edges point out
(Left on the left, Right on the right).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import ParameterDomainError
from .model import DEFAULT_CONTEXT, PrecisionContext, Weights

LEFT, RIGHT = 0, 1
DOWN, UP = 0, 1

_VERTEX_TYPE = {
    (RIGHT, RIGHT, UP, UP): 1,
    (LEFT, LEFT, DOWN, DOWN): 2,
    (RIGHT, RIGHT, DOWN, DOWN): 3,
    (LEFT, LEFT, UP, UP): 4,
    (LEFT, RIGHT, UP, DOWN): 5,
    (RIGHT, LEFT, DOWN, UP): 6,
}

# weight class per type: 0 -> a, 1 -> b, 2 -> c
_WEIGHT_CLASS = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}

MAX_ENUM_N = 7
MAX_TRANSFER_N = 14


def _vertex_moves(last_column: bool, top_row: bool) -> dict:
    """(left, bottom) -> [(right, top, weight class), ...] allowed by the ice
    rule and, on the last column or the top row, by the domain wall; ordered
    by right, then top."""
    moves = {}
    for (left, right, bottom, top), vt in sorted(_VERTEX_TYPE.items()):
        if not (last_column and right != RIGHT or top_row and top != DOWN):
            moves.setdefault((left, bottom), []).append((right, top, _WEIGHT_CLASS[vt]))
    return moves


_MOVES = {(col, row): _vertex_moves(col, row) for col in (False, True) for row in (False, True)}


def _walk(n: int):
    """Depth-first walk over all DWBC configurations, one row at a time from
    the bottom.  Yields the live (h, v, tallies) at each configuration: the
    edge lists, with rows as tuples, and the tuple of per-class tallies
    (N_a, N_b, N_c).  ``h[i][j]`` is the horizontal edge left of column j in
    row i (j = 0..n, row 0 at the bottom); ``v[i][j]`` is the vertical edge
    below row i at column j (i = 0..n).  The lists change as the walk goes on.

    The rows that fit above each tuple of bottom edges (in the top row or
    not) are built once per call by a vertex walk over _MOVES, as (h row, top
    edges, tallies).  The walk then descends n levels instead of n^2 and
    enters no dead prefix: with Left and Right on its side walls a row has
    one Up fewer above than below, so every partial configuration completes.
    Configurations come in the order of a vertex walk in row-major order."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ParameterDomainError(
            f"enumeration supports 1 <= n <= {MAX_ENUM_N} (got {n}); "
            "use the transfer matrix for larger n"
        )
    rows_of = {}

    def rows(bottom: tuple, top_row: bool) -> list:
        key = (bottom, top_row)
        if key not in rows_of:
            out = []
            hrow, top, tal = [LEFT] + [None] * n, [None] * n, [0, 0, 0]

            def fill(j: int):
                for right, t, cls in _MOVES[j == n - 1, top_row].get((hrow[j], bottom[j]), ()):
                    hrow[j + 1], top[j] = right, t
                    tal[cls] += 1
                    if j == n - 1:
                        out.append((tuple(hrow), tuple(top), tuple(tal)))
                    else:
                        fill(j + 1)
                    tal[cls] -= 1

            fill(0)
            rows_of[key] = out
        return rows_of[key]

    h = [None] * n
    v = [(UP,) * n] + [None] * n

    def rec(i: int, na: int, nb: int, nc: int):
        for hrow, top, (ra, rb, rc) in rows(v[i], i == n - 1):
            h[i], v[i + 1] = hrow, top
            if i == n - 1:
                yield h, v, (na + ra, nb + rb, nc + rc)
            else:
                yield from rec(i + 1, na + ra, nb + rb, nc + rc)

    return rec(0, 0, 0, 0)


def _prepare_weights(w: Weights, exact: Optional[bool]):
    """(a, b, c, d): the weights in the arithmetic picked by ``exact`` (None =
    rational inputs decide).  Exact: the integers Da, Db, Dc and D, the lcm of
    the three denominators; see _rescale.  Float: the mpf weights and None."""
    if exact is None:
        exact = w.is_rational
    if exact:
        if not w.is_rational:
            raise ParameterDomainError(
                "exact mode needs rational weights (int or Fraction)"
            )
        fracs = [Fraction(x) for x in (w.a, w.b, w.c)]
        d = lcm(*(x.denominator for x in fracs))
        return (*(x.numerator * (d // x.denominator) for x in fracs), d)
    return (*w.as_mpf(), None)


def _rescale(total, d: Optional[int], n: int):
    """A sum of products of n^2 weights from _prepare_weights on the scale of
    the given weights: the Fraction total / D^(n^2) in lowest terms in exact
    mode, the mpf total unchanged otherwise."""
    return total if d is None else Fraction(total, d ** (n * n))


def enumerate_dfs(
    n: int,
    w: Weights,
    exact: Optional[bool] = None,
    ctx: Optional[PrecisionContext] = None,
):
    """Z_n by explicit configuration enumeration.  Returns (Z_n, count).

    The walk counts the configurations with each tally (N_a, N_b, N_c) in
    integers; the weights are applied once per tally."""
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        a, b, c, d = _prepare_weights(w, exact)
        counts = Counter(t for _, _, t in _walk(n))
        total = sum(k * a**na * b**nb * c**nc for (na, nb, nc), k in counts.items())
        return _rescale(total, d, n), sum(counts.values())


def transfer_matrix_zn(
    n: int,
    w: Weights,
    exact: Optional[bool] = None,
    ctx: Optional[PrecisionContext] = None,
):
    """Z_n by a row-scanning dynamic program over 2^n vertical-edge states,
    run for the lower ceil(n/2) rows and joined with itself.

    Two frontiers, ``left`` and ``right`` by the horizontal edge carried into
    the next vertex, map the vertical-edge bitmask to the accumulated weight;
    bit j set means the active vertical edge in column j points Up.  At
    column j every state passes on, keeping its mask, with weight a where
    carry and bit j agree and b where they differ; where they differ it also
    turns with weight c, flipping bit j and changing frontier.  A row starts
    from ``left`` and ends keeping ``right`` only (the side walls), so F_r,
    the frontier after r rows, maps each mask of the edges above row r - 1
    to the weight of the bottom r rows beneath it.

    The 180-degree rotation maps the lattice to itself with the same
    weights: column j goes to n-1-j and every arrow reverses, which swaps
    types 1 and 2 and types 3 and 4 and fixes 5 and 6, and keeps the domain
    wall.  The top n-r rows over a mask are thus the bottom n-r rows over
    rho(mask), the mask with its n bits reversed and complemented, and with
    m = ceil(n/2)

        Z_n = sum over masks of F_m(mask) * F_{n-m}(rho(mask)).

    In exact mode the weights are the integers Da, Db, Dc, so every
    multiply-add is an int operation, and the joined weight is divided once
    by D^(n^2) into a Fraction in lowest terms.  Agrees exactly with
    enumerate_dfs in rational mode.
    """
    if not 1 <= n <= MAX_TRANSFER_N:
        raise ParameterDomainError(
            f"transfer matrix supports 1 <= n <= {MAX_TRANSFER_N} (got {n}): "
            "memory grows as 2^n"
        )
    ctx = ctx or DEFAULT_CONTEXT
    with ctx.guardprec():
        a, b, c, d = _prepare_weights(w, exact)
        full, half = (1 << n) - 1, n // 2
        left, right = {full: 1}, {}  # bottom boundary: all Up
        for row in range(n - half):
            if row == half:
                lower = left  # F_{n//2} for odd n
            for j in range(n):
                bit = 1 << j
                # pass on: a where carry and bottom agree, b where they differ
                new_left = {m: wt * b if m & bit else wt * a for m, wt in left.items()}
                new_right = {m: wt * a if m & bit else wt * b for m, wt in right.items()}
                # turn: carry Left meets Up (type 5) or Right meets Down (type 6)
                for m, wt in left.items():
                    if m & bit:
                        new_right[m ^ bit] = new_right.get(m ^ bit, 0) + wt * c
                for m, wt in right.items():
                    if not m & bit:
                        new_left[m | bit] = new_left.get(m | bit, 0) + wt * c
                left, right = new_left, new_right
            # right boundary: carry Right only; the next row starts with Left
            left, right = right, {}
        if 2 * half == n:
            lower = left  # F_{n/2} for even n: the DP is joined with itself
        # rho: reverse the n mask bits, then complement them
        total = sum(
            wt * lower[int(f"{m:0{n}b}"[::-1], 2) ^ full] for m, wt in left.items()
        )
        return _rescale(total, d, n)
