"""The two exact Z_n routines, the DFS walk and the transfer-matrix DP, and
their invariants.  The walk's edge lists are checked against an ice-rule
classifier in oracles.py that does not read the lattice's vertex table, and
the DP, which joins the lower half of the lattice with its own 180-degree
rotation, against the full-row DP in oracles.py."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

import sixvertex as sv
from sixvertex.lattice import _VERTEX_TYPE, _WEIGHT_CLASS, _walk, DOWN, LEFT, RIGHT, UP
from sixvertex.errors import ParameterDomainError

from conftest import rational_weights
from oracles import asm_count, dwbc_vertex_types, ice_vertex_type, transfer_matrix_rows


def walk_snapshots(n):
    """(h, v, tallies) of every configuration of _walk(n), copied out of the
    lists the walk mutates."""
    return [(tuple(h), tuple(v), tallies) for h, v, tallies in _walk(n)]


def type_counts(n, h, v):
    """Counter of the oracle's vertex types 1..6 over one configuration."""
    return Counter(vt for row in dwbc_vertex_types(n, h, v) for vt in row)


def test_vertex_type_examples():
    # a c-vertex, an a-vertex and a three-in quadruple, in the table and in
    # the oracle alike
    for q, vt in [((LEFT, RIGHT, UP, DOWN), 5), ((RIGHT, RIGHT, UP, UP), 1)]:
        assert _VERTEX_TYPE[q] == ice_vertex_type(*q) == vt
    q = (RIGHT, LEFT, UP, UP)
    assert q not in _VERTEX_TYPE and ice_vertex_type(*q) is None


def test_vertex_type_covers_exactly_six():
    # the table's keys are the two-in/two-out quadruples, typed as the oracle
    # types them
    ice = {q: ice_vertex_type(*q) for q in product((0, 1), repeat=4)}
    assert {q: vt for q, vt in ice.items() if vt is not None} == _VERTEX_TYPE


# the 180-degree rotation reverses every arrow and swaps the sides of a
# vertex: types 1 <-> 2 and 3 <-> 4, while 5 and 6 stay
ROTATED_TYPE = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6}


def rotate(n, h, v):
    """The configuration (h, v) turned by 180 degrees: row i and column j go
    to row n-1-i and column n-1-j, and every arrow reverses."""
    h2 = tuple(tuple(1 - h[n - 1 - i][n - j] for j in range(n + 1)) for i in range(n))
    v2 = tuple(tuple(1 - v[n - i][n - 1 - j] for j in range(n)) for i in range(n + 1))
    return h2, v2


def test_rotation_keeps_the_weight_of_each_vertex():
    # the transfer DP joins the lower rows with their rotated copy, so the
    # rotation must map each vertex to a type of the same weight
    for (left, right, bottom, top), vt in _VERTEX_TYPE.items():
        image = ice_vertex_type(1 - right, 1 - left, 1 - top, 1 - bottom)
        assert image == ROTATED_TYPE[ice_vertex_type(left, right, bottom, top)]
        assert _WEIGHT_CLASS[image] == _WEIGHT_CLASS[vt]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rotation_maps_the_walk_onto_itself(n):
    tallies_of = {(h, v): tallies for h, v, tallies in walk_snapshots(n)}
    for (h, v), tallies in tallies_of.items():
        image = rotate(n, h, v)
        k = type_counts(n, *image)  # raises unless the image is a DWBC configuration
        assert tallies_of[image] == tallies == (k[1] + k[2], k[3] + k[4], k[5] + k[6])


def test_n1_single_c_vertex():
    z, count = sv.enumerate_dfs(1, rational_weights(7, 11, 13))
    assert z == 13 and count == 1


def test_asm_counts():
    for n, expect in [(1, 1), (2, 2), (3, 7), (4, 42), (5, 429)]:
        z, count = sv.enumerate_dfs(n, rational_weights(1, 1, 1))
        assert z == expect and count == expect


def test_transfer_matrix_matches_asm():
    for n, expect in [(1, 1), (2, 2), (3, 7), (4, 42), (5, 429), (6, 7436)]:
        assert sv.transfer_matrix_zn(n, rational_weights(1, 1, 1)) == expect


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_yields_each_asm_configuration_once(n):
    configs = [(h, v) for h, v, _ in walk_snapshots(n)]
    assert len(configs) == len(set(configs)) == asm_count(n)
    for h, v in configs:
        dwbc_vertex_types(n, h, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_tallies_are_the_oracle_class_counts(n):
    # enumerate_dfs weighs each configuration by a^N_a b^N_b c^N_c
    for h, v, tallies in walk_snapshots(n):
        k = type_counts(n, h, v)
        assert tallies == (k[1] + k[2], k[3] + k[4], k[5] + k[6])


def test_oracle_rejects_broken_configurations():
    ((h, v, _),) = walk_snapshots(1)
    with pytest.raises(ValueError, match="domain wall"):
        dwbc_vertex_types(1, h, ((DOWN,), (DOWN,)))
    with pytest.raises(ValueError, match="domain wall"):
        dwbc_vertex_types(1, ((RIGHT, RIGHT),), v)
    # n = 2 with one interior vertical edge reversed: every boundary edge
    # holds, and the vertices above and below it are three-in or three-out
    h, v, _ = walk_snapshots(2)[0]
    v = (v[0], (1 - v[1][0], v[1][1]), v[2])
    with pytest.raises(ValueError, match="ice rule"):
        dwbc_vertex_types(2, h, v)


def test_dfs_equals_transfer_matrix_n7():
    w = sv.Weights(Fraction(2, 7), Fraction(5, 11), Fraction(13, 3))
    z, count = sv.enumerate_dfs(7, w)
    assert z == sv.transfer_matrix_zn(7, w) and count == asm_count(7)


GENERIC_TRIPLES = [
    (Fraction(2, 7), Fraction(5, 11), Fraction(13, 3)),  # coprime denominators
    (Fraction(3, 4), Fraction(5, 6), Fraction(7, 10)),
]


@pytest.mark.parametrize("tr", GENERIC_TRIPLES)
@pytest.mark.parametrize("n", [8, 9, 12, 13, 14])
def test_transfer_matrix_equals_full_row_dp(tr, n):
    # past the DFS's n <= 7, at weights off the closed-form families
    assert sv.transfer_matrix_zn(n, sv.Weights(*tr)) == transfer_matrix_rows(n, *tr)


@pytest.mark.parametrize("n", [8, 9])
def test_transfer_matrix_float_mode_equals_full_row_dp(n):
    ctx = sv.PrecisionContext(128)
    tr = GENERIC_TRIPLES[0]
    exact = transfer_matrix_rows(n, *tr)
    with ctx.guardprec():
        wf = sv.Weights(*(mp.mpf(x.numerator) / x.denominator for x in tr))
    approx = sv.transfer_matrix_zn(n, wf, ctx=ctx)
    with ctx.guardprec():
        ref = mp.mpf(exact.numerator) / exact.denominator
        assert abs(approx - ref) / ref < mp.mpf(2) ** (-200)


def test_transfer_matrix_exact_equivalence_example():
    w = rational_weights(2, 3, 5)
    assert sv.transfer_matrix_zn(2, w) == sv.enumerate_dfs(2, w)[0]


def test_enumeration_guard():
    with pytest.raises(ParameterDomainError):
        sv.enumerate_dfs(8, rational_weights(1, 1, 1))
    with pytest.raises(ParameterDomainError):
        sv.transfer_matrix_zn(15, rational_weights(1, 1, 1))


@pytest.mark.parametrize("count", [sv.transfer_matrix_zn, sv.enumerate_dfs])
def test_exact_mode_refuses_an_mpf_weight(count):
    w = sv.Weights(1, 1, mp.mpf(1) / 3)
    with pytest.raises(ParameterDomainError, match="exact mode needs rational weights"):
        count(2, w, exact=True)


def test_vertex_counts_n1():
    ((h, v, _),) = walk_snapshots(1)
    assert dwbc_vertex_types(1, h, v) == ((5,),)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conservation_laws_all_configurations(n):
    for h, v, _ in walk_snapshots(n):
        k = type_counts(n, h, v)
        assert sum(k.values()) == n * n
        assert k[1] == k[2]
        assert k[3] == k[4]
        assert k[5] == k[6] + n


def test_float_mode_matches_exact():
    # both routines, as perfbench's checker calls transfer_matrix_zn in float
    # mode for irrational weights
    w = rational_weights(2, 3, 5)
    ctx = sv.PrecisionContext(128)
    with ctx.guardprec():
        wf = sv.Weights(mp.mpf(2), mp.mpf(3), mp.mpf(5))
    for zn in (lambda *a, **k: sv.enumerate_dfs(*a, **k)[0], sv.transfer_matrix_zn):
        exact = zn(3, w)
        approx = zn(3, wf, ctx=ctx)
        with ctx.guardprec():
            assert abs(approx - int(exact)) / int(exact) < mp.mpf(2) ** (-200)


small_fractions = st.fractions(
    min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=12
)
triples = st.tuples(small_fractions, small_fractions, small_fractions)


@settings(max_examples=15)
@given(triples, st.integers(min_value=1, max_value=4))
def test_dfs_equals_transfer_matrix_exactly(tr, n):
    w = sv.Weights(*tr)
    assert sv.enumerate_dfs(n, w)[0] == sv.transfer_matrix_zn(n, w)


@settings(max_examples=15)
@given(triples, st.integers(min_value=1, max_value=4))
def test_reflection_symmetry_exact(tr, n):
    a, b, c = tr
    assert (
        sv.transfer_matrix_zn(n, sv.Weights(a, b, c))
        == sv.transfer_matrix_zn(n, sv.Weights(b, a, c))
    )


@settings(max_examples=15)
@given(triples, small_fractions, st.integers(min_value=1, max_value=4))
def test_homogeneity_exact(tr, lam, n):
    a, b, c = tr
    z = sv.transfer_matrix_zn(n, sv.Weights(a, b, c))
    zs = sv.transfer_matrix_zn(n, sv.Weights(a * lam, b * lam, c * lam))
    assert zs == lam ** (n * n) * z


def test_reflection_symmetry_n5():
    w1 = rational_weights(2, 3, 5)
    w2 = rational_weights(3, 2, 5)
    assert sv.transfer_matrix_zn(5, w1) == sv.transfer_matrix_zn(5, w2)


@pytest.mark.parametrize("a", [Fraction(1), Fraction(2, 3)])
def test_transfer_matrix_ice_point_is_asm_count(a):
    # a = b = c: every configuration weighs a^(n^2), and there are A_n of them
    w = sv.Weights(a, a, a)
    for n in range(1, sv.lattice.MAX_TRANSFER_N + 1):
        assert sv.transfer_matrix_zn(n, w, exact=True) == asm_count(n) * a ** (n * n)


@pytest.mark.parametrize(
    "a, b", [(Fraction(3, 5), Fraction(4, 5)), (Fraction(20, 29), Fraction(21, 29))]
)
def test_transfer_matrix_free_fermion_is_one(a, b):
    # a^2 + b^2 = c^2 = 1: Z_n = c^(n^2) = 1
    for n in range(1, sv.lattice.MAX_TRANSFER_N + 1):
        assert sv.transfer_matrix_zn(n, sv.Weights(a, b, Fraction(1)), exact=True) == 1


fractions_to_1e6 = st.builds(
    Fraction, st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6)
)


@settings(max_examples=10)
@given(st.tuples(fractions_to_1e6, fractions_to_1e6, fractions_to_1e6), st.sampled_from([5, 6]))
@example((Fraction(1, 999983), Fraction(2, 999979), Fraction(3, 999961)), 6)
def test_dfs_equals_transfer_matrix_coprime_denominators(tr, n):
    # the DP scales by D = lcm of the denominators, here up to about 10^18
    d1, d2, d3 = (x.denominator for x in tr)
    assume(gcd(d1, d2) == gcd(d2, d3) == gcd(d1, d3) == 1)
    w = sv.Weights(*tr)
    assert sv.enumerate_dfs(n, w)[0] == sv.transfer_matrix_zn(n, w)


@pytest.mark.parametrize(
    "w",
    [
        sv.Weights(2, 3, 5),
        sv.Weights(2, Fraction(1, 2), 3),
        sv.Weights(Fraction(6, 4), Fraction(10, 15), Fraction(9, 6)),
    ],
)
def test_exact_results_are_fractions_in_lowest_terms(w):
    for z in (sv.transfer_matrix_zn(3, w), sv.enumerate_dfs(3, w)[0]):
        assert type(z) is Fraction
        assert z.denominator > 0 and gcd(z.numerator, z.denominator) == 1
