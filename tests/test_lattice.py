"""Configuration enumeration, the transfer-matrix DP, and their invariants."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

import sixvertex as sv
from sixvertex.lattice import DOWN, LEFT, RIGHT, UP, configuration_weight
from sixvertex.errors import ParameterDomainError

from conftest import rational_weights
from oracles import asm_count


def test_vertex_type_examples():
    assert sv.vertex_type(LEFT, RIGHT, UP, DOWN) == 5
    assert sv.vertex_type(RIGHT, RIGHT, UP, UP) == 1
    assert sv.vertex_type(RIGHT, LEFT, UP, UP) is None  # three in, one out


def test_vertex_type_covers_exactly_six():
    valid = [
        (l, r, b, t)
        for l in (0, 1)
        for r in (0, 1)
        for b in (0, 1)
        for t in (0, 1)
        if sv.vertex_type(l, r, b, t) is not None
    ]
    assert len(valid) == 6
    types = sorted(sv.vertex_type(*e) for e in valid)
    assert types == [1, 2, 3, 4, 5, 6]


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
    configs = list(sv.enumerate_configurations(n))
    assert len(configs) == len(set(configs)) == asm_count(n)
    for cfg in configs:
        cfg.validate()


def test_dfs_equals_transfer_matrix_n7():
    w = sv.Weights(Fraction(2, 7), Fraction(5, 11), Fraction(13, 3))
    z, count = sv.enumerate_dfs(7, w)
    assert z == sv.transfer_matrix_zn(7, w) and count == asm_count(7)


def test_transfer_matrix_exact_equivalence_example():
    w = rational_weights(2, 3, 5)
    assert sv.transfer_matrix_zn(2, w) == sv.enumerate_dfs(2, w)[0]


def test_enumeration_guard():
    with pytest.raises(ParameterDomainError):
        sv.enumerate_dfs(8, rational_weights(1, 1, 1))
    with pytest.raises(ParameterDomainError):
        sv.transfer_matrix_zn(15, rational_weights(1, 1, 1))


def test_vertex_counts_n1():
    (cfg,) = list(sv.enumerate_configurations(1))
    vc = sv.vertex_counts(cfg)
    assert vc.as_tuple() == (0, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conservation_laws_all_configurations(n):
    for cfg in sv.enumerate_configurations(n):
        vc = sv.vertex_counts(cfg)
        assert vc.total == n * n
        assert vc.n1 == vc.n2
        assert vc.n3 == vc.n4
        assert vc.n5 == vc.n6 + n


def test_gibbs_probabilities_sum_to_one_exactly():
    w = rational_weights(2, 3, 5)
    total = Fraction(0)
    for cfg in sv.enumerate_configurations(3):
        p = sv.gibbs_probability(cfg, w)
        assert 0 < p <= 1
        total += p
    assert total == 1


def test_gibbs_n2_uniform():
    w = rational_weights(1, 1, 1)
    probs = [sv.gibbs_probability(cfg, w) for cfg in sv.enumerate_configurations(2)]
    assert probs == [Fraction(1, 2), Fraction(1, 2)]


def test_gibbs_n1_is_one():
    (cfg,) = list(sv.enumerate_configurations(1))
    assert sv.gibbs_probability(cfg, rational_weights(3, 4, 5)) == 1


def test_configuration_json_round_trip():
    for cfg in sv.enumerate_configurations(3):
        blob = json.dumps(cfg.to_json())
        back = sv.Configuration.from_json(json.loads(blob))
        assert back == cfg


def test_configuration_json_rejects_bad_boundary():
    (cfg,) = list(sv.enumerate_configurations(1))
    obj = cfg.to_json()
    obj["v_edges"][0][0] = DOWN  # break the bottom domain wall
    with pytest.raises(ParameterDomainError):
        sv.Configuration.from_json(obj)


def test_float_mode_matches_exact():
    w = rational_weights(2, 3, 5)
    exact, _ = sv.enumerate_dfs(3, w)
    ctx = sv.PrecisionContext(128)
    with ctx.guardprec():
        wf = sv.Weights(mp.mpf(2), mp.mpf(3), mp.mpf(5))
    approx, _ = sv.enumerate_dfs(3, wf, ctx=ctx)
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
    for n in range(1, 14):
        assert sv.transfer_matrix_zn(n, w, exact=True) == asm_count(n) * a ** (n * n)


@pytest.mark.parametrize(
    "a, b", [(Fraction(3, 5), Fraction(4, 5)), (Fraction(20, 29), Fraction(21, 29))]
)
def test_transfer_matrix_free_fermion_is_one(a, b):
    # a^2 + b^2 = c^2 = 1: Z_n = c^(n^2) = 1
    for n in range(1, 13):
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
    # a configuration with all three weight classes: N_a = 2, N_b = 4, N_c = 3
    cfg = next(c for c in sv.enumerate_configurations(3) if sv.vertex_counts(c).n1 == 1)
    values = [
        sv.transfer_matrix_zn(3, w),
        sv.enumerate_dfs(3, w)[0],
        configuration_weight(cfg, w),
        sv.gibbs_probability(cfg, w),
    ]
    for z in values:
        assert type(z) is Fraction
        assert z.denominator > 0 and gcd(z.numerator, z.denominator) == 1
    a, b, c = (Fraction(x) for x in (w.a, w.b, w.c))
    assert values[2] == a**2 * b**4 * c**3
