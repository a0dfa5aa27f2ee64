"""Elliptic integrals and Jacobi functions against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from blochtop import elliptic
from blochtop.elliptic import _complete_KE, complete_E, complete_K, \
    complete_Pi, jacobi_sn_cn_dn

M_GRID = [0.0, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999]


def K_quad(m):
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - m * math.sin(th) ** 2),
                  0.0, 0.5 * math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def E_quad(m):
    val, _ = quad(lambda th: math.sqrt(1.0 - m * math.sin(th) ** 2),
                  0.0, 0.5 * math.pi, epsabs=1e-12, epsrel=1e-12)
    return val


@pytest.mark.parametrize("m", M_GRID)
def test_complete_K_matches_quadrature(m):
    assert_allclose(complete_K(m), K_quad(m), rtol=1e-11)


@pytest.mark.parametrize("m", M_GRID + [1.0])
def test_complete_E_matches_quadrature(m):
    assert_allclose(complete_E(m), E_quad(m), rtol=1e-11)


@pytest.mark.parametrize("m", M_GRID)
def test_complete_integrals_match_mpmath(m):
    assert_allclose(complete_K(m), float(mpmath.ellipk(m)), rtol=1e-13)
    assert_allclose(complete_E(m), float(mpmath.ellipe(m)), rtol=1e-13)


def test_special_values():
    assert_allclose(complete_K(0.0), 0.5 * math.pi, rtol=1e-15)
    assert_allclose(complete_E(0.0), 0.5 * math.pi, rtol=1e-15)
    assert complete_E(1.0) == 1.0
    # A&S 17.3.33 table entry for m = 1/2
    assert_allclose(complete_K(0.5), 1.8540746773013719, rtol=1e-14)
    assert_allclose(complete_E(0.5), 1.3506438810476755, rtol=1e-14)


@pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.8])
def test_legendre_relation(m):
    lhs = (complete_E(m) * complete_K(1.0 - m)
           + complete_E(1.0 - m) * complete_K(m)
           - complete_K(m) * complete_K(1.0 - m))
    assert_allclose(lhs, 0.5 * math.pi, rtol=1e-13)


def test_K_log_asymptote_near_one():
    m = 1.0 - 1e-8
    assert_allclose(complete_K(m), 0.5 * math.log(16.0 / (1.0 - m)), rtol=1e-6)


def test_K_domain_errors():
    with pytest.raises(ValueError):
        complete_K(-0.1)
    with pytest.raises(ValueError):
        complete_K(1.0)
    with pytest.raises(ValueError):
        complete_E(1.2)


@pytest.mark.parametrize("f, args", [
    (complete_K, (math.nan,)), (complete_K, (math.inf,)),
    (complete_K, (-math.inf,)), (complete_K, (1.5,)),
    (complete_E, (math.nan,)), (complete_E, (math.inf,)),
    (complete_E, (-0.1,)),
    (complete_Pi, (math.nan, 0.5)), (complete_Pi, (-math.inf, 0.5)),
    (complete_Pi, (math.inf, 0.5)), (complete_Pi, (1.0, 0.5)),
    (complete_Pi, (-1.0, math.nan)), (complete_Pi, (-1.0, 1.0)),
    (complete_Pi, (-1.0, -0.1)), (complete_Pi, (-1.0, math.inf)),
])
def test_complete_integrals_reject_nan_inf_and_out_of_range(f, args):
    with pytest.raises(ValueError):
        f(*args)


@pytest.mark.parametrize("nu", [-1e4, -3e3, -100.0, -9.0, -1.0, -0.3, -1e-9,
                                0.0, 1e-3, 0.3, 0.9])
@pytest.mark.parametrize("m", [0.0, 1e-6, 0.1, 0.5, 0.9, 0.99, 0.999,
                               0.99999])
def test_complete_Pi_matches_mpmath(nu, m):
    assert_allclose(complete_Pi(nu, m), float(mpmath.ellippi(nu, m)),
                    rtol=1e-14)


@pytest.mark.parametrize("m", M_GRID)
def test_complete_Pi_at_zero_nu_is_K(m):
    assert_allclose(complete_Pi(0.0, m), complete_K(m), rtol=1e-15)


@pytest.mark.parametrize("m", M_GRID)
def test_one_pass_K_and_E(m):
    K, E = _complete_KE(m)
    assert E == complete_E(m)
    assert K == complete_K(m)


def test_complete_E_stops_at_a_repeated_agm_pair():
    # the rounded AGM settles into a one-ulp fixed point here, (a, b) =
    # (0.5120421265967223, 0.5120421265967222), whose c never passes the
    # stop test; summing its w c^2 up to the step cap moved E by 1.7e-13
    m = 0.9640377618364563
    assert abs(complete_E(m) - float(mpmath.ellipe(m))) <= 1e-15


def test_complete_Pi_stops_at_a_repeated_agm_pair(monkeypatch):
    # at m = 0.5 the rounded AGM settles into a one-ulp fixed point whose
    # |a - g| never passes the stop test, which ran all _AGM_MAX steps
    steps = []
    agm = elliptic._agm

    def counted(m):
        for pair in agm(m):
            steps.append(pair)
            yield pair

    monkeypatch.setattr(elliptic, "_agm", counted)
    for nu in (-0.5, -3.0):
        steps.clear()
        value = complete_Pi(nu, 0.5)
        assert len(steps) <= 12
        ref = mpmath.ellippi(nu, 0.5)
        assert abs(value - float(ref)) <= 1e-15 * abs(float(ref))


@pytest.mark.parametrize("m", [0.0, 0.1, 0.5, 0.9, 0.99, 0.999999])
def test_jacobi_matches_mpmath(m):
    K = complete_K(m) if m < 1.0 else 10.0
    u = np.linspace(-10.0 * K, 10.0 * K, 41)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    ref_sn = [float(mpmath.ellipfun("sn", ui, m=m)) for ui in u]
    ref_cn = [float(mpmath.ellipfun("cn", ui, m=m)) for ui in u]
    ref_dn = [float(mpmath.ellipfun("dn", ui, m=m)) for ui in u]
    assert_allclose(sn, ref_sn, atol=1e-12)
    assert_allclose(cn, ref_cn, atol=1e-12)
    assert_allclose(dn, ref_dn, atol=1e-12)


@pytest.mark.parametrize("m", [0.0, 0.2, 0.5, 0.9, 0.999999, 1.0])
def test_jacobi_identities(m):
    rng = np.random.default_rng(7)
    u = rng.uniform(-20.0, 20.0, size=200)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert_allclose(sn**2 + cn**2, 1.0, atol=1e-11)
    assert_allclose(dn**2 + m * sn**2, 1.0, atol=1e-11)


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.99])
def test_jacobi_periodicity(m):
    K = complete_K(m)
    u = np.linspace(-3.0, 3.0, 17)
    for f, g in zip(jacobi_sn_cn_dn(u, m), jacobi_sn_cn_dn(u + 4.0 * K, m)):
        assert_allclose(f, g, atol=1e-10)


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
def test_jacobi_derivatives(m):
    u = np.linspace(-4.0, 4.0, 23)
    h = 1e-5
    snp, cnp, dnp = jacobi_sn_cn_dn(u + h, m)
    snm, cnm, dnm = jacobi_sn_cn_dn(u - h, m)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert_allclose((snp - snm) / (2 * h), cn * dn, atol=1e-7)
    assert_allclose((cnp - cnm) / (2 * h), -sn * dn, atol=1e-7)
    assert_allclose((dnp - dnm) / (2 * h), -m * sn * cn, atol=1e-7)


def test_jacobi_hyperbolic_limit():
    u = np.linspace(-5.0, 5.0, 11)
    sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
    assert_allclose(sn, np.tanh(u), rtol=1e-15)
    assert_allclose(cn, 1.0 / np.cosh(u), rtol=1e-15)
    assert_allclose(dn, cn, rtol=1e-15)
    # just below m = 1 the Landen chain still resolves the modulus
    m = mpmath.mpf(1) - mpmath.mpf(1e-13)
    sn2, _, _ = jacobi_sn_cn_dn(u, 1.0 - 1e-13)
    ref = [float(mpmath.ellipfun("sn", ui, m=m)) for ui in u]
    assert_allclose(sn2, ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("u", [800.0, -800.0])
def test_jacobi_hyperbolic_limit_is_quiet_past_cosh_overflow(u):
    # cosh(u) overflows past |u| ~ 710, where sech is 0 to double precision
    sn, cn, dn = jacobi_sn_cn_dn(np.array([u]), 1.0)
    assert (sn[0], cn[0], dn[0]) == (math.copysign(1.0, u), 0.0, 0.0)
    assert jacobi_sn_cn_dn(u, 1.0) == (math.copysign(1.0, u), 0.0, 0.0)


def test_jacobi_scalar_and_shape():
    s = jacobi_sn_cn_dn(0.3, 0.5)
    assert all(isinstance(x, float) for x in s)
    out = jacobi_sn_cn_dn(np.zeros((2, 3)), 0.5)
    assert all(x.shape == (2, 3) for x in out)
    sn, cn, dn = jacobi_sn_cn_dn(0.0, 0.7)
    assert (sn, cn, dn) == (0.0, 1.0, 1.0)


def test_jacobi_domain_errors():
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.1, -0.2)
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.1, 1.0001)


@pytest.mark.parametrize("u", [1e-300, -1e-200, 1e-160])
@pytest.mark.parametrize("m", [0.0, 0.5, 0.999999])
def test_jacobi_tiny_argument_matches_mpmath(u, m):
    # cot(c u)**2 of the backward Landen step overflows below |u| ~ 1e-154
    got = jacobi_sn_cn_dn(np.array([u, 0.0, 0.3]), m)
    for f, g in zip(("sn", "cn", "dn"), got):
        assert g[0] == float(mpmath.ellipfun(f, u, m=m))
        assert g[1] == (0.0 if f == "sn" else 1.0)
    alone = jacobi_sn_cn_dn(np.array([0.5, 0.0, 0.3]), m)
    assert [g[2] for g in got] == [g[2] for g in alone]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(math.log(1.1e-16), math.log(0.5)),
       st.floats(-60.0, 60.0))
def test_jacobi_identities_near_one(log_m1, u):
    m = 1.0 - math.exp(log_m1)
    sn, cn, dn = jacobi_sn_cn_dn(np.array([u, -u, 0.5 * u]), m)
    assert_allclose(sn**2 + cn**2, 1.0, rtol=0, atol=1e-15)
    assert_allclose(dn**2 + m * sn**2, 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("nu, m, pairs", [(0.3, 0.5, 3), (-2.0, 0.9, 4)])
def test_complete_Pi_ends_an_exhausted_agm_on_its_last_mean(monkeypatch, nu,
                                                            m, pairs):
    # cut off after `pairs` AGM pairs, the loop's else takes one more mean
    # of the last pair: the error is that of one more AGM step (1.4e-5
    # and 6e-7 relative without that mean)
    monkeypatch.setattr(elliptic, "_AGM_MAX", pairs)
    assert_allclose(complete_Pi(nu, m), float(mpmath.ellippi(nu, m)),
                    rtol=1e-9)


def _jacobi_out_of_place(u, m: float):
    """The array path of jacobi_sn_cn_dn as it was written before its
    Landen chain ran in reused buffers, one fresh array per operation:
    the reference for the bits.  Returns sn, cn, dn and whether the zero
    and tiny-argument repairs changed any element."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if m == 1.0:
        with np.errstate(over="ignore"):
            cn = 1.0 / np.cosh(arr)
        return np.tanh(arr), cn, cn.copy(), False
    chain = []
    for a, b in elliptic._agm(m):
        chain.append((a, b))
        if abs(a - b) <= elliptic._LANDEN_TOL * a:
            break
    c = 0.5 * (a + b)
    w = c * arr
    sn0 = np.sin(w)
    zero = sn0 == 0.0
    safe = np.where(zero, 1.0, sn0)
    with np.errstate(over="ignore", invalid="ignore"):
        aa = np.cos(w) / safe
        cc = aa * c
        dd = np.ones_like(w)
        for b_em, b_en in reversed(chain):
            t = aa * cc
            cc = cc * dd
            dd = (b_en + t) / (b_em + t)
            aa = cc / b_em
        amp = 1.0 / np.sqrt(cc * cc + 1.0)
        sn = np.where(sn0 >= 0.0, amp, -amp)
        cn = cc * sn
    tiny = np.isnan(dd) & (np.abs(arr) < 1.0)
    sn = np.where(zero, 0.0, np.where(tiny, arr, sn))
    cn = np.where(zero | tiny, 1.0, cn)
    dn = np.where(zero | tiny, 1.0, dd)
    return sn, cn, dn, bool((zero | tiny).any())


# arguments the zero and tiny-argument repairs take: sn(c u) rounds to 0,
# or cot(c u)**2 overflows
_REPAIRED = st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 5e-324, -5e-324,
                             2.2250738585072009e-308, 1e-300])
_PLAIN = st.one_of(st.floats(1e-3, 60.0), st.floats(-60.0, -1e-3),
                   st.floats(-1e6, 1e6).filter(lambda x: abs(x) >= 1e-3))
_M = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True,
                                       exclude_max=True),
               st.integers(1, 16).map(lambda k: 1.0 - 10.0 ** -k),
               st.just(1.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_M, st.booleans(), st.lists(_PLAIN, min_size=1, max_size=40),
       st.lists(_REPAIRED, min_size=1, max_size=4), st.randoms(),
       st.booleans())
def test_jacobi_in_place_chain_keeps_the_bits(m, repaired, plain, special,
                                               rnd, square):
    values = plain + special if repaired else plain
    rnd.shuffle(values)
    u = np.array(values)
    if square and u.size % 2 == 0:
        u = u.reshape(2, -1)
    before = u.copy()
    *want, did_repair = _jacobi_out_of_place(u, m)
    got = jacobi_sn_cn_dn(u, m)
    # both branches are reached: the repairs run only where they change
    # an element, and each such element is one of the special arguments
    assert did_repair == (repaired and m != 1.0)
    for w, g in zip(want, got):
        assert g.shape == u.shape and g.tobytes() == w.tobytes()
    assert u.tobytes() == before.tobytes()
    arrays = [u, *got]
    for i in range(len(arrays)):
        for j in range(i):
            assert not np.shares_memory(arrays[i], arrays[j])
