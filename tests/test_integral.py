import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from singtrace.classify import classify
from singtrace.errors import (
    NonFinite,
    QuadratureUnconverged,
    SingTraceError,
    SupportExceeded,
    UndecidedBranch,
    ZeroDenominator,
)
from singtrace.functions import (
    GFunction,
    dilate,
    exponential,
    g_inverse,
    g_step,
    g_transform,
    pointwise_min,
    power_log,
    pure_power,
    sampled,
    step_mu,
    shift,
    EigenvalueFunction,
    MinOf,
    PowerLog,
)
from singtrace import integral
from singtrace.integral import (
    _RULE,
    _RULE_BATCH,
    _log_masses,
    _log_s_panels,
    S,
    is_trace_class,
    log_S,
    log_S_grid,
    mu_mass,
    mu_over_S,
    s_ratio,
)

E = math.e


def quad_up(mu, x):
    val, _ = quad(lambda y: mu(y), 0.0, x, epsrel=1e-12, limit=400)
    return val


def panel_twin(mu):
    """min(g, g) of a profile: the same S, read through panels, as MinOf has no closed form."""
    return g_inverse(pointwise_min(g_transform(mu), g_transform(mu)))


def quad_down(mu, x, cutoff=1e8):
    # decade panels keep the adaptive rule honest on huge intervals
    total, lo = 0.0, x
    while lo < cutoff:
        hi = min(lo * 10.0, cutoff)
        val, _ = quad(lambda y: mu(y), lo, hi, epsrel=1e-12, limit=400)
        total += val
        lo = hi
    return total


def mp_log_S(mu, s):
    """log S of a (shifted) power-log at s = log x, at 30 digits: the incomplete
    gamma on the down branch; on the up branch the integral of e^y y^(-q) over
    [1 - p, (1 - p) u] as e^z times the integral of e^(-v) (z - v)^(-q) over [0, z - z0],
    cut at v = 100.  The cut drops at most 1.6 e^(-100) (z/z0)^q of the integral,
    below 1e-21 for the q <= 4 and z/z0 <= 2e5 used here; for a large q the
    part near z0 can dominate, and the cut is then wrong."""
    fam = mu.family
    with mpmath.workdps(30):
        p, q, a = mpmath.mpf(fam.p), mpmath.mpf(fam.q), mpmath.mpf(mu.a)
        u = mpmath.log(mpmath.exp(mpmath.mpf(s) - a) + mpmath.e)
        offset = mpmath.log(fam.scale) + a - mpmath.mpf(mu.b)
        if p > 1:
            eps = p - 1
            return float(offset + (q - 1) * mpmath.log(eps)
                         + mpmath.log(mpmath.gammainc(1 - q, eps * u)))
        eps = 1 - p
        z, width = eps * u, min(eps * (u - 1), 100)
        cuts = [0] + [c for c in (0.25, 1, 4, 16, 64) if c < width] + [width]
        mass = mpmath.quad(lambda v: mpmath.exp(-v) * (z - v) ** (-q), cuts)
        return float(offset + (q - 1) * mpmath.log(eps) + z + mpmath.log(mass))


def assert_log_S_matches_mpmath(mu, ss, tol=1e-13):
    """log_S_grid on ss, and log_S at each point, within tol max(1, |log S|) of mpmath."""
    ss = np.asarray(ss, dtype=float)
    for s, got in zip(ss, log_S_grid(mu, ss)):
        want = mp_log_S(mu, s)
        assert abs(got - want) <= tol * max(1.0, abs(want)), (mu, s, got, want)
        assert log_S(mu, float(s)) == got


# ---------------------------------------------------------------------------
# trace class detection


def test_trace_class_exact_family_split():
    assert is_trace_class(power_log(p=2)).verdict == "trace_class"
    assert is_trace_class(power_log(p=2)).basis == "exact"
    assert is_trace_class(power_log(p=1)).verdict == "not_trace_class"
    assert is_trace_class(power_log(p=0.5)).verdict == "not_trace_class"
    assert is_trace_class(power_log(p=1, q=2)).verdict == "trace_class"
    assert is_trace_class(power_log(p=1, q=1)).verdict == "not_trace_class"
    assert is_trace_class(power_log(p=0, q=2)).verdict == "not_trace_class"
    assert is_trace_class(exponential(0.3)).verdict == "trace_class"
    assert is_trace_class(step_mu([0, 1], [4.0])).verdict == "trace_class"
    assert is_trace_class(pure_power(p=2)).verdict == "trace_class"


def test_trace_class_sampled_without_tail_is_undecided():
    mu = sampled([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])
    v = is_trace_class(mu)
    assert v.verdict == "undecided" and v.basis == "horizon_only"
    with pytest.raises(UndecidedBranch):
        S(mu, 2.0)


def test_trace_class_sampled_with_tail_uses_tail_model():
    mu = sampled([1.0, 2.0, 4.0], [1.0, 0.5, 0.25], tail=PowerLog(p=2.0))
    v = is_trace_class(mu)
    assert v.verdict == "trace_class" and v.basis == "tail_model"


def test_trace_class_invariant_under_dilation():
    for fam in [power_log(p=2), power_log(p=0.5)]:
        for lam in [0.5, 2.0, 10.0]:
            assert is_trace_class(dilate(fam, lam)).verdict == is_trace_class(fam).verdict


def test_branch_selection():
    from singtrace.integral import branch_of

    assert branch_of(power_log(p=1)) == "up"
    assert branch_of(power_log(p=2)) == "down"
    assert branch_of(step_mu([0, 1], [1.0])) == "down"  # finite rank is integrable
    with pytest.raises(UndecidedBranch):
        branch_of(sampled([1.0, 2.0], [1.0, 0.5]))


# ---------------------------------------------------------------------------
# S values against quadrature oracles


def test_S_up_closed_forms_match_quadrature():
    for mu in [power_log(p=1), power_log(p=0.5), power_log(p=1, q=-1), pure_power(p=1)]:
        for x in [0.5, 3.0, 40.0, 1e4]:
            assert S(mu, x) == pytest.approx(quad_up(mu, x), rel=1e-9)


def test_S_p1_closed_form_value():
    # S_up(x) = log(x+e) - 1 for the p = 1 family
    mu = power_log(p=1)
    for x in [1.0, 10.0, 1e5]:
        assert S(mu, x) == pytest.approx(math.log(x + E) - 1.0, rel=1e-13)


def test_S_down_closed_forms_match_quadrature():
    for mu in [power_log(p=2), power_log(p=4), pure_power(p=2)]:
        for x in [0.5, 3.0, 40.0]:
            assert S(mu, x) == pytest.approx(quad_down(mu, x, cutoff=1e13), rel=1e-6)
    # 1/((x+e) log^2): the tail past any feasible cutoff still matters, so
    # compare the increment S(x) - S(X) against quadrature on [x, X]
    mu = power_log(p=1, q=2)
    for x in [0.5, 3.0, 40.0]:
        inc = S(mu, x) - S(mu, 1e10)
        assert inc == pytest.approx(quad_down(mu, x, cutoff=1e10), rel=1e-9)


def test_S_exponential_down_branch():
    mu = exponential(1.0)
    for x in [0.5, 2.0, 10.0]:
        assert S(mu, x) == pytest.approx(math.exp(-x), rel=1e-12)
    assert S(exponential(2.0), 3.0) == pytest.approx(math.exp(-6.0) / 2.0, rel=1e-12)


def test_S_quadrature_fallback_families():
    # no closed form here: p = 0 pure log decay, and p < 1 with a log factor
    # this far below its asymptotic antiderivative's certified range
    mu = power_log(p=0, q=2)
    for x in [2.0, 50.0]:
        assert S(mu, x) == pytest.approx(quad_up(mu, x), rel=1e-8)
    mu2 = power_log(p=0.5, q=1)
    assert mu2.family.log_S_up(np.array([math.log(100.0)])) is None
    assert S(mu2, 100.0) == pytest.approx(quad_up(mu2, 100.0), rel=1e-8)
    # trace class: the panel twin, and the incomplete gamma closed form
    for mu3 in (panel_twin(power_log(p=2, q=1)), power_log(p=2, q=1)):
        assert S(mu3, 5.0) == pytest.approx(quad_down(mu3, 5.0, cutoff=1e12), rel=1e-6)


def test_S_step_example_both_branches():
    # mu = 3 on [0,1), 2 on [1,2), 1 on [2,3): finite rank, so the down
    # branch applies; the cumulative integral up to 2 is 3 + 2 = 5
    mu = step_mu([0, 1, 2, 3], [3, 2, 1])
    assert mu_mass(mu, 0.0, 2.0) == pytest.approx(5.0, abs=1e-14)
    assert S(mu, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert S(mu, 2.5) == pytest.approx(0.5, rel=1e-12)
    assert S(mu, 3.0) == 0.0


def test_S_shift_consistency():
    # S of a dilated profile equals the dilated closed form
    mu = power_log(p=2)
    d = dilate(mu, 3.0)
    for x in [1.0, 7.0]:
        assert S(d, x) == pytest.approx(quad_down(d, x, cutoff=1e12), rel=1e-6)


def test_log_S_grid_matches_pointwise():
    ss = np.linspace(0.0, 30.0, 50)
    fams = [
        power_log(p=1),          # closed form, up
        power_log(p=2),          # closed form, down
        power_log(p=0, q=2),     # quadrature, up
        power_log(p=2, q=1),     # incomplete gamma, down
        panel_twin(power_log(p=2, q=1)),  # quadrature, down
        exponential(1.0),
    ]
    for mu in fams:
        grid_vals = log_S_grid(mu, ss)
        for i in [0, 10, 49]:
            assert grid_vals[i] == pytest.approx(log_S(mu, float(ss[i])), rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# ratio quantities


def test_s_ratio_tendencies():
    mu1 = power_log(p=1)
    r_small = s_ratio(mu1, 2.0, 1e2)
    r_big = s_ratio(mu1, 2.0, 1e8)
    assert abs(r_big - 1.0) < abs(r_small - 1.0)
    assert r_big == pytest.approx(1.0, abs=0.05)

    mu2 = power_log(p=2)
    assert s_ratio(mu2, 2.0, 1e8) == pytest.approx(0.5, abs=1e-3)

    assert s_ratio(exponential(1.0), 2.0, 50.0) == pytest.approx(math.exp(-50.0), rel=1e-9)


def test_mu_over_S_closed_checks():
    mu1 = power_log(p=1)
    for x in [10.0, 1e4]:
        want = x * mu1(x) / (math.log(x + E) - 1.0)
        assert mu_over_S(mu1, x) == pytest.approx(want, rel=1e-12)
    assert mu_over_S(mu1, 1e8) < 0.06

    mu2 = power_log(p=2)
    assert mu_over_S(mu2, 1e8) == pytest.approx(1.0, abs=1e-3)
    # x mu / S_down = x/(x+e) exactly for p = 2
    assert mu_over_S(mu2, 10.0) == pytest.approx(10.0 / (10.0 + E), rel=1e-12)

    assert mu_over_S(exponential(1.0), 25.0) == pytest.approx(25.0, rel=1e-9)


def test_support_errors():
    mu = step_mu([0, 1], [2.0])
    with pytest.raises(SupportExceeded):
        s_ratio(mu, 2.0, 1.5)
    with pytest.raises(ZeroDenominator):
        mu_over_S(mu, 1.5)


# ---------------------------------------------------------------------------
# proof-chain inequalities (spot check; the acceptance suite runs the full grid)


def up_chain_holds(mu, xs):
    for x in xs:
        r2 = s_ratio(mu, 2.0, x)
        q = mu_over_S(mu, x)
        shalf = S(mu, x / 2) / S(mu, x)
        lhs = r2 - 1.0
        rhs = 2.0 * (1.0 - shalf)
        if not (0 < lhs <= q + 1e-12 and q <= rhs + 1e-12):
            return False
    return True


def down_chain_holds(mu, xs):
    for x in xs:
        r2 = s_ratio(mu, 2.0, x)
        q = mu_over_S(mu, x)
        shalf = S(mu, x / 2) / S(mu, x)
        lhs = 1.0 - r2
        rhs = 2.0 * (shalf - 1.0)
        if not (0 < lhs <= q + 1e-12 and q <= rhs + 1e-12):
            return False
    return True


def test_proposition_chains_spot():
    xs = np.exp(np.linspace(0, np.log(1e5), 40))
    assert up_chain_holds(power_log(p=1), xs)
    assert up_chain_holds(power_log(p=0.5), xs)
    assert down_chain_holds(power_log(p=2), xs)
    assert down_chain_holds(power_log(p=1, q=2), xs)


def test_monotone_branches_and_tail_bound():
    xs = np.exp(np.linspace(0, np.log(1e6), 80))
    up = np.array([S(power_log(p=1), x) for x in xs])
    assert np.all(np.diff(up) > 0)
    down = np.array([S(power_log(p=2), x) for x in xs])
    assert np.all(np.diff(down) < 0)
    # S_down(t) >= t mu(2t)
    mu = power_log(p=3)
    for t in xs[::8]:
        assert S(mu, t) >= t * mu(2 * t) - 1e-15


# ---------------------------------------------------------------------------
# staircase-style g-step profiles in the log domain


def test_gstep_log_S_matches_plain_sums():
    # small staircase where plain float arithmetic is still exact:
    # mu = e^-1 on [0, e^3), e^-2 on [e^3, e^6), e^-4 past e^6
    g = g_step([1.0, 3.0, 6.0], [1.0, 1.0, 2.0, 4.0], integrable=False)
    mu = g.mu_view()

    def expected(s):
        x = math.exp(s)
        acc = math.exp(-1.0) * min(x, math.exp(3.0))
        if x > math.exp(3.0):
            acc += math.exp(-2.0) * (min(x, math.exp(6.0)) - math.exp(3.0))
        if x > math.exp(6.0):
            acc += math.exp(-4.0) * (x - math.exp(6.0))
        return acc

    for s in [0.0, 2.0, 5.0, 5.9, 6.2]:
        assert math.exp(log_S(mu, s)) == pytest.approx(expected(s), rel=1e-12)


def test_gstep_huge_breakpoints_no_overflow():
    g = g_step([1e5, 3e5, 6e5], [10.0, 10.0, 400.0, 900.0], integrable=False)
    mu = g.mu_view()
    v1 = log_S(mu, 2e5)
    v2 = log_S(mu, 5e5)
    assert math.isfinite(v1) and math.isfinite(v2)
    assert v2 > v1  # S_up grows
    # within the first piece the integral is x * e^(-10)
    assert log_S(mu, 5e4) == pytest.approx(5e4 - 10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the Gauss-Kronrod panel rule


def test_kronrod_pair_integrates_polynomials():
    nodes, kronrod, gauss = _RULE.T
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(kronrod @ nodes**k - exact) <= 1e-15
        if k <= 19:
            assert abs(gauss @ nodes**k - exact) <= 1e-15
    # G10 reads 10 of the 21 Kronrod values
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(nodes[gauss > 0], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss[gauss > 0], w, rtol=0, atol=1e-15)


def test_quadrature_classify_evaluates_g_at_few_points(monkeypatch):
    # 21 g points a panel and pass: 138,776 points in all (counted on the
    # twin's own g, not on the two sides its minimum reads)
    points = []

    def counted(self, t, _eval=GFunction.eval):
        if isinstance(self.family, MinOf):
            points.append(np.size(t))
        return _eval(self, t)

    monkeypatch.setattr(GFunction, "eval", counted)
    classify(panel_twin(power_log(1.3, 1.5, 0.5)))
    assert sum(points) <= 160_000
    # the power-log itself reads S from the incomplete gamma
    assert_log_S_matches_mpmath(power_log(1.3, 1.5, 0.5), [250.0, 1000.0, 4000.0])


def test_log_rule_passes_at_most_a_batch_of_panels(monkeypatch):
    # a 3200-point grid is one pass of 3199 panels; g sees at most
    # _RULE_BATCH of them at a time, and the batching moves no sum
    ss = np.linspace(10.0, 4000.0, 3200)
    for mu in (power_log(1.3, 1.5, 0.5), power_log(1.3, 0.7, 0.5)):
        twin = panel_twin(mu)
        sizes = {}  # g call sizes under each batch size

        def counted(self, t, _eval=GFunction.eval):
            sizes.setdefault(integral._RULE_BATCH, []).append(np.size(t))
            return _eval(self, t)

        monkeypatch.setattr(GFunction, "eval", counted)
        batched = log_S_grid(twin, ss)
        monkeypatch.setattr(integral, "_RULE_BATCH", 10**6)
        whole = log_S_grid(twin, ss)
        monkeypatch.undo()
        assert max(sizes[_RULE_BATCH]) <= _RULE_BATCH * len(_RULE) < max(sizes[10**6])
        np.testing.assert_allclose(batched, whole, rtol=1e-14, atol=0)
        # the power-log's closed form (down) agrees with mpmath; the up branch
        # has none below its anchor, and there takes the same panels as the twin
        if mu.family.p > 1:
            assert_log_S_matches_mpmath(mu, ss[::400])
        else:
            np.testing.assert_array_equal(log_S_grid(mu, ss), whole)


def test_panel_rule_refuses_an_unresolved_jump():
    # a jump at sqrt(2) is never a bisection point, so the halves test keeps
    # failing there; the smooth panel beside it is fine on its own
    def log_f(x):
        return np.where(x < math.sqrt(2.0), 0.0, -1.0)

    assert _log_masses(log_f, [0.0], [1.0])[0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(QuadratureUnconverged) as err:
        _log_masses(log_f, [0.0, 1.0], [1.0, 3.0])
    assert isinstance(err.value, SingTraceError)
    with pytest.raises(QuadratureUnconverged):
        _log_masses(lambda x: np.full_like(x, np.nan), [0.0], [1.0])


def test_log_S_grid_sampled_tail_splits_at_jumps():
    # the samples jump at 0.5, 1 and 2, and at 3 where the tail takes over;
    # with the tail's closed form switched off every value comes from the
    # rule, and with it on from the step tables and the incomplete gamma
    mu = sampled([0, 0.5, 1, 2, 3], [1, 0.8, 0.5, 0.3, 0.2], tail=PowerLog(p=1.5, q=0.5))
    ss = np.array([-1.0, 0.2, 0.8, 1.5, 5.0, 50.0])
    closed = log_S_grid(mu, ss)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PowerLog, "log_S_down", lambda self, s: None)
        got = log_S_grid(mu, ss)
    np.testing.assert_allclose(closed, got, rtol=1e-13, atol=0)

    def f(y):
        return float(mu(y))

    for s, val in zip(ss, got):
        x = math.exp(s)
        want = 0.0
        if x < 3.0:
            jumps = [j for j in (0.5, 1.0, 2.0) if j > x]
            want, _ = quad(f, x, 3.0, points=jumps, epsrel=1e-13, epsabs=0.0, limit=200)
        # past the samples, in log coordinates over ten panels of width 20
        r0 = math.log(max(x, 3.0))
        for k in range(10):
            piece, _ = quad(lambda r: math.exp(r) * f(math.exp(r)), r0 + 20 * k,
                            r0 + 20 * (k + 1), epsrel=1e-13, epsabs=0.0, limit=200)
            want += piece
        assert math.exp(val) == pytest.approx(want, rel=1e-10)


def _mp_log_mass(g_mp, edges, crossings=()):
    """log of the integral of e^(r - g(r)) over each panel, at 30 digits."""
    out = []
    with mpmath.workdps(30):
        for lo, hi in zip(edges[:-1], edges[1:]):
            # unit pieces: one tanh-sinh pass over a wide panel is not enough
            pts = sorted(set(mpmath.linspace(lo, hi, math.ceil(hi - lo) + 1))
                         | {mpmath.mpf(c) for c in crossings if lo < c < hi})
            # shifted to O(1) values: mpmath.quad's error test is absolute
            c = lo - g_mp(mpmath.mpf(lo))
            mass = mpmath.quad(lambda r: mpmath.exp(r - g_mp(r) - c), pts)
            out.append(float(c + mpmath.log(mass)))
    return np.array(out)


def _mp_power_log_g(scale, p, q):
    def g(r):
        u = mpmath.log(mpmath.exp(r) + mpmath.e)
        return -mpmath.log(scale) + p * u + q * mpmath.log(u)

    return g


@pytest.mark.parametrize("p", [1.5, 0.7])
def test_panel_log_masses_match_mpmath(p):
    g = g_transform(power_log(p=p, q=0.5))
    g_mp = _mp_power_log_g(1, mpmath.mpf(p), mpmath.mpf(0.5))
    for edges in ([9.5, 10.25, 11.0], [199.0, 200.5, 215.0], [2000.0, 2003.0, 2019.5],
                  [3980.0, 3999.25]):
        got = _log_s_panels(g, np.array(edges))
        assert np.max(np.abs(got - _mp_log_mass(g_mp, edges))) <= 1e-12


def test_panel_log_mass_across_a_pointwise_min_crossing():
    # g1 = 2u and g2 = 5 + u cross at u = 5, where min(g1, g2) has a kink
    g1 = g_transform(power_log(p=2.0))
    g2 = g_transform(power_log(scale=math.exp(-5.0), p=1.0))
    tc = math.log(math.exp(5.0) - math.e)
    edges = [tc - 1.3, tc + 0.7]
    got = _log_s_panels(pointwise_min(g1, g2), np.array(edges))

    def g_mp(r):
        u = mpmath.log(mpmath.exp(r) + mpmath.e)
        return min(2 * u, 5 + u)

    with mpmath.workdps(30):
        crossing = mpmath.log(mpmath.exp(5) - mpmath.e)
    assert abs(got[0] - _mp_log_mass(g_mp, edges, [crossing])[0]) <= 1e-12


def test_elementary_S_up_keeps_its_digits_at_small_x():
    # the q = 0 and p = 1 closed forms hold u - 1 with u = log(x + e), which
    # cancels at small x: S(power_log(p=1), 1e-17) used to be 0.0
    ss = np.concatenate([[math.log(5e-324), -700.0, -40.0, -39.0, -38.5],
                         np.linspace(-30.0, 1.0, 12)])
    for p, q in ((0.95, 0.0), (0.3, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 0.5), (1.0, -0.7)):
        got = log_S_grid(power_log(scale=1.7, p=p, q=q), ss)
        with mpmath.workdps(30):
            for s, val in zip(ss, got):
                mass = mpmath.quad(lambda y: 1.7 * (y + E) ** -p * mpmath.log(y + E) ** -q,
                                   [0, mpmath.exp(float(s))])
                want = float(mpmath.log(mass))
                assert abs(val - want) <= 1e-13 * max(1.0, abs(want)), (p, q, s)
    assert S(power_log(p=1), 1e-17) == pytest.approx(1e-17 / E, rel=1e-15)
    assert mu_over_S(power_log(p=1), 1e-20) == pytest.approx(1.0, rel=1e-15)


def test_non_finite_points_are_rejected():
    # a nan point used to come back as data: S 0.0, log S -inf or nan
    for mu in (power_log(p=0.5, q=0.5), power_log(p=1.5), panel_twin(power_log(p=1.5, q=0.5)),
               step_mu([0, 1, 2], [2.0, 1.0])):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFinite):
                log_S(mu, bad)
            with pytest.raises(NonFinite):
                mu_mass(mu, 0.0, bad)
        for call in (lambda: S(mu, math.nan), lambda: S(mu, math.inf),
                     lambda: s_ratio(mu, 2.0, math.nan), lambda: s_ratio(mu, math.nan, 1.5),
                     lambda: mu_over_S(mu, math.nan), lambda: mu_mass(mu, math.nan, 1.0)):
            with pytest.raises(NonFinite):
                call()


def test_mu_mass_without_jumps_matches_quadrature():
    # the march from x = 0 below the first edge, panels in s = log x above it
    for mu in [power_log(p=1.5, q=0.5), power_log(p=0.5, q=1.0)]:
        for x1, x2 in [(0.0, 0.4), (0.3, 50.0), (2.0, 1e4)]:
            want, _ = quad(lambda y: float(mu(y)), x1, x2, epsrel=1e-13, epsabs=0.0, limit=400)
            assert mu_mass(mu, x1, x2) == pytest.approx(want, rel=1e-11)


def test_log_S_grid_on_one_point_and_empty_panels():
    mu = power_log(p=0.5, q=1.0)
    ss = np.array([3.0, 3.0, 7.5])
    vals = log_S_grid(mu, ss)
    assert vals[0] == vals[1] and vals[2] > vals[1]
    assert log_S_grid(mu, ss[:1])[0] == vals[0] == log_S(mu, 3.0)


def test_log_S_grid_rejects_a_descending_grid():
    # the quadrature path and the closed-form path alike
    for mu in (panel_twin(power_log(p=1.5, q=0.5)), power_log(p=1.5, q=0.5),
               step_mu([0, 1, 2], [2.0, 1.0])):
        with pytest.raises(ValueError, match="ascending"):
            log_S_grid(mu, np.array([3.0, 2.0, 1.0]))


def test_slow_tail_raises_instead_of_truncating():
    # p = 1.002: the tail integral still grows by e^-8 per 4000 in s, so a
    # 200-panel cap used to return a partial sum (9.197910 against 9.199025).
    # The march runs on in doubling panels to the full sum, e^((1 - p) u) u^(-q)
    # over u > log(x + e): (p - 1)^(q - 1) Gamma(1 - q, (p - 1) u), which the
    # power-log itself reads from its closed form
    for p, q in ((1.002, -0.5), (1.004, 0.5), (1.00390625, 1.0)):
        mu, twin = power_log(p=p, q=q), panel_twin(power_log(p=p, q=q))
        want = mp_log_S(mu, 10.0)
        assert log_S(twin, 10.0) == pytest.approx(want, rel=1e-13)
        np.testing.assert_allclose(log_S_grid(twin, np.array([10.0, 11.0]))[0], want, rtol=1e-13)
        for got in (log_S(mu, 10.0), log_S_grid(mu, np.array([10.0, 11.0]))[0]):
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_tail_still_growing_at_the_last_edge_raises():
    # trace class, but e^(s - g(s)) decays only like s^(-3/2): no panel adds
    # less than e^-34 of the sum before s = 2^52, where floats are 1 apart and
    # s - g(s) is only rounding, so S raises there and names the last edge
    mu = g_inverse(pointwise_min(g_transform(power_log(p=2, q=0.5)),
                                 g_transform(power_log(p=1, q=1.5))))
    with pytest.raises(QuadratureUnconverged, match="still grows at s = ") as info:
        S(mu, 10.0)
    last = float(str(info.value).rsplit("= ", 1)[1])
    assert 2.0 ** 51 < last <= 2.0 ** 52


def _quad_pieces(f, a, b, cuts):
    """scipy quad over [a, b] in pieces of width <= 20, split at the cuts."""
    pts = sorted({a, b, *np.arange(a, b, 20.0)[1:].tolist(), *(c for c in cuts if a < c < b)})
    return math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in zip(pts, pts[1:]))


def test_log_S_grid_across_pointwise_min_kinks():
    # min(g1, g2) of two power-logs crossing at s* in [5, 150]: g1 below s*,
    # g2 (the slower side, which sets the branch) above, so g's slope drops
    # by up to 3 there.  Grids straddle s* (window panels) or lie above it
    # (prefix panels on the up branch) or below it (tail panels on the down one)
    rng = np.random.default_rng(7)
    for i in range(144):
        up = i % 2 == 0
        p2 = rng.uniform(0.5, 0.8) if up else rng.uniform(1.3, 2.0)
        p1, q1, q2 = p2 + rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        st = rng.uniform(5.0, 150.0)
        ut = math.log(math.exp(st) + E)
        log_scale2 = -(p1 - p2) * ut - (q1 - q2) * math.log(ut)
        mu = g_inverse(pointwise_min(
            g_transform(power_log(p=p1, q=q1)),
            g_transform(power_log(scale=math.exp(log_scale2), p=p2, q=q2))))
        place = (i // 2) % 3
        if place == 0:
            lo, hi = st - rng.uniform(1.0, 80.0), st + rng.uniform(1.0, 80.0)
        elif place == 1:
            lo = st + rng.uniform(0.5, 40.0)
            hi = lo + rng.uniform(1.0, 40.0)
        else:
            hi = st - rng.uniform(0.5, min(40.0, st - 1.0))
            lo = hi - rng.uniform(1.0, 40.0)
        ss = np.linspace(max(lo, 0.0), hi, (50, 200, 800)[(i // 6) % 3])
        got = log_S_grid(mu, ss)

        def f(r):
            u = math.log(math.exp(r) + E)
            g = min(p1 * u + q1 * math.log(u), p2 * u + q2 * math.log(u) - log_scale2)
            return math.exp(r - g)

        for k in (0, len(ss) // 2, len(ss) - 1):
            s = float(ss[k])
            if up:
                head, _ = quad(lambda x: float(mu(x)), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
                want = math.log(head + _quad_pieces(f, 0.0, s, [st]))
            else:
                want = math.log(_quad_pieces(f, s, s + 60.0 / (p2 - 1.0), [st]))
            assert abs(got[k] - want) <= 1e-12 * max(1.0, abs(want)), (i, s)


def test_classify_across_a_pure_power_cap_kink():
    # g's slope jumps from 0 to 2.6 at the cap near s = 0.397, where the
    # pointwise min still follows pure_power; the p = 1 side wins far out
    g = pointwise_min(
        g_transform(pure_power(p=2.6052500974237036, scale=4.704950009066704,
                               cap=1.672890310046364)),
        g_transform(power_log(scale=1.0094676907289473, p=1, q=0.6597825237141081)))
    assert classify(g).traceable is True


# ---------------------------------------------------------------------------
# closed forms of power_log off p = 1 (incomplete gamma down, anchored
# asymptotic antiderivative up) against mpmath


def _random_power_logs(rng, n, up):
    """n power-logs on one branch, q in [-p, 4] with the integers 1, 2, 3 among them."""
    fams = []
    for i in range(n):
        p = rng.uniform(0.0, 0.98) if up else 1.0 + 10 ** rng.uniform(-3.0, math.log10(3.0))
        q = float(i % 4) if i % 4 else rng.uniform(-p, 4.0)
        if q == 0.0 or (p == 0.0 and q <= 0):
            q = 0.5
        fams.append(PowerLog(scale=rng.uniform(0.5, 2.0), p=p, q=q))
    return fams


def test_power_log_down_closed_form_matches_mpmath():
    rng = np.random.default_rng(5)
    for fam in _random_power_logs(rng, 24, up=False):
        # from z = (p - 1) u < 1 (the series) to the far windows (the fraction)
        ss = np.sort(np.concatenate([[-3.0, 0.0], rng.uniform(0.5, 60.0, 3),
                                     rng.uniform(100.0, 4100.0, 3)]))
        assert fam.log_S_down(ss) is not None
        assert_log_S_matches_mpmath(EigenvalueFunction(fam), ss)
        zero_d = fam.log_S_down(np.asarray(ss[3]))
        assert np.shape(zero_d) == () and zero_d == fam.log_S_down(ss)[3]
    assert (PowerLog(p=1.001, q=2.0).log_S_down(np.array([0.0])) < 7.0)  # z < 1


def test_power_log_up_closed_form_matches_mpmath():
    rng = np.random.default_rng(6)
    for fam in _random_power_logs(rng, 12, up=True):
        z1 = fam._up_anchor[0]
        s1 = z1 / (1 - fam.p) * (1 + 1e-12)  # u >= s, so z >= z1 from here on
        ss = np.sort(np.concatenate([[s1], s1 + rng.uniform(0.0, 40.0, 2),
                                     s1 + rng.uniform(100.0, 4000.0, 2)]))
        assert fam.log_S_up(ss) is not None
        assert_log_S_matches_mpmath(EigenvalueFunction(fam), ss)
        zero_d = fam.log_S_up(np.asarray(ss[1]))
        assert np.shape(zero_d) == () and zero_d == fam.log_S_up(ss)[1]
        # one point below the certified range sends the whole call to panels
        assert fam.log_S_up(np.concatenate([[0.5 * s1], ss])) is None


def test_power_log_closed_forms_reach_views_and_sampled_tails():
    for base in (power_log(1.3, 1.5, 0.5), power_log(0.8, 2.2, -1.2), power_log(1.2, 0.6, 1.5)):
        s0 = 10.0 if base.family.p > 1 else 200.0
        ss = s0 + np.array([0.0, 7.5, 300.0])
        for mu in (dilate(base, 3.0), dilate(base, 0.25),
                   g_inverse(shift(g_transform(base), 1.5, -0.7))):
            assert_log_S_matches_mpmath(mu, ss)
    # a sampled head with a down-branch power-log tail: past the samples S is
    # the tail's, before them the samples' mass plus the tail's S at their end
    tail = PowerLog(scale=0.4, p=1.7, q=0.8)
    mu = sampled([0.0, 1.0, 2.0], [1.0, 0.5, 0.3], tail=tail)
    end = math.log(2.0)
    ss = np.array([-1.0, 0.3, end, 3.0, 600.0])
    got = log_S_grid(mu, ss)
    for s, val in zip(ss, got):
        x = math.exp(s)
        tail_at = mp_log_S(EigenvalueFunction(tail), max(s, end))
        head = max(1.0 - x, 0.0) + 0.5 * (2.0 - max(x, 1.0)) if x < 2.0 else 0.0
        want = float(mpmath.log(head + mpmath.exp(tail_at)))
        assert abs(val - want) <= 1e-13 * max(1.0, abs(want)), (s, val, want)


def test_power_log_closed_forms_agree_with_the_panel_twin_on_window_grids():
    # the grids classify reads: four dyadic windows below s = 4000, and the
    # same shifted by log 2 for the ratio criterion
    ss = np.concatenate([np.linspace(4000.0 * 2.0 ** -(j + 1), 4000.0 * 2.0 ** -j, 800)
                         for j in range(4)][::-1])
    for p, q in ((1.5, 0.5), (1.45, -0.5), (2.5, 3.0), (1.05, 2.0), (0.7, 0.5), (0.3, -0.2)):
        mu = power_log(1.3, p, q)
        for grid in (ss, ss + math.log(2.0)):
            closed = log_S_grid(mu, grid)
            panels = log_S_grid(panel_twin(mu), grid)
            assert np.all(np.abs(closed - panels) <= 4e-15 * np.maximum(1.0, np.abs(closed)))
