import json
import math
import struct
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singtrace.errors import (
    NegativeValue,
    NonFinite,
    NonpositiveLambda,
    NonpositiveWeight,
    NotInfinitesimal,
)
from singtrace.functions import (
    _ANCHOR_MAX,
    DistributionFunction,
    Family,
    GStep,
    PowerLog,
    SampledMu,
    SpectralData,
    StepMu,
    _anchor_z1,
    _below_sum,
    _certified_terms,
    _lower_side,
    dilate,
    exponential,
    g_inverse,
    g_step,
    g_transform,
    knot_grid,
    log_e_plus,
    logsubexp,
    pointwise_min,
    power_log,
    pure_power,
    rearrange,
    sampled,
    shift,
    step_mu,
)
from singtrace.ingest import ParseError, family_from_dict, family_to_dict
from singtrace.integral import mu_mass

E = math.e


def sorted_step_oracle(pairs):
    """Independent rearrangement oracle: sort values descending, stack weights."""
    items = sorted(((v, w) for v, w in pairs if v > 0), reverse=True)
    bps, vals = [0.0], []
    for v, w in items:
        if vals and vals[-1] == v:
            bps[-1] += w
        else:
            vals.append(v)
            bps.append(bps[-1] + w)
    return bps, vals


# ---------------------------------------------------------------------------
# rearrangement


def test_rearrange_three_values():
    mu = rearrange(SpectralData(((3, 1), (1, 1), (2, 1))))
    assert mu.family.breakpoints == (0.0, 1.0, 2.0, 3.0)
    assert mu.family.values == (3.0, 2.0, 1.0)
    # pointwise, including right-continuity at the breakpoints
    for x, want in [(0, 3), (0.5, 3), (1, 2), (1.5, 2), (2, 1), (2.9, 1), (3, 0), (10, 0)]:
        assert mu(x) == want


def test_rearrange_single_and_merge():
    mu = rearrange(SpectralData(((5, 2),)))
    assert mu.family.breakpoints == (0.0, 2.0)
    assert mu.family.values == (5.0,)
    mu2 = rearrange(SpectralData(((1, 1), (1, 1))))
    assert mu2.family.breakpoints == (0.0, 2.0)
    assert mu2.family.values == (1.0,)


def test_rearrange_empty_is_zero_profile():
    mu = rearrange(SpectralData(()))
    assert mu.finite_rank
    assert mu.rank == 0.0
    assert mu(0.0) == 0.0 and mu(5.0) == 0.0


def test_rearrange_rejects_bad_pairs():
    with pytest.raises(NegativeValue):
        SpectralData(((-1, 1),))
    with pytest.raises(NonpositiveWeight):
        SpectralData(((1, 0),))
    with pytest.raises(NonpositiveWeight):
        SpectralData(((1, -2),))


def test_rearrange_matches_quantile_formula():
    data = SpectralData(((3, 1.5), (0.5, 2), (3, 0.5), (7, 0.25)))
    mu = rearrange(data)
    lam = DistributionFunction(data)
    for t in [0.0, 0.1, 0.25, 0.3, 2.0, 2.2499, 2.25, 4.0, 4.25, 10.0]:
        assert mu(t) == lam.quantile(t)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0.01, 10, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_rearrange_random_spectra(pairs):
    data = SpectralData(tuple(pairs))
    mu = rearrange(data)
    bps, vals = sorted_step_oracle(pairs)
    assert list(mu.family.breakpoints) == pytest.approx(bps, abs=0)
    assert list(mu.family.values) == pytest.approx(vals, abs=0)
    # mass preservation and monotonicity
    assert mu.family.mass() == pytest.approx(data.mass(), rel=1e-12, abs=1e-12)
    xs = np.linspace(0, bps[-1] + 1, 37)
    ys = mu.eval(xs)
    assert np.all(np.diff(ys) <= 0)


# ---------------------------------------------------------------------------
# the g transform


def test_g_transform_exponential_closed_form():
    g = g_transform(exponential(1.0))
    for t in [-2.0, 0.0, 1.0, 3.0]:
        assert g(t) == pytest.approx(math.exp(t), rel=1e-14)


def test_g_transform_matches_numeric_definition():
    # spot-check the closed forms against -log mu(e^t) directly
    for mu in [power_log(p=1), power_log(p=2, q=1), power_log(scale=3, p=0.5), pure_power(p=1)]:
        g = g_transform(mu)
        for t in [0.0, 1.0, 10.0]:
            assert g(t) == pytest.approx(-math.log(mu(math.exp(t))), rel=1e-12)


def test_g_transform_of_step_is_g_step():
    mu = step_mu([0, 1, 2, 3], [3, 2, 1])
    g = g_transform(mu)
    assert g(-1.0) == pytest.approx(-math.log(3))
    assert g(0.0) == pytest.approx(-math.log(2))
    assert g(math.log(2)) == pytest.approx(0.0)
    assert g(0.5 * math.log(2)) == pytest.approx(-math.log(2))
    assert g(math.log(3)) == math.inf
    assert g(99.0) == math.inf


def test_g_inverse_closed_forms():
    # g(t) = e^t inverts to mu(x) = e^(-x)
    mu = g_inverse(g_transform(exponential(1.0)))
    for x in [0.0, 1.0, 7.5]:
        assert mu(x) == pytest.approx(math.exp(-x), rel=1e-14)
    # eventually infinite g gives a finite rank profile
    g = g_step([0.0, 1.0], [0.0, 0.5, math.inf])
    mu2 = g_inverse(g)
    assert mu2.finite_rank
    assert mu2(math.exp(1.0) + 1e-9) == 0.0
    # g(t) = max(0, t) inverts to min(1, 1/x)
    mu3 = g_inverse(g_transform(pure_power(p=1)))
    for x in [1.0, 2.0, 100.0]:
        assert mu3(x) == pytest.approx(1.0 / x, rel=1e-14)
    assert mu3(0.5) == 1.0


def test_g_inverse_rejects_constant_g():
    with pytest.raises(NotInfinitesimal):
        g_inverse(g_step([1.0], [2.0, 2.0]))


def test_round_trip_on_log_grid(symbolic_suite, x_grid):
    for name, mu in symbolic_suite:
        back = g_inverse(g_transform(mu))
        direct = mu.eval(x_grid)
        again = back.eval(x_grid)
        assert np.max(np.abs(direct - again)) <= 1e-12, name
        # consistency of the two coordinate views
        g = g_transform(mu)
        via_g = np.exp(-g.eval(np.log(x_grid)))
        assert np.max(np.abs(direct - via_g)) <= 1e-12, name


def test_g_transform_is_order_reversing(x_grid):
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.5, 2.0)
        mu_small = power_log(scale=c, p=p)
        mu_big = power_log(scale=c * rng.uniform(1.0, 5.0), p=p)
        assert np.all(mu_small.eval(x_grid) <= mu_big.eval(x_grid))
        gs = g_transform(mu_small).eval(np.log(x_grid))
        gb = g_transform(mu_big).eval(np.log(x_grid))
        assert np.all(gs >= gb - 1e-12)


# ---------------------------------------------------------------------------
# dilation and shifts


def test_dilate_identity_and_algebra(x_grid):
    mu = power_log(p=1)
    assert np.allclose(dilate(mu, 1.0).eval(x_grid), mu.eval(x_grid), rtol=0, atol=0)
    # D_2 mu(x) = 2 mu(2x)
    d2 = dilate(mu, 2.0)
    assert np.max(np.abs(d2.eval(x_grid) - 2.0 * mu.eval(2.0 * x_grid))) <= 1e-15


def test_dilate_group_law(x_grid):
    mu = power_log(p=0.5, q=1)
    one = dilate(dilate(mu, 2.0), 0.5)
    assert np.max(np.abs(one.eval(x_grid) - mu.eval(x_grid))) <= 1e-12
    a = dilate(dilate(mu, 2.0), 3.0)
    b = dilate(mu, 6.0)
    assert np.max(np.abs(a.eval(x_grid) - b.eval(x_grid))) <= 1e-12


def test_dilate_rejects_nonpositive():
    with pytest.raises(NonpositiveLambda):
        dilate(power_log(), 0.0)
    with pytest.raises(NonpositiveLambda):
        dilate(power_log(), -2.0)


def test_dilation_is_a_shift_in_g(x_grid):
    # g_{D_lam mu}(t) = -log lam + g_mu(t + log lam)
    ts = np.log(x_grid)
    for lam in [0.5, 2.0, 10.0]:
        mu = power_log(p=2, q=-1)
        lhs = g_transform(dilate(mu, lam)).eval(ts)
        rhs = -math.log(lam) + g_transform(mu).eval(ts + math.log(lam))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_shift_identity_and_composition():
    g = g_transform(pure_power(p=1))
    assert shift(g, 0.0, 0.0)(3.0) == g(3.0)
    # g(t) = max(0, t): shifting by a=1, b=2 gives 2 + max(0, t-1) = t+1 on t >= 1
    s = shift(g, 1.0, 2.0)
    for t in [1.0, 2.0, 5.0]:
        assert s(t) == pytest.approx(t + 1.0)
    both = shift(shift(g, 1.5, 0.0), 0.0, -2.0)
    direct = shift(g, 1.5, -2.0)
    for t in [-1.0, 0.0, 4.0]:
        assert both(t) == direct(t)


# ---------------------------------------------------------------------------
# pointwise minimum


def test_pointwise_min_basics():
    f = g_transform(power_log(p=1))
    m = pointwise_min(f, f)
    for t in [0.0, 2.0, 30.0]:
        assert m(t) == f(t)
    g = shift(f, 0.0, 5.0)  # f <= g everywhere
    assert pointwise_min(f, g)(4.0) == f(4.0)


def test_pointwise_min_crossing():
    # f(t) = max(0, t) and g(t) = max(-5, 2t - 5) cross at t = 5
    f = g_transform(pure_power(p=1))
    g = g_transform(pure_power(p=2, scale=math.exp(5), cap=math.exp(5)))
    m = pointwise_min(f, g)
    for t in np.linspace(0, 10, 41):
        want = min(max(0.0, t), max(-5.0, 2 * t - 5.0))
        assert m(float(t)) == pytest.approx(want, abs=1e-12)


def test_lower_side_certificate_is_sound():
    # seeded power-log pairs under one t shift a, with scales, p, q and b
    # drawn apart (and p or q shared in some): wherever the certificate names
    # a side, that side lies at or below the other, to rounding, on a dense
    # t grid that includes the extremum u* of their difference
    rng = np.random.default_rng(23)
    offsets = np.concatenate([np.linspace(-40.0, 10.0, 101), np.geomspace(10.0, 1e8, 200)])
    certified = 0
    for i in range(3000):
        a = rng.uniform(-5.0, 5.0)
        p = rng.uniform(0.01, 3.0, 2)
        if i % 5 == 0:
            p[1] = p[0]
        q = rng.uniform(np.maximum(-p, -1.0), 4.0)
        if i % 5 == 1:
            q[:] = max(q)
        left, right = (shift(g_transform(power_log(rng.uniform(0.2, 5.0), p[k], q[k])), a,
                             rng.uniform(-3.0, 3.0)) for k in range(2))
        lower = _lower_side(left, right)
        if lower is None:
            continue
        certified += 1
        t = a + offsets
        dp, dq = p[0] - p[1], q[0] - q[1]
        if dp and -dq / dp > 1:
            u = -dq / dp  # t at u*: log(e^u - e) past the shift
            t = np.append(t, a + u + math.log(-math.expm1(1.0 - u)))
        other = right if lower is left else left
        below, above = lower.eval(t), other.eval(t)
        assert np.all(below <= above + 1e-13 * np.maximum(1.0, np.abs(above))), i
    assert certified > 1000


def test_lower_side_certificate_refuses_what_it_cannot_order():
    f, g = g_transform(power_log(p=2.0, q=0.5)), g_transform(power_log(p=1.0, q=1.5))
    assert _lower_side(f, g) is g and _lower_side(g, f) is g
    assert _lower_side(f, f) is not None  # h = 0: either side is the minimum
    # unequal t shifts, and a side that is no power-log
    assert _lower_side(f, shift(g, 1.0, 0.0)) is None
    assert _lower_side(g_transform(power_log(p=2.0)), g_transform(pure_power(p=1.0))) is None
    # h = u - 3 log u + c has its least value 3 - 3 log 3 + c at u* = 3:
    # ordered just above zero, crossing just below
    c = 3.0 * math.log(3.0) - 3.0
    for eps, want in ((1e-9, True), (-1e-9, False)):
        f = g_transform(power_log(scale=math.exp(-(c + eps)), p=2.0, q=0.5))
        g = g_transform(power_log(p=1.0, q=3.5))
        assert (_lower_side(f, g) is g) is want and (_lower_side(g, f) is g) is want
    # pairs that cross, as in the panel tests of pointwise_min kinks
    rng = np.random.default_rng(7)
    for _ in range(50):
        p2 = rng.uniform(0.5, 2.0)
        p1, q1, q2 = p2 + rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        ut = math.log(math.exp(rng.uniform(5.0, 150.0)) + math.e)
        log_scale2 = -(p1 - p2) * ut - (q1 - q2) * math.log(ut)
        assert _lower_side(g_transform(power_log(p=p1, q=q1)),
                           g_transform(power_log(scale=math.exp(log_scale2), p=p2, q=q2))) is None


def test_anchor_z1_is_the_first_certified_rung_of_the_ladder():
    # the walk from the Stirling estimate stops where the linear ladder
    # 8, 10, 12, ... stops, with the same terms
    def ladder(q):
        z1 = 8.0
        while (terms := _certified_terms(q, z1)) is None:
            z1 += 2.0
            if z1 > _ANCHOR_MAX:
                return None
        return z1, terms

    rng = np.random.default_rng(19)
    qs = [*rng.uniform(-1.0, 4.0, 300), *range(-1, 5), 1e-12, -1e-12, 20.0, 100.0, 330.0, 400.0]
    for q in qs:
        assert _anchor_z1(float(q)) == ladder(float(q)), q
    assert _anchor_z1(400.0) is None


# ---------------------------------------------------------------------------
# family invariants


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.1, 5, allow_nan=False),
    q=st.floats(-0.05, 4, allow_nan=False),
    scale=st.floats(0.1, 10, allow_nan=False),
)
def test_power_log_monotone_and_infinitesimal(p, q, scale):
    if p + q < 0:
        return
    mu = power_log(scale=scale, p=p, q=q)
    xs = np.exp(np.linspace(-3, 25, 300))
    ys = mu.eval(xs)
    assert np.all(np.diff(ys) <= 1e-16)
    assert ys[-1] < 0.5 * ys[0]


def test_power_log_validation():
    with pytest.raises(ValueError):
        power_log(scale=-1)
    with pytest.raises(NotInfinitesimal):
        power_log(p=0, q=0)
    with pytest.raises(ValueError):
        power_log(p=1, q=-2)  # increases near 0


def test_gstep_validation():
    with pytest.raises(ValueError):
        GStep((1.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        GStep((1.0, 2.0), (0.0, 2.0, 1.0))  # decreasing
    g = GStep((1.0, 2.0), (0.0, 1.0, math.inf))
    assert g.finite_rank
    with pytest.raises(NonFinite):
        GStep((1.0, 2.0), (-math.inf, 1.0, 2.0))
    with pytest.raises(NonFinite):
        GStep((1.0, 2.0), (0.0, math.nan, 2.0))
    with pytest.raises(NonFinite):
        GStep((1.0, 2.0), (0.0, 1.0, 2.0), horizon=math.inf)


def test_gstep_rejects_a_constant_g():
    # a constant g is a profile that does not vanish; g = +inf everywhere is
    # the zero profile
    with pytest.raises(NotInfinitesimal):
        GStep((1.0, 60.0), (2.0, 2.0, 2.0), horizon=60.0)
    assert GStep((1.0,), (math.inf, math.inf)).finite_rank


def test_sampled_rejects_constant_samples_without_a_tail():
    # equal positive samples with no tail are mu = constant, which does not
    # vanish; all zeros is the zero profile, and a tail may still decay
    with pytest.raises(NotInfinitesimal):
        sampled([0.0, 1.0, 1e26], [1.0, 1.0, 1.0])
    assert sampled([1.0, 2.0], [0.0, 0.0]).finite_rank
    assert not sampled([1.0, 2.0], [1.0, 1.0], tail=PowerLog(p=2.0)).finite_rank


@pytest.mark.parametrize("tail", [power_log(p=1.5, q=0.5), "x"])
def test_sampled_rejects_a_tail_that_is_not_a_family(tail):
    # a profile view or a string has no g_inverse_point or growth profile of its own
    with pytest.raises(TypeError, match="must be a Family"):
        sampled([0, 0.5, 1, 2, 3], [1, 0.8, 0.5, 0.3, 0.2], tail=tail)


def test_step_mu_trims_zero_tail():
    fam = StepMu((0.0, 1.0, 2.0), (3.0, 0.0))
    assert fam.values == (3.0,)
    assert fam.rank == 1.0


def test_right_continuity_of_gstep():
    g = g_step([0.0, 2.0], [1.0, 4.0, 9.0])
    assert g(0.0) == 4.0
    assert g(-1e-12) == 1.0
    assert g(2.0) == 9.0


def test_wrapper_is_immutable():
    mu = power_log(p=1)
    with pytest.raises(Exception):
        mu.a = 3.0


# ---------------------------------------------------------------------------
# the family interface

FAMILIES = [
    ("power_log", power_log(scale=2.0, p=1.5, q=0.5)),
    ("exponential", exponential(0.7)),
    ("pure_power", pure_power(p=2.0, scale=3.0, cap=1.5)),
    ("step", step_mu([0, 1, 2.5], [4.0, 1.0])),
    ("g_step", g_step([-3.0, 1.0, 9.0, 800.0], [0.5, 1.0, 2.0, 3.0, 4.0], horizon=900.0)),
    ("sampled", sampled([0.0, 2.0, 4.0], [1.0, 0.5, 0.25], tail=PowerLog(p=2.0))),
    ("pointwise_min", pointwise_min(g_transform(power_log(p=2)), g_transform(exponential(1.0)))),
]


@pytest.mark.parametrize("name, fn", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_family_interface(name, fn):
    fam = fn.family
    assert isinstance(fam, Family)
    knots, edges = fam.knots_t(), fam.edges_x()
    assert (g_transform(fn).knots_t is not None) == (knots is not None) == (edges is not None)
    if knots is not None:
        # e^t overflows past t ~ 709, so x-space edges stop at t = 700
        from_knots = [math.exp(k) for k in knots if k < 700.0]
        positive = [e for e in edges if e > 0]
        assert len(from_knots) == len(positive)
        np.testing.assert_allclose(from_knots, positive, rtol=1e-12, atol=0.0)
    if name == "pointwise_min":
        with pytest.raises(ParseError):
            family_to_dict(fn)
        return
    text = json.dumps(family_to_dict(fn))
    assert json.dumps(family_to_dict(family_from_dict(json.loads(text)))) == text


def test_view_knots_follow_the_shift():
    g = shift(g_step([1.0, 3.0], [0.0, 1.0, 2.0]), 0.5, 0.0)
    assert g.knots_t == (1.5, 3.5)
    assert g.knots_in(1.0, 3.5) == [1.5, 3.5]
    assert g.knots_in(2.0, 3.0) == []
    smooth = g_transform(power_log(p=1))
    assert smooth.knots_t is None and smooth.knots_in(0.0, 10.0) == []


def test_sampled_rank_and_mass():
    # values[0] holds from x = 0, values[i] from grid[i] on
    fam = sampled([1.0, 2.0, 4.0], [1.0, 0.5, 0.0]).family
    assert (fam.rank, fam.mass()) == (4.0, 3.0)
    assert dilate(sampled([1.0, 2.0, 4.0], [1.0, 0.5, 0.0]), 2.0).rank == 2.0
    zero = sampled([1.0, 2.0], [0.0, 0.0]).family
    assert (zero.rank, zero.mass()) == (0.0, 0.0)
    # infinite rank leaves both unknown, with or without a tail model
    for fam in (sampled([1.0, 2.0], [1.0, 0.5]).family,
                sampled([1.0, 2.0], [1.0, 0.0], tail=PowerLog(p=2.0)).family):
        assert (fam.rank, fam.mass()) == (None, None)
    # a finite rank tail takes over at grid[-1]: mu = 1 on [0, 2), 0.1 on [2, 3)
    mu = sampled([1.0, 2.0], [1.0, 0.0], tail=StepMu((0.0, 3.0), (0.1,)))
    assert mu.family.edges_x() == (1.0, 2.0, 3.0)
    assert (mu.rank, mu.family.mass(), mu_mass(mu, 0.0, 10.0)) == (3.0, 2.1, 2.1)
    # a tail that vanishes before grid[-1] leaves mu zero from grid[-1] on
    fam = sampled([1.0, 4.0], [1.0, 1.0], tail=StepMu((0.0, 3.0), (0.1,))).family
    assert (fam.rank, fam.mass(), fam.edges_x()) == (4.0, 4.0, (1.0, 4.0))


def test_sampled_g_is_right_continuous_at_its_knots(seeded_samples):
    # g is looked up in s = log x, so the value at a knot is the one from it on
    fam = sampled([0, 3, 7, 10], [1, 0.5, 0.25, 0.1]).family
    assert fam.g(math.log(7)) == -math.log(0.25)
    for grid, values in seeded_samples:
        fam = sampled(grid, values).family
        knots = np.array(fam.knots_t())
        np.testing.assert_array_equal(fam.g(knots), fam.g(np.nextafter(knots, np.inf)))
        np.testing.assert_array_equal(fam.g(knots[1:] if grid[0] > 0 else knots),
                                      -np.log(values[1:]))


def test_shifted_step_knots_are_the_first_float_past_each_jump(seeded_samples):
    # eval looks up the family at t - a, which rounds, so k + a can sit an
    # ulp before the jump or past the first float after it
    rng = np.random.default_rng(200)
    # a knot shifted onto t = 0: every float within ulp(log 2)/2 of 0 looks up log 2
    halved = g_transform(dilate(step_mu([0.0, 2.0, 5.0], [2.0, 1.0]), 2.0))
    assert -np.spacing(math.log(2.0)) / 2 <= halved.knots_t[0] < 0.0
    views = [halved]
    for grid, values in seeded_samples:
        views.append(g_transform(dilate(sampled(grid, values), float(rng.uniform(0.3, 3.0)))))
        views.append(shift(g_step(grid, np.arange(len(grid) + 1.0)),
                           float(rng.uniform(-20.0, 20.0)), 1.0))
    for g in views:
        k, knots = np.array(g.family.knots_t()), np.array(g.knots_t)
        before, after = np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)
        assert np.all(knots - g.a >= k) and np.all(before - g.a < k)
        np.testing.assert_array_equal(g.eval(knots), g.eval(after))
        np.testing.assert_array_equal(g.eval(knots), g.b + g.family.g(k))
        np.testing.assert_array_equal(g.eval(before), g.b + g.family.g(np.nextafter(k, -np.inf)))


def test_shifted_g_step_inverse_point_is_the_first_float_past_the_jump():
    # the analytic inverse of a shifted g_step lands on the view's knot, not on
    # breakpoint + a, which can round back onto the old step
    rng = np.random.default_rng(1)
    answers = 0
    for _ in range(300):
        scale = rng.choice([1.0, 1e-3, 1e3])
        bps = scale * np.unique(rng.uniform(-30.0, 30.0, int(rng.integers(1, 12))))
        vals = np.cumsum(rng.uniform(0.5, 3.0, len(bps) + 1))
        a = float(rng.choice([-10.0, 10.0]) * rng.choice([1.0, 1e-3, 1e3]) * rng.uniform(0.5, 1.0))
        g = shift(g_step(bps, vals), a, float(rng.uniform(-5.0, 5.0)))
        for y in g.b + 0.5 * (vals[:-1] + vals[1:]):  # halfway between steps
            t = g.inverse_point(float(y))
            assert g(t) > y and g(np.nextafter(t, -math.inf)) <= y, (g, y, t)
            answers += 1
    assert answers > 1000


def _float_key(x):
    """Integers in the floats' order: the bit pattern, reflected below zero."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(1 << 63) - i


def _key_float(k):
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -(1 << 63) - k))[0]


def _below_sum_oracle(b, y):
    """The largest float v with b + v <= y, by bisection over the floats in order."""
    lo, hi = _float_key(-math.inf), _float_key(math.inf)  # true at -inf, false at inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if b + _key_float(mid) <= y else (lo, mid)
    return _key_float(lo)


def test_below_sum_matches_a_bisection_over_the_floats():
    rng = np.random.default_rng(43)
    top = sys.float_info.max

    def draw():
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))

    pairs = [(b, y) for b in (1.5, -1.5, 1e300, -1e300, top, -top) for y in (top, -top)]
    for i in range(12_000):
        b = draw()
        y = [draw(),  # unrelated magnitudes
             b * (1.0 + float(rng.normal()) * 10.0 ** rng.uniform(-17.0, -1.0)),  # y ~ b
             b + float(rng.integers(-4, 5)) * math.ulp(b),  # within ulps of b
             draw() * 1e-20 if abs(b) > 1e-280 else draw(),  # |b| >> |y| mostly
             ][i % 4]
        pairs.append((b, y))
    for b, y in pairs:
        assert _below_sum(b, y) == _below_sum_oracle(b, y), (b, y)


def test_g_at_plus_inf_is_never_nan():
    # +inf for an unbounded g, the last value for a step profile that stops
    # at a finite one; a power-log must form neither 0*log inf nor inf - inf
    tail = PowerLog(p=1.5, q=0.0)
    step = g_step([1.0, 2.0], [0.0, 0.5, 3.0], horizon=50.0)
    bases = [power_log(1.3, 1.0, 0.0), power_log(1.0, 1.0, -0.5), power_log(2.0, 0.0, 2.0),
             power_log(0.7, 1.5, 1.1), exponential(2.0), pure_power(1.5, 2.0, 0.5),
             step_mu([0.0, 1.0, 3.0], [2.0, 1.0]), step, g_step([1.0, 2.0], [0.0, 1.0, math.inf]),
             sampled([0.0, 1.0, 4.0], [1.0, 0.5, 0.2]), sampled([0.0, 1.0, 4.0], [1.0, 0.5, 0.0]),
             sampled([0.0, 1.0, 4.0], [1.0, 0.5, 0.2], tail=tail),
             sampled([0.0, 1.0, 4.0], [1.0, 0.5, 0.2], tail=PowerLog(p=1.0, q=-0.5)),
             pointwise_min(step, g_transform(power_log(p=1.5))),
             pointwise_min(g_transform(power_log(1.0, 1.0, -0.5)), g_transform(power_log(p=2.0))),
             pointwise_min(g_transform(sampled([0.0, 1.0], [1.0, 0.5], tail=tail)), step)]
    for base in bases:
        for g in (g_transform(base), shift(g_transform(base), 1.7, -0.3),
                  g_transform(dilate(g_inverse(base), 3.0))):
            with np.errstate(over="ignore"):
                want = g(sys.float_info.max) if g.horizon_t is not None else math.inf
            assert g(math.inf) == want, (g, g(math.inf))
            assert g.eval(np.array([0.0, math.inf]))[1] == want, g


def test_logsubexp_keeps_its_digits_near_equal_arguments():
    # log(1 - e^d) through expm1 above d = -log 2 and log1p below: log1p
    # alone lost 5e-10 at d = -1e-9
    a = math.log(3.0)
    d = np.concatenate([-np.logspace(-9.0, math.log10(700.0), 60), [-1e-6, -0.3, -1.0, -30.0]])
    b = a + d
    got = logsubexp(a, b)
    with mpmath.workdps(40):
        want = [float(mpmath.log(mpmath.exp(a) - mpmath.exp(mpmath.mpf(v)))) for v in b.tolist()]
    for g, w in zip(got.tolist(), want):
        # the sum a + log(1 - e^d) cancels near d = log(2/3): its terms set the scale
        assert abs(g - w) <= 2 * np.spacing(abs(a) + abs(w)), (g, w)
    assert logsubexp(a, a) == -np.inf and logsubexp(a, -np.inf) == a


def logsubexp_array_formula(a, b):
    """The elementwise formula on 0-d arrays, as every input took it before
    the scalar branch."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.minimum(b - a, 0.0)
        out = a + np.where(d > -math.log(2.0), np.log(-np.expm1(d)), np.log1p(-np.exp(d)))
        return np.where(b >= a, -np.inf, out)


def test_scalar_logsubexp_matches_the_array_formula():
    rng = np.random.default_rng(23)
    a = rng.uniform(-60.0, 60.0, 4000)
    b = a - np.exp(rng.uniform(-40.0, 7.0, 4000))  # both sides of d = -log 2
    inf, nan = math.inf, math.nan
    special = [(1.0, 1.0), (1.0, 2.0), (0.0, -0.0), (inf, 1.0), (inf, inf), (-inf, -inf),
               (1.0, -inf), (inf, -inf), (-inf, 1.0), (nan, 1.0), (1.0, nan), (nan, nan),
               (1.0, math.nextafter(1.0, 0.0)), (5e-324, 0.0), (-math.log(2.0), -2 * math.log(2.0))]
    pairs = list(zip(a.tolist(), b.tolist())) + special
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in pairs + [(np.float64(x), np.float64(y)) for x, y in special]:
            got, want = logsubexp(x, y), logsubexp_array_formula(x, y)
            assert type(got) is np.float64
            # a NaN matches a NaN; which NaN bits come out is not part of the contract
            assert got == want or (math.isnan(got) and math.isnan(want)), (x, y, got, want)
            assert math.isnan(got) or np.float64(got).tobytes() == want.tobytes()


def knot_grid_unique_formula(lo, hi, points, knots, offsets):
    ss = np.linspace(lo, hi, points)
    extra = [min(k + d, hi) for k in knots for d in offsets]
    if extra:
        ss = np.unique(np.concatenate([ss, np.array(extra)]))
    return ss


@pytest.mark.parametrize("offsets", [(0.0, 1e-9), (0.0, 1.0), (0.0, 1e-9, 1.0)])
def test_knot_grid_matches_the_unique_formula(offsets):
    rng = np.random.default_rng(29)
    for lo, hi, points in [(10.0, 40.0, 800), (20.0, 40.0, 1200), (1.0, 821.0, 4000),
                           (-3.0, 2.0, 7), (5.0, 5.0, 4)]:
        grid = np.linspace(lo, hi, points)
        inside = rng.uniform(lo, hi, 5).tolist()
        cases = [
            [],
            inside[:1],
            sorted(inside),
            inside[::-1],  # unsorted
            [lo - 3.0, lo - 1e-9, hi + 1e-9, hi + 5.0],  # outside [lo, hi]
            [inside[0], inside[0], inside[1], inside[0]],  # repeated knots
            [float(grid[1]), float(grid[points // 2]), float(grid[-2])],  # on grid points
            [lo, hi],
            [hi - 1e-9, hi - 0.5, lo + 1e-9],  # extras that land on other extras or on hi
            sorted(rng.uniform(lo - 2.0, hi + 2.0, 40).tolist()),
        ]
        for knots in cases:
            got = knot_grid(lo, hi, points, knots, offsets)
            want = knot_grid_unique_formula(lo, hi, points, knots, offsets)
            assert got.tobytes() == want.tobytes(), (lo, hi, points, knots)


def test_log_e_plus_is_logaddexp_bit_for_bit():
    rng = np.random.default_rng(41)
    n = 20_000
    edges = [np.nextafter(e, d) for e in (41.0, -39.0) for d in (-np.inf, np.inf)]
    t = np.concatenate([
        rng.normal(1.0, 30.0, n),
        rng.uniform(-60.0, 60.0, n),
        np.exp(rng.uniform(-50.0, 700.0, n)) * rng.choice([-1.0, 1.0], n),
        [41.0, -39.0, *edges, np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, 1e308, -1e308],
    ])
    rng.shuffle(t)
    far = np.abs(t - 1.0) >= 40.0
    with np.errstate(over="ignore", invalid="ignore"):
        for part in (t, t[far], t[~far]):
            np.testing.assert_array_equal(log_e_plus(part).view(np.int64),
                                          np.logaddexp(part, 1.0).view(np.int64))
        for v in (41.0, -39.0, *edges, 1.0, 300.0, -1e308, np.inf, -np.inf, np.nan):
            # the float path of scalar g, and the 0-d array path
            for x in (float(v), np.asarray(v)):
                got = np.float64(log_e_plus(x)).view(np.int64)
                assert got == np.logaddexp(v, 1.0).view(np.int64)


# ---------------------------------------------------------------------------
# scalar g and input validation

SCALAR_G_FAMILIES = [
    ("power_log", power_log(scale=2.0, p=1.5, q=0.5)),
    ("power_log_q0", power_log(scale=0.7, p=1.2)),
    ("power_log_negative_q", power_log(scale=1.3, p=1.4, q=-0.6)),
    ("power_log_p0", power_log(p=0.0, q=1.5)),
    ("exponential", exponential(0.7)),
    ("pure_power", pure_power(p=2.0, scale=3.0, cap=1.5)),
    ("step", step_mu([0, 1, 2.5], [4.0, 1.0])),
    ("g_step", g_step([-3.0, 1.0, 9.0, 800.0], [0.5, 1.0, 2.0, 3.0, 4.0], horizon=900.0)),
    ("sampled", sampled([0.0, 2.0, 4.0], [1.0, 0.5, 0.25])),
    ("sampled_tail", sampled([0.0, 2.0, 4.0], [1.0, 0.5, 0.25], tail=PowerLog(p=2.0))),
    ("pointwise_min", pointwise_min(g_transform(power_log(p=2)), g_transform(exponential(1.0)))),
]


@pytest.mark.parametrize("name, fn", SCALAR_G_FAMILIES, ids=[n for n, _ in SCALAR_G_FAMILIES])
def test_scalar_g_is_the_array_g_bit_for_bit(name, fn):
    # a float t takes Python float arithmetic where a family allows it, an
    # array numpy's: the same operations, so the same bits
    rng = np.random.default_rng(53)
    ts = [*rng.uniform(-60.0, 900.0, 200), *rng.normal(1.0, 45.0, 200)]
    for edge in (41.0, -39.0):  # where log_e_plus leaves logaddexp
        ts += [edge, float(np.nextafter(edge, -np.inf)), float(np.nextafter(edge, np.inf))]
    base = g_transform(fn)
    for g in (base, shift(base, 0.37, -1.25), g_transform(dilate(g_inverse(base), 2.5))):
        knots = list(g.knots_t or ())
        for t in ts + knots + [float(np.nextafter(k, -np.inf)) for k in knots]:
            got, want = g(float(t)), g.eval(np.array([t]))[0]
            assert struct.pack("<d", got) == struct.pack("<d", want), (name, t, got, want)


INVALID_FAMILY_INPUTS = [
    (lambda: StepMu((0.0, 1.0, math.nan), (2.0, 1.0)), NonFinite,
     "step breakpoints and values must be finite, got nan"),
    (lambda: StepMu((0.0, 1.0, 2.0), (2.0, -math.inf)), NonFinite,
     "step breakpoints and values must be finite, got -inf"),
    (lambda: StepMu((), ()), ValueError, "breakpoints must start at 0"),
    (lambda: StepMu((0.5, 1.0), (1.0,)), ValueError, "breakpoints must start at 0"),
    (lambda: StepMu((0.0, 2.0, 2.0), (2.0, 1.0)), ValueError, "breakpoints must increase strictly"),
    (lambda: StepMu((0.0, 1.0), (2.0, 1.0)), ValueError, "need one value per bounded piece"),
    (lambda: StepMu((0.0, 1.0, 2.0), (1.0, -0.5)), NegativeValue,
     "step values must be nonnegative"),
    (lambda: StepMu((0.0, 1.0, 2.0), (1.0, 2.0)), ValueError, "step values must be non-increasing"),
    (lambda: GStep((1.0, math.inf), (0.0, 1.0, 2.0)), NonFinite,
     "g step breakpoints must be finite, got inf"),
    (lambda: GStep((1.0, 2.0), (0.0, math.nan, math.inf)), NonFinite,
     "g step values must be finite, got nan"),
    (lambda: GStep((1.0, 2.0), (-math.inf, 1.0, 2.0)), NonFinite,
     "g step values must be finite, got -inf"),
    (lambda: GStep((1.0,), (0.0, 1.0), horizon=math.inf), NonFinite,
     "g step horizon must be finite, got inf"),
    (lambda: GStep((), (1.0,)), ValueError, "need at least one breakpoint"),
    (lambda: GStep((2.0, 1.0), (0.0, 1.0, 2.0)), ValueError, "breakpoints must increase strictly"),
    (lambda: GStep((1.0, 2.0), (0.0, 1.0)), ValueError, "need len(breakpoints) + 1 values"),
    (lambda: GStep((1.0, 2.0), (0.0, 2.0, 1.0)), ValueError, "values must be non-decreasing"),
    (lambda: GStep((1.0, 2.0), (2.0, 2.0, 2.0)), NotInfinitesimal,
     "constant g gives a non-vanishing profile"),
    (lambda: SampledMu((0.0, math.inf), (1.0, 0.5)), NonFinite,
     "sample grid and values must be finite, got inf"),
    (lambda: SampledMu((0.0, 1.0), (1.0,)), ValueError,
     "need matching grid/values with at least 2 samples"),
    (lambda: SampledMu((0.0,), (1.0,)), ValueError,
     "need matching grid/values with at least 2 samples"),
    (lambda: SampledMu((-1.0, 1.0), (1.0, 0.5)), ValueError,
     "grid must be nonnegative and strictly increasing"),
    (lambda: SampledMu((0.0, 1.0, 1.0), (1.0, 0.5, 0.2)), ValueError,
     "grid must be nonnegative and strictly increasing"),
    (lambda: SampledMu((0.0, 1.0), (1.0, -0.5)), NegativeValue, "sample values must be nonnegative"),
    (lambda: SampledMu((0.0, 1.0), (0.5, 1.0)), ValueError, "sample values must be non-increasing"),
    (lambda: SampledMu((0.0, 1.0), (1.0, 0.5), tail=2.0), TypeError,
     "a sampled tail must be a Family, got <class 'float'>"),
    (lambda: SampledMu((0.0, 1.0), (1.0, 1.0)), NotInfinitesimal,
     "constant samples give a non-vanishing profile"),
]


@pytest.mark.parametrize("make, exc, message", INVALID_FAMILY_INPUTS,
                         ids=[f"{i}-{e.__name__}" for i, (_, e, _) in enumerate(INVALID_FAMILY_INPUTS)])
def test_invalid_family_inputs_keep_their_typed_errors(make, exc, message):
    # the first failing check in the documented order names the input
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message


def test_step_knots_are_the_log_of_the_positive_edges(seeded_samples):
    for grid, values in seeded_samples:
        for fam in (sampled(grid, values).family,
                    sampled(grid, values, tail=StepMu((0.0, 2.0 * grid[-1]), (1e-9,))).family):
            edges = fam.edges_x()
            assert fam.knots_t() == tuple(np.log([e for e in edges if e > 0]).tolist())
