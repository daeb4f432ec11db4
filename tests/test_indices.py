import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singtrace.errors import HorizonTooShort, NoWitnessOnHorizon, PreconditionFailed
from singtrace.functions import (
    dilate,
    exponential,
    g_step,
    g_transform,
    pointwise_min,
    power_log,
    pure_power,
    sampled,
    shift,
    step_mu,
)
from singtrace.indices import (
    EstimatorConfig,
    linear_bound_witness,
    is_regular,
    matuszewska,
    verify_linear_bound,
)

INF = math.inf


# ---------------------------------------------------------------------------
# exact mode


def test_exact_indices_power_family():
    for p in [0.25, 0.5, 1.0, 2.0, 4.0]:
        rep = matuszewska(power_log(p=p))
        assert rep.mode == "exact"
        assert rep.indices == (1.0 / p, 1.0 / p)


def test_exact_indices_log_and_exponential():
    assert matuszewska(power_log(p=0, q=2)).indices == (INF, INF)
    assert matuszewska(exponential(1.0)).indices == (0.0, 0.0)
    assert matuszewska(pure_power(p=3)).indices == (1 / 3, 1 / 3)


def test_finite_rank_convention():
    rep = matuszewska(step_mu([0, 1, 2], [2.0, 1.0]))
    assert rep.finite_rank
    assert rep.indices == (0.0, 0.0)


# ---------------------------------------------------------------------------
# estimated mode


def test_estimated_matches_exact_for_powers():
    for p in [0.25, 0.5, 1.0, 2.0, 4.0]:
        rep = matuszewska(power_log(p=p), mode="estimated")
        assert rep.mode == "estimated"
        assert rep.delta_lower == pytest.approx(1.0 / p, abs=1e-2)
        assert rep.delta_upper == pytest.approx(1.0 / p, abs=1e-2)
        assert rep.delta_lower <= rep.delta_upper


def test_estimated_exponential_collapses_to_zero():
    rep = matuszewska(exponential(1.0), mode="estimated")
    assert rep.delta_lower <= 1e-6 and rep.delta_upper <= 1e-6


def test_estimated_respects_ordering_per_h_table():
    rep = matuszewska(power_log(p=1, q=2), mode="estimated")
    assert rep.delta_lower <= rep.delta_upper
    assert len(rep.per_h) == len(rep.config.h_grid)
    for h, sup, inf in rep.per_h:
        assert sup >= inf


def test_estimated_on_staircase_gstep():
    # jumps of growing size separated by growing flats: the scan must see
    # delta_lower small (large jump quotients) and delta_upper huge (flats)
    bps = [float(((n * (n + 1)) // 2) ** 2) for n in range(1, 41)]
    vals = [float((n * (n + 1)) // 2) for n in range(1, 41)]
    g = g_step(bps, [vals[0]] + vals, integrable=False)
    rep = matuszewska(g)
    assert rep.mode == "estimated"
    assert rep.delta_lower <= 0.1
    assert rep.delta_upper >= 10.0
    assert rep.horizon_limited


def test_sampled_without_tail_is_horizon_limited():
    xs = np.exp(np.linspace(0, 12, 400))
    mu = sampled(xs, 1.0 / xs)
    rep = matuszewska(mu)
    assert rep.horizon_limited
    assert rep.delta_lower == pytest.approx(1.0, abs=0.35)


def test_sampled_indices_equal_the_equivalent_g_step(seeded_samples):
    # the same steps written in s = log x give the same knot scan
    for grid, values in seeded_samples:
        twin = g_step(np.log(grid[1:]).tolist(), (-np.log(values)).tolist(),
                      horizon=math.log(grid[-1]))
        got, want = matuszewska(sampled(grid, values)), matuszewska(twin)
        assert len(got.per_h) == len(want.per_h) > 0
        for row, ref in zip(got.per_h, want.per_h):
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0.0)


def test_minimum_with_a_continuous_side_is_scanned_densely():
    # steps 10 k on [10 k - 8, 10 k + 2) under the line t + 3: the minimum
    # holds 10 k from t = 10 k - 3 and jumps to 10 k + 5 at 10 k + 2, so
    # g(t + 1) - g(t) nears 6 and (g(t + 2) - g(t)) / 2 nears 3.5 just before
    # each jump.  Its knots alone read 5 and 2.5, so delta_lower 0.4
    steps = g_step([2.0 + 10 * k for k in range(20)], [10.0 * k for k in range(21)],
                   horizon=200.0)
    m = pointwise_min(steps, shift(g_transform(pure_power(p=1.0)), 0.0, 3.0))
    assert m.knots_t == steps.knots_t and not m.family.piecewise_constant
    rep = matuszewska(m)
    (_, sup1, _), (_, sup2, _) = rep.per_h
    assert 5.9 < sup1 <= 6.0 and 3.45 < sup2 <= 3.5
    assert rep.delta_lower == pytest.approx(1.0 / 3.5, abs=0.005)
    # a minimum of two step sides is piecewise constant: scanned at its knots
    other = g_step([1.0, 50.0], [0.0, 5.0, 300.0], horizon=200.0)
    assert pointwise_min(steps, other).family.piecewise_constant


def test_horizon_too_short():
    xs = np.exp(np.linspace(0, 1.5, 40))
    mu = sampled(xs, 1.0 / xs)
    with pytest.raises(HorizonTooShort):
        matuszewska(mu)


def test_tail_window_with_too_few_increments():
    # the step side's horizon 2.15 leaves a window [1.07, 1.15] under h = 1's ten increments
    g = pointwise_min(g_step([1, 2], [0, 0.5, 3], horizon=2.15), g_transform(power_log(p=1.5)))
    with pytest.raises(HorizonTooShort, match="fewer than 10 increments"):
        matuszewska(g)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(h_grid=(2.0, 3.0))  # 3 not a multiple of 2
    with pytest.raises(ValueError):
        EstimatorConfig(h_grid=(1.0, 2.0, 32.0), horizon=40.0)  # 32 >= 20
    with pytest.raises(ValueError):
        EstimatorConfig(tail_fraction=1.5)
    cfg = EstimatorConfig(h_grid=(1.0, 4.0, 8.0), horizon=30.0)
    assert cfg.h_grid == (1.0, 4.0, 8.0)


# ---------------------------------------------------------------------------
# invariances


def test_shift_invariance_estimated():
    # exact for closed form families by construction; the estimated scan
    # drifts by at most the transient decay of the quotient, far below
    # 1e-6 for pure power decay
    for base in [power_log(p=1), power_log(p=0.5), exponential(1.0)]:
        g = g_transform(base)
        ref = matuszewska(g, mode="estimated")
        for a, b in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]:
            rep = matuszewska(shift(g, a, b), mode="estimated")
            assert rep.delta_lower == pytest.approx(ref.delta_lower, abs=1e-6)
            assert rep.delta_upper == pytest.approx(ref.delta_upper, abs=1e-6)


def test_shift_invariance_exact():
    g = g_transform(power_log(p=2, q=1))
    for a, b in [(3.0, -2.0), (-5.0, 4.0)]:
        assert matuszewska(shift(g, a, b)).indices == matuszewska(g).indices


def test_dilation_invariance():
    for lam in [0.5, 2.0, 10.0]:
        for mu in [power_log(p=0.5), power_log(p=2)]:
            assert matuszewska(dilate(mu, lam)).indices == matuszewska(mu).indices
            est = matuszewska(dilate(mu, lam), mode="estimated")
            ref = matuszewska(mu, mode="estimated")
            assert est.delta_lower == pytest.approx(ref.delta_lower, abs=1e-2)
            assert est.delta_upper == pytest.approx(ref.delta_upper, abs=1e-2)


def test_gap_quotient_consistency():
    # tail sup/inf of g(t)/t must straddle [1/delta_upper, 1/delta_lower]
    for mu, p in [(power_log(p=0.5), 0.5), (power_log(p=2), 2.0)]:
        g = g_transform(mu)
        ts = np.linspace(20, 40, 200)
        ratios = g.eval(ts) / ts
        assert np.max(ratios) <= 1.0 / matuszewska(mu).delta_lower + 0.05
        assert np.min(ratios) >= 1.0 / matuszewska(mu).delta_upper - 0.05


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.2, 4.0), q=st.floats(0.0, 3.0))
def test_delta_ordering_random_families(p, q):
    rep = matuszewska(power_log(p=p, q=q), mode="estimated")
    assert rep.delta_lower <= rep.delta_upper + 1e-12


# ---------------------------------------------------------------------------
# regularity


def test_is_regular_closed_forms():
    assert is_regular(power_log(p=1)) == (True, 1.0)
    assert is_regular(power_log(p=3)) == (True, pytest.approx(1 / 3))
    assert is_regular(exponential(2.0)) == (True, 0.0)
    assert is_regular(power_log(p=0, q=1))[0] is True


def test_staircase_is_not_regular():
    bps = [float(((n * (n + 1)) // 2) ** 2) for n in range(1, 41)]
    vals = [float((n * (n + 1)) // 2) for n in range(1, 41)]
    g = g_step(bps, [vals[0]] + vals, integrable=False)
    regular, delta = is_regular(g)
    assert regular is False and delta is None


# ---------------------------------------------------------------------------
# linear bound witnesses


def test_witness_case_upper():
    w = linear_bound_witness(power_log(p=0.5), eps=0.25)
    assert w.case == "upper" and w.c is not None
    assert verify_linear_bound(power_log(p=0.5), w)


def test_witness_case_lower():
    w = linear_bound_witness(power_log(p=2), eps=0.5)
    assert w.case == "lower" and w.c is not None
    assert verify_linear_bound(power_log(p=2), w)


def test_witness_case_two_sided():
    w = linear_bound_witness(power_log(p=1), eps=0.1)
    assert w.case == "two_sided" and w.c1 is not None and w.c2 is not None
    assert verify_linear_bound(power_log(p=1), w)


def test_witness_preconditions():
    with pytest.raises(PreconditionFailed):
        linear_bound_witness(power_log(p=0.5), eps=0.6)  # eps >= 1 - 1/2
    with pytest.raises(PreconditionFailed):
        linear_bound_witness(power_log(p=2), eps=1.2)  # eps >= 1/delta_upper - 1
    with pytest.raises(PreconditionFailed):
        linear_bound_witness(power_log(p=4), eps=-0.1)
    with pytest.raises(PreconditionFailed):
        # indices (2, 2): case upper applies but not two sided; eps too big
        linear_bound_witness(power_log(p=0.5), eps=0.5)


def test_witness_finite_rank_has_no_witness():
    with pytest.raises((NoWitnessOnHorizon, PreconditionFailed)):
        linear_bound_witness(step_mu([0, 1], [1.0]), eps=0.1)
