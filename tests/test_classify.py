import importlib

import mpmath
import numpy as np
import pytest

from singtrace.classify import (
    classify,
    dichotomy,
    traceable_by_indices,
    traceable_by_liminf,
    traceable_by_ratio,
)
from singtrace.errors import NotApplicable
from singtrace.functions import (
    PowerLog,
    exponential,
    g_inverse,
    g_step,
    g_transform,
    pointwise_min,
    power_log,
    pure_power,
    sampled,
    step_mu,
)
from singtrace.integral import log_S
from singtrace.staircase import construct_dominator, construct_vanisher

TRACEABLE = {
    "power_p1": True,
    "powerlog_qm1": True,
    "powerlog_q0": True,
    "powerlog_q2": True,
    "pure_power_p1": True,
    "power_p0.25": False,
    "power_p0.5": False,
    "power_p2": False,
    "power_p4": False,
    "exponential": False,
}


@pytest.fixture(scope="module")
def staircases():
    line = g_transform(pure_power(p=1))
    return [
        ("vanisher", construct_vanisher(line, 40).g()),
        ("dominator", construct_dominator(line, 40).g()),
    ]


# ---------------------------------------------------------------------------
# single criteria


def test_indices_criterion_examples():
    assert traceable_by_indices(power_log(p=1)).traceable is True
    assert traceable_by_indices(power_log(p=2)).traceable is False
    assert traceable_by_indices(power_log(p=0.5)).traceable is False
    assert traceable_by_indices(exponential(1.0)).traceable is False
    assert traceable_by_indices(power_log(p=0, q=2)).traceable is False


def test_indices_criterion_staircase(staircases):
    for name, g in staircases:
        v = traceable_by_indices(g)
        assert v.traceable is True, name
        assert v.evidence["mode"] == "estimated"


def test_liminf_criterion_examples():
    assert traceable_by_liminf(power_log(p=1)).traceable is True
    assert traceable_by_liminf(power_log(p=2)).traceable is False
    assert traceable_by_liminf(exponential(1.0)).traceable is False


def test_ratio_criterion_examples():
    assert traceable_by_ratio(power_log(p=1), 2.0).traceable is True
    assert traceable_by_ratio(power_log(p=2), 2.0).traceable is False
    assert traceable_by_ratio(exponential(1.0), 2.0).traceable is False


def test_ratio_lambda_independence(symbolic_suite, staircases):
    for name, fn in list(symbolic_suite) + list(staircases):
        verdicts = {
            lam: traceable_by_ratio(fn, lam).traceable for lam in (1.5, 2.0, 4.0)
        }
        decided = {v for v in verdicts.values() if v is not None}
        assert len(decided) <= 1, (name, verdicts)
        if name in TRACEABLE:
            assert decided == {TRACEABLE[name]}, (name, verdicts)


def test_criteria_on_suite_match_expectations(symbolic_suite):
    for name, mu in symbolic_suite:
        want = TRACEABLE[name]
        assert traceable_by_indices(mu).traceable is want, name
        assert traceable_by_liminf(mu).traceable is want, name
        assert traceable_by_ratio(mu).traceable is want, name


def test_criteria_on_staircases(staircases):
    for name, g in staircases:
        assert traceable_by_liminf(g).traceable is True, name
        assert traceable_by_ratio(g).traceable is True, name


def test_finite_rank_short_circuits(finite_rank_steps):
    for name, mu in finite_rank_steps:
        for crit in (traceable_by_indices, traceable_by_liminf, traceable_by_ratio):
            v = crit(mu)
            assert v.traceable is False, (name, crit.__name__)
            assert "finite rank" in v.note


def test_sampled_without_tail_is_undecided_on_integral_criteria():
    xs = np.exp(np.linspace(0.0, 10.0, 300))
    mu = sampled(xs, 1.0 / xs)
    assert traceable_by_liminf(mu).traceable is None
    assert traceable_by_ratio(mu).traceable is None


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_sampled_with_power_tail_is_not_traceable(p):
    # past x = e^709 only the tail's own g stays finite
    mu = sampled([0, 1, 2, 3], [1, 0.5, 0.3, 0.2], tail=PowerLog(p=p))
    assert np.isfinite(g_transform(mu)(800.0))
    for crit in (traceable_by_indices, traceable_by_liminf, traceable_by_ratio):
        assert crit(mu).traceable is False, crit.__name__


# ---------------------------------------------------------------------------
# aggregation


def test_classify_p1():
    rep = classify(power_log(p=1))
    assert rep.trace_class.verdict == "not_trace_class"
    assert rep.regular is True and rep.delta == 1.0
    assert rep.traceable is True
    assert rep.agreement
    assert not rep.finite_rank


def test_classify_reads_the_indices_once(monkeypatch):
    # the package attribute singtrace.classify is the function, not the module
    classify_module = importlib.import_module("singtrace.classify")
    indices_module = importlib.import_module("singtrace.indices")

    calls = []
    real = indices_module.matuszewska

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classify_module, "matuszewska", counted)
    monkeypatch.setattr(indices_module, "matuszewska", counted)
    rep = classify(power_log(p=1))
    assert len(calls) == 1
    assert rep.regular is True and rep.delta == 1.0


def test_classify_computes_each_window_once(monkeypatch):
    classify_module = importlib.import_module("singtrace.classify")
    integral_module = importlib.import_module("singtrace.integral")
    calls = []
    real_grid = integral_module.log_S_grid
    real_tc = integral_module.is_trace_class

    def counted_grid(*args, **kwargs):
        calls.append("log_S_grid")
        return real_grid(*args, **kwargs)

    def counted_tc(*args, **kwargs):
        calls.append("is_trace_class")
        return real_tc(*args, **kwargs)

    line = g_transform(pure_power(p=1))
    # power_log(p=1) has no horizon: both criteria read one sample, log S on
    # all 4 windows from one call, and the ratio adds one call on the shifted
    # windows.  The dominator is trusted to t = 820, so its ratio windows end
    # log 2 earlier on a sample of their own.
    cases = [(power_log(p=1), 2), (construct_dominator(line, 40).g(), 3)]
    for fn, grids in cases:
        calls.clear()
        monkeypatch.setattr(classify_module, "log_S_grid", counted_grid)
        monkeypatch.setattr(classify_module, "is_trace_class", counted_tc)
        rep = classify(fn)
        monkeypatch.undo()
        assert calls.count("log_S_grid") == grids
        assert calls.count("is_trace_class") == 1
        # the shared sample gives exactly what each criterion finds alone
        alone_lim, alone_rat = traceable_by_liminf(fn), traceable_by_ratio(fn)
        assert rep.by_liminf == alone_lim and rep.by_ratio == alone_rat
        assert rep.by_liminf.evidence["window_minima"] == alone_lim.evidence["window_minima"]
        assert rep.by_ratio.evidence["window_minima"] == alone_rat.evidence["window_minima"]


def test_classify_exponential():
    rep = classify(exponential(1.0))
    assert rep.trace_class.verdict == "trace_class"
    assert rep.regular is True and rep.delta == 0.0
    assert rep.traceable is False
    assert rep.agreement


def test_classify_finite_rank_step():
    rep = classify(step_mu([0, 1, 2, 3], [3, 2, 1]))
    assert rep.trace_class.verdict == "trace_class"
    assert rep.finite_rank
    assert rep.traceable is False
    assert rep.agreement


def test_classify_agreement_across_suite(symbolic_suite, staircases, finite_rank_steps):
    for name, fn in list(symbolic_suite) + list(staircases) + list(finite_rank_steps):
        rep = classify(fn)
        assert rep.agreement, name


def test_classify_staircase_roundtrip(staircases):
    # classification of the mu-side view of the staircase
    for name, g in staircases:
        rep = classify(g_inverse(g))
        assert rep.by_indices.traceable is True, name
        assert rep.traceable is True, name


def test_near_critical_family_is_undecided_not_wrong():
    # index 1/p = 1.021: strictly not traceable, but the liminf quantity
    # transiently dips through ~1e-6 before settling at 1 - p = 0.021;
    # the window detectors must not convert that transient into "true"
    mu = power_log(scale=5.947, p=0.9794, q=3.543)
    assert traceable_by_indices(mu).traceable is False
    for crit in (traceable_by_liminf, traceable_by_ratio):
        assert crit(mu).traceable is not True
    assert classify(mu).agreement


def _panel_twin(mu):
    """min(g, g) of a profile: the same S, read through panels, as MinOf has no closed form."""
    return g_inverse(pointwise_min(g_transform(mu), g_transform(mu)))


def _log_S_down_mpmath(p, q, s):
    """log of (p - 1)^(q - 1) Gamma(1 - q, (p - 1) log(e^s + e)), the unit-scale down branch."""
    with mpmath.workdps(30):
        eps, u = mpmath.mpf(p) - 1, mpmath.log(mpmath.exp(s) + mpmath.e)
        return float(mpmath.log(eps ** (q - 1) * mpmath.gammainc(1 - q, eps * u)))


def _never_converging():
    """Trace class, but e^(s - g(s)) decays only like s^(-3/2) in s = log x (the
    p = 1, q = 1.5 side), so the tail gains more than e^-34 of itself on every
    panel up to s = 2^52, past which s - g(s) is only rounding."""
    return g_inverse(pointwise_min(g_transform(power_log(p=2, q=0.5)),
                                   g_transform(power_log(p=1, q=1.5))))


def test_unconverged_tail_leaves_the_tail_criteria_undecided():
    # log S on the windows needs a tail the march cannot finish; both
    # criteria used to read a truncated sum as "hit below theta"
    rep = classify(_never_converging())
    for v in (rep.by_liminf, rep.by_ratio):
        assert v.traceable is None and v.horizon_limited
        assert "the integral from s = 4000" in v.note and "still grows" in v.note
    # the exact indices (1, 1) still decide
    assert rep.by_indices.traceable is True and rep.traceable is True
    for p, q in ((1.002, -0.5), (1.004, 0.5)):
        # near-critical power-logs read their whole tail from the closed form,
        # and the window minima near |1 - p| do not make a hit
        mu = power_log(p=p, q=q)
        rep = classify(mu)
        assert rep.by_liminf.traceable is not True and rep.by_ratio.traceable is not True
        assert rep.traceable is False
        for s in (250.0, 1000.0, 4000.0):
            want = _log_S_down_mpmath(p, q, s)
            assert abs(log_S(mu, s) - want) <= 1e-13 * max(1.0, abs(want))


def test_failed_window_sample_is_computed_once(monkeypatch):
    # the liminf criterion's sample raises; the ratio criterion reads that
    # failure instead of marching over the same tail again
    integral_module = importlib.import_module("singtrace.integral")
    real_march = integral_module._march
    calls = []

    def counted_march(*args):
        calls.append(args)
        return real_march(*args)

    monkeypatch.setattr(integral_module, "_march", counted_march)
    rep = classify(_never_converging())
    assert len(calls) == 1
    assert rep.by_liminf.traceable is None and rep.by_ratio.traceable is None
    assert rep.by_liminf.note == rep.by_ratio.note and "still grows" in rep.by_ratio.note
    # a power-log takes no panels at all
    calls.clear()
    classify(power_log(p=1.002, q=-0.5))
    assert calls == []


def test_panel_twin_classifies_like_its_closed_form():
    # the twin min(g, g) has the power-log's S but reads it through panels;
    # with one march for every tail both read the same full tail, so every
    # criterion gives the same verdict and note, near-critical p included
    rng = np.random.default_rng(3)
    fams = [(1.0006, 0.5), (1.002, -0.5), (1.004, 0.5), (1.00390625, 1.0)]
    fams += [(1.0 + 10 ** rng.uniform(-3.3, 0.3), rng.uniform(-0.9, 4.0)) for _ in range(18)]
    for p, q in fams:
        want, got = classify(power_log(p=p, q=q)), classify(_panel_twin(power_log(p=p, q=q)))
        for v, w in zip(got.verdicts, want.verdicts):
            assert (v.traceable, v.note) == (w.traceable, w.note), (p, q, v.criterion)
            if v.criterion != "indices":
                np.testing.assert_allclose(v.evidence["window_minima"],
                                           w.evidence["window_minima"], rtol=1e-9)


def test_near_critical_power_logs_are_never_called_traceable():
    # Karamata: x mu(x)/S(x) -> |1 - p| > 0, so no power-log with p != 1 is
    # singularly traceable, however small |1 - p| sits below theta.  The
    # down branch (p > 1) reads closed forms, the up branch (1 - p < 0.03)
    # panels; the seeded scan found 21 wrong True verdicts with the old
    # "hit below theta in every window" rule and its capped tails
    rng = np.random.default_rng(11)
    for i in range(40):
        p = 1.0 + (1 if i % 2 else -1) * 10 ** rng.uniform(-3.0, -1.5)
        q = rng.uniform(-0.9, 4.0)
        rep = classify(power_log(scale=rng.uniform(0.5, 2.0), p=p, q=q))
        assert all(v.traceable is not True for v in rep.verdicts), (p, q)
        assert rep.traceable is False, (p, q)
        if p > 1:
            # the last window [2000, 4000] sits within q / 2000 of the limit
            m0 = rep.by_liminf.evidence["window_minima"][0]
            assert abs(m0 - (p - 1)) <= abs(q) / 2000.0, (p, q)


def test_near_critical_staircases_get_no_traceable_consensus():
    # estimated indices stay undecided this close to slope 1, so only the
    # tail criteria speak; slope 1 exactly is still traceable
    bp = np.arange(1.0, 3001.0)
    for slope, traceable in ((1.0, True), (1.004, None), (0.996, None)):
        rep = classify(g_step(bp, np.concatenate([[0.0], slope * bp]), integrable=slope > 1))
        assert rep.traceable is traceable, slope


def test_classify_pointwise_min_uses_the_slow_branch():
    from singtrace.functions import pointwise_min

    m = pointwise_min(g_transform(power_log(p=2)), g_transform(power_log(p=1, q=1)))
    rep = classify(m)
    assert rep.delta == 1.0
    assert rep.traceable is True and rep.agreement


def test_monotone_consistency(symbolic_suite):
    # delta_upper < 1 forces trace class; delta_lower > 1 forbids it
    from singtrace.indices import matuszewska
    from singtrace.integral import is_trace_class

    for name, mu in symbolic_suite:
        rep = matuszewska(mu)
        tc = is_trace_class(mu)
        if rep.delta_upper < 1.0:
            assert tc.verdict == "trace_class", name
        if rep.delta_lower > 1.0:
            assert tc.verdict == "not_trace_class", name


# ---------------------------------------------------------------------------
# the dichotomy


def test_dichotomy_infinite_case():
    res = dichotomy(power_log(p=0.5), power_log(p=1))
    assert res.outcome == "infinite"
    assert res.ideal_decision.verdict == "non_member"


def test_dichotomy_zero_case():
    res = dichotomy(power_log(p=2), power_log(p=1))
    assert res.outcome == "zero"
    assert res.kernel_decision.verdict == "member"


def test_dichotomy_not_applicable_for_traceable_A():
    with pytest.raises(NotApplicable):
        dichotomy(power_log(p=1), power_log(p=1))


def test_dichotomy_not_applicable_for_wrong_B():
    with pytest.raises(NotApplicable):
        dichotomy(power_log(p=2), power_log(p=3))  # delta(B) = 1/3


def test_dichotomy_matches_ideal_decisions():
    from singtrace.ideals import in_kernel, in_principal_ideal

    b = power_log(p=1)
    gb = g_transform(b)
    for mu, want in [(power_log(p=0.25), "infinite"), (power_log(p=0.5), "infinite"),
                     (power_log(p=2), "zero"), (power_log(p=4), "zero"),
                     (exponential(1.0), "zero")]:
        res = dichotomy(mu, b)
        assert res.outcome == want
        ga = g_transform(mu)
        if want == "infinite":
            assert in_principal_ideal(ga, gb).verdict == "non_member"
        else:
            assert in_kernel(ga, gb).verdict == "member"
