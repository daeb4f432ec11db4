import dataclasses
import importlib
import math

import mpmath
import numpy as np
import pytest

from singtrace.classify import (
    CRIT_LIMINF,
    TraceabilityVerdict,
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
    knot_grid,
    pointwise_min,
    power_log,
    pure_power,
    sampled,
    shift,
    step_mu,
)
from singtrace.integral import log_S, log_S_grid
from singtrace.staircase import construct_dominator, construct_vanisher

from panel_twin import branch_twin, panel_twin, window_twin

# the package attribute singtrace.classify is the function, not the module
classify_module = importlib.import_module("singtrace.classify")

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


def test_sampled_tail_brings_its_growth_profile():
    # past grid[-1] g is the tail's g: exact indices, and an exact ideal decision
    from singtrace.ideals import in_principal_ideal

    mu = sampled([0, 1, 2, 3], [1.0, 0.5, 0.3, 0.2], tail=PowerLog(p=1))
    rep = classify(mu)
    assert rep.indices_report.mode == "exact"
    assert rep.indices_report.indices == (1.0, 1.0)
    assert rep.by_indices.traceable is True
    dec = in_principal_ideal(mu, power_log(p=1))
    assert dec.verdict == "member" and dec.mode == "exact"


def test_sampled_without_tail_is_undecided_on_integral_criteria():
    xs = np.exp(np.linspace(0.0, 10.0, 300))
    mu = sampled(xs, 1.0 / xs)
    assert traceable_by_liminf(mu).traceable is None
    assert traceable_by_ratio(mu).traceable is None


def test_horizon_below_the_dyadic_windows_leaves_the_tail_criteria_undecided():
    # g is trusted only to t = 3, short of the windows the tail criteria read
    rep = classify(g_inverse(g_step([1, 2], [0, 1, 2.5], horizon=3, integrable=False)))
    for verdict in (rep.by_liminf, rep.by_ratio):
        assert verdict.traceable is None and verdict.horizon_limited
        assert verdict.note == "horizon too short for dyadic windows"


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
    # power_log(p=1) has no horizon: both criteria read one sample of its
    # window twin, log S on all 4 windows from one call, and the ratio adds
    # one call on the shifted windows.  The dominator is trusted to t = 820,
    # so its ratio windows end log 2 earlier on a sample of their own.  With
    # its growth profile, power_log(p=1) takes no window sample at all.
    cases = [(window_twin(power_log(p=1)), 2), (construct_dominator(line, 40).g(), 3),
             (power_log(p=1), 0)]
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
        if grids == 0:
            assert rep.by_liminf.evidence == {"limit": 0.0}
            assert rep.by_ratio.evidence == {"limit": 1.0, "lambda": 2.0}
            continue
        assert rep.by_liminf.evidence["window_minima"] == alone_lim.evidence["window_minima"]
        assert rep.by_ratio.evidence["window_minima"] == alone_rat.evidence["window_minima"]


def dense_window_minima(fn, v, lam):
    """Each window of the verdict v sampled alone on the dense grid classify
    takes for a g without steps: 800 points plus points at and past each jump.
    Also the rounding floor of each ratio minimum: |S(lam x)/S(x) - 1| reads
    a difference of two log S values, each rounded to its last bits."""
    mu, g = g_inverse(fn), g_transform(fn)
    T = v.evidence["horizon_log"]
    minima, floors = [], []
    for j in range(4):
        lo, hi = T * 2.0 ** (-j - 1), T * 2.0 ** -j
        ss = knot_grid(lo, hi, 800, g.knots_in(lo, hi), (0.0, 1e-9, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            ls = log_S_grid(mu, ss)
            if v.criterion == CRIT_LIMINF:
                vals, floor = np.exp(ss - (g.eval(ss) + ls)), 0.0
            else:
                shifted = log_S_grid(mu, ss + np.log(lam))
                vals = np.abs(np.exp(shifted - ls) - 1.0)
                floor = 8.0 * np.spacing(np.max(np.abs(np.concatenate((ls, shifted)))))
        minima.append(float(np.min(vals)))
        floors.append(floor * (1.0 + minima[-1]))
    return minima, floors


def compare_with_dense(fn, rep):
    """classify's window minima are the dense sample's, bit for bit, except a
    ratio minimum within its rounding floor of the dense one; the verdicts
    agree.  Returns how many minima sat at that floor."""
    at_floor = 0
    for v in (rep.by_liminf, rep.by_ratio):
        want, floors = dense_window_minima(fn, v, rep.config.ratio_lambda)
        got = list(v.evidence["window_minima"])
        for m, w, f in zip(got, want, floors):
            if np.float64(m).view(np.int64) != np.float64(w).view(np.int64):
                assert abs(m - w) <= f, (v.criterion, got, want)
                at_floor += 1
        if not any(map(math.isnan, want)):
            assert classify_module._limit_point_verdict(want, classify_module._THETA)[0] \
                is v.traceable, v.criterion
    return at_floor


def seeded_g_step(rng):
    """A g_step of 5 to 120 jumps near a random slope, integrable or not."""
    bp = np.cumsum(rng.uniform(0.2, 5.0, int(rng.integers(5, 121))))
    values = np.concatenate([[0.0], rng.uniform(0.5, 2.0) * bp + rng.uniform(-1.0, 1.0, len(bp))])
    return g_step(bp, np.maximum.accumulate(values), integrable=bool(rng.integers(2)))


def tailless_sample(p, q, integrable):
    """A power-log sampled on 200 points to t = 40, its branch given."""
    grid = np.exp(np.linspace(0.0, 40.0, 200))
    return branch_twin(sampled(grid, power_log(p=p, q=q).eval(grid)), integrable)


@pytest.mark.parametrize("name", ["power_p1", "exponential", "dominator", "sampled_tail",
                                  "vanisher", "g_step", "sampled"])
def test_window_minima_match_each_window_sampled_alone(name):
    # classify samples its windows as one joined grid; each window sampled
    # on its own must give the same minima, nearest the horizon first.  A
    # family with a growth profile is decided by its exact limit, so its
    # window twin is sampled instead; a NaN stays a NaN in its window.  A
    # step profile is read at its window ends and knots only; the dense
    # grid stays the oracle
    exact = {
        "power_p1": (power_log(p=1), 0.0, 1.0),
        "exponential": (exponential(1.0), np.inf, 0.0),
        "sampled_tail": (sampled([0, 0.5, 1, 2, 3], [1, 0.8, 0.5, 0.3, 0.2],
                                 tail=PowerLog(p=2.0)), 1.0, 0.5),
    }
    line = g_transform(pure_power(p=1))
    steps = {
        # trusted to t = 820: its windows hold knots of the staircase
        "dominator": lambda: construct_dominator(line, 40).g(),
        "vanisher": lambda: construct_vanisher(line, 40).g(),
        "g_step": lambda: seeded_g_step(np.random.default_rng(26)),
        "sampled": lambda: tailless_sample(1.2, 0.5, True),
    }
    if name in exact:
        fn, liminf, ratio = exact[name]
        rep = classify(fn)
        assert rep.by_liminf.evidence == {"limit": liminf}
        assert rep.by_ratio.evidence == {"limit": ratio, "lambda": 2.0}
        fn = window_twin(fn)
    else:
        fn = steps[name]()
        assert g_transform(fn).family.piecewise_constant
    rep = classify(fn)
    assert compare_with_dense(fn, rep) == 0
    if name == "dominator":
        assert any(g_transform(fn).knots_in(0.5 * rep.by_liminf.evidence["horizon_log"],
                                            rep.by_liminf.evidence["horizon_log"]))


def test_knot_sample_matches_the_dense_sample_on_a_seeded_scan():
    # step profiles: staircases of lines and power-logs, seeded g_steps and
    # tail-less samples with a known branch; every window minimum and every
    # verdict is the dense sample's, a few ratio minima up to rounding
    rng = np.random.default_rng(2026)
    sources = [g_transform(pure_power(p=1)), g_transform(power_log(p=0.7)),
               g_transform(power_log(p=1.6)), g_transform(power_log(p=1, q=0.5))]
    profiles = [build(src, n).g() for src in sources
                for build, n in ((construct_vanisher, 40), (construct_dominator, 20))]
    profiles += [seeded_g_step(rng) for _ in range(14)]
    profiles += [tailless_sample(p, q, p > 1)
                 for p, q in rng.uniform([0.3, -0.2], [2.5, 2.0], (8, 2))]
    assert len(profiles) == 30
    assert sum(compare_with_dense(fn, classify(fn)) for fn in profiles) <= 8


def test_no_ratio_minimum_of_a_step_profile_lies_off_its_knots():
    # where lam x crosses a knot the ratio's slope falls (up branch) or rises
    # (down branch), so |S(lam x)/S(x) - 1| has no minimum there: a fine
    # scan that adds knots - log lam reads no less than the knots alone,
    # up to one ulp of log S
    rng = np.random.default_rng(7)
    for _ in range(12):
        fn = seeded_g_step(rng)
        rep = classify(fn)
        mu, g, T = g_inverse(fn), g_transform(fn), rep.by_ratio.evidence["horizon_log"]
        for j, got in enumerate(rep.by_ratio.evidence["window_minima"]):
            lo, hi = T * 2.0 ** (-j - 1), T * 2.0 ** -j
            shifted = [k - np.log(2.0) for k in g.knots_t if lo <= k - np.log(2.0) <= hi]
            ss = np.unique(np.concatenate((np.linspace(lo, hi, 20001), g.knots_in(lo, hi), shifted)))
            ls = log_S_grid(mu, ss)
            fine = np.min(np.abs(np.exp(log_S_grid(mu, ss + np.log(2.0)) - ls) - 1.0))
            assert fine >= got - np.spacing(np.max(np.abs(ls))) * (1.0 + got), (j, got, fine)


def test_disagreeing_criteria_leave_no_consensus():
    rep = classify(power_log(p=1))
    assert rep.traceable is True and rep.agreement and not rep.horizon_limited
    split = dataclasses.replace(rep, by_liminf=TraceabilityVerdict(False, CRIT_LIMINF,
                                                                   horizon_limited=True))
    assert split.traceable is None and split.agreement is False and split.horizon_limited
    # undecided criteria do not count against a consensus
    quiet = dataclasses.replace(rep, by_liminf=TraceabilityVerdict(None, CRIT_LIMINF))
    assert quiet.traceable is True and quiet.agreement


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


def _log_S_down_mpmath(p, q, s):
    """log of (p - 1)^(q - 1) Gamma(1 - q, (p - 1) log(e^s + e)), the unit-scale down branch."""
    with mpmath.workdps(30):
        eps, u = mpmath.mpf(p) - 1, mpmath.log(mpmath.exp(s) + mpmath.e)
        return float(mpmath.log(eps ** (q - 1) * mpmath.gammainc(1 - q, eps * u)))


def _never_converging():
    """Trace class, but e^(s - g(s)) decays only like s^(-3/2) in s = log x (the
    p = 1, q = 1.5 side), so the tail gains more than e^-34 of itself on every
    panel up to s = 2^52, past which s - g(s) is only rounding.  The sides
    have different t shifts, so no closed form orders them and S takes panels."""
    return g_inverse(pointwise_min(g_transform(power_log(p=2, q=0.5)),
                                   shift(g_transform(power_log(p=1, q=1.5)), 1.0, 0.0)))


def test_unconverged_tail_leaves_the_tail_criteria_undecided():
    # log S on the windows of the window twin needs a tail the march cannot
    # finish; both criteria used to read a truncated sum as "hit below theta"
    rep = classify(window_twin(_never_converging()))
    for v in (rep.by_liminf, rep.by_ratio):
        assert v.traceable is None and v.horizon_limited
        assert "the integral from s = 4000" in v.note and "still grows" in v.note
    # the minimum itself grows like its p = 1, q = 1.5 lower side: the exact
    # indices (1, 1) decide, and so do the exact limits of both tail criteria
    rep = classify(_never_converging())
    assert rep.by_indices.traceable is True and rep.traceable is True
    assert rep.by_liminf.traceable is True and rep.by_ratio.traceable is True
    assert rep.by_liminf.evidence == {"limit": 0.0}
    assert rep.by_ratio.evidence == {"limit": 1.0, "lambda": 2.0}
    for p, q in ((1.002, -0.5), (1.004, 0.5)):
        # near-critical power-logs read their whole tail from the closed form,
        # and the window minima near |1 - p| do not make a hit
        mu = power_log(p=p, q=q)
        twin = classify(window_twin(mu))
        assert twin.by_liminf.traceable is not True and twin.by_ratio.traceable is not True
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
    rep = classify(window_twin(_never_converging()))
    assert len(calls) == 1
    assert rep.by_liminf.traceable is None and rep.by_ratio.traceable is None
    assert rep.by_liminf.note == rep.by_ratio.note and "still grows" in rep.by_ratio.note
    # a power-log takes no panels at all, on either side of p = 1, nor does
    # a minimum whose p = 1 side lies below the other on all of t (the
    # bench's pointwise_min family), even on the window path of their twins;
    # with the growth profile no family here takes a window sample at all
    calls.clear()
    bench_min = pointwise_min(g_transform(power_log(1.0, 2.0, 0.5)),
                              g_transform(power_log(1.0, 1.0, 0.75)))
    for fn in (power_log(p=1.002, q=-0.5), power_log(5.947, 0.9794, 3.543), bench_min):
        classify(window_twin(fn))
        classify(fn)
    classify(_never_converging())
    assert calls == []


def test_panel_twin_classifies_like_its_closed_form():
    # the twin has the power-log's S but reads it through panels;
    # with one march for every tail both read the same full tail, so every
    # criterion gives the same verdict and note, near-critical p on both
    # sides of 1 included (the bench's two up-branch families among them)
    rng = np.random.default_rng(3)
    fams = [(1.0, 1.0006, 0.5), (1.0, 1.002, -0.5), (1.0, 1.004, 0.5), (1.0, 1.00390625, 1.0),
            (5.947, 0.9794, 3.543), (5.6913, 0.9839, 3.4463), (1.0, 0.996, 0.5), (1.0, 0.999, 2.0)]
    fams += [(1.0, 1.0 + 10 ** rng.uniform(-3.3, 0.3), rng.uniform(-0.9, 4.0)) for _ in range(18)]
    fams += [(rng.uniform(0.5, 2.0), 1.0 - 10 ** rng.uniform(-3.0, -1.5), rng.uniform(-0.9, 4.0))
             for _ in range(6)]
    for scale, p, q in fams:
        # with the growth profile both decide by the exact limit, untouched by S
        exact, exact_twin = classify(power_log(scale, p, q)), classify(panel_twin(power_log(scale, p, q)))
        for v, w in zip(exact_twin.verdicts, exact.verdicts):
            assert (v.traceable, v.note, v.evidence) == (w.traceable, w.note, w.evidence)
        want = classify(window_twin(power_log(scale, p, q)))
        got = classify(window_twin(panel_twin(power_log(scale, p, q))))
        for v, w in zip(got.verdicts, want.verdicts):
            assert (v.traceable, v.note) == (w.traceable, w.note), (scale, p, q, v.criterion)
            if v.criterion != "indices":
                # below 1 a ratio minimum can sit near a zero of S(2x)/S(x) - 1:
                # 5.0e-7 for the bench's second family, where log S errors of
                # 1e-15 (both forms are within that of mpmath) move it by 2e-9
                np.testing.assert_allclose(v.evidence["window_minima"],
                                           w.evidence["window_minima"], rtol=1e-9,
                                           atol=0.0 if p > 1 else 1e-14)


def test_near_critical_power_logs_are_never_called_traceable():
    # Karamata: x mu(x)/S(x) -> |1 - p| > 0, so no power-log with p != 1 is
    # singularly traceable, however small |1 - p| sits below theta.  Both
    # branches read closed forms: the incomplete gamma down (p > 1), the
    # series and the asymptotic antiderivative up; the seeded scan found 21
    # wrong True verdicts with the old "hit below theta in every window"
    # rule and its capped tails
    rng = np.random.default_rng(11)
    for i in range(40):
        p = 1.0 + (1 if i % 2 else -1) * 10 ** rng.uniform(-3.0, -1.5)
        q = rng.uniform(-0.9, 4.0)
        mu = power_log(scale=rng.uniform(0.5, 2.0), p=p, q=q)
        rep = classify(mu)
        assert all(v.traceable is not True for v in rep.verdicts), (p, q)
        assert rep.traceable is False, (p, q)
        assert rep.by_liminf.evidence == {"limit": abs(1.0 - p)}
        # the window path, on the twin without the growth profile
        rep = classify(window_twin(mu))
        assert all(v.traceable is not True for v in rep.verdicts), (p, q)
        if p > 1:
            # the last window [2000, 4000] sits within q / 2000 of the limit
            m0 = rep.by_liminf.evidence["window_minima"][0]
            assert abs(m0 - (p - 1)) <= abs(q) / 2000.0, (p, q)


def test_large_q_power_logs_are_never_called_traceable():
    # for q in [20, 400] log S is flat far past s = 4000, so the windows saw
    # only pre-asymptotic data: on this scan the standalone criteria used to
    # say True wrongly for 14 (liminf) and 19 (ratio) of the 59 families
    rng = np.random.default_rng(11)
    fams = []
    while len(fams) < 59:
        p, q = rng.uniform(0.2, 2.5), rng.uniform(20.0, 400.0)
        if abs(p - 1.0) >= 0.05:
            fams.append((p, q))
    for p, q in fams:
        mu = power_log(p=p, q=q)
        assert traceable_by_liminf(mu).traceable is False, (p, q)
        assert traceable_by_ratio(mu).traceable is False, (p, q)


def test_a_nan_window_is_no_evidence():
    # g of an exponential overflows in the far windows, where g + log S is
    # inf - inf: those windows hold a NaN, which leaves the window criteria
    # undecided; the exponential itself is decided by its exact limits
    rep = classify(window_twin(exponential(1.0)))
    for v in (rep.by_liminf, rep.by_ratio):
        assert v.traceable is None and "NaN" in v.note, v.criterion
        assert np.isnan(v.evidence["window_minima"][0])
    rep = classify(exponential(1.0))
    assert rep.by_liminf.evidence == {"limit": np.inf}
    assert rep.by_ratio.evidence == {"limit": 0.0, "lambda": 2.0}
    assert rep.traceable is False


def test_minimum_with_a_step_side_reads_its_knots(staircases):
    # the minimum equals the traceable vanisher wherever it is checked; its
    # knots are the staircase's, so the index scan and the windows cut there
    stair = dict(staircases)["vanisher"]
    m = pointwise_min(stair, g_transform(power_log(p=1.5)))
    assert m.knots_t == tuple(sorted(stair.knots_t))
    assert [v.traceable for v in classify(g_inverse(m)).verdicts] == [True, True, True]
    # a slope-1 step trusted to t = 199, above a p = 0.8 power-log from t = 2 on
    bp = np.arange(1.0, 200.0)
    m = pointwise_min(g_step(bp, np.concatenate([[0.0], bp])), g_transform(power_log(p=0.8)))
    rep = classify(m)
    assert [v.traceable for v in rep.verdicts] == [False, False, False]
    # two sides without jumps give a minimum without knots
    assert pointwise_min(g_transform(power_log(p=2)), g_transform(power_log(p=1))).knots_t is None


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
