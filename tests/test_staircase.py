import dataclasses
import math

import numpy as np
import pytest

from singtrace import staircase
from singtrace.errors import Bounded, FiniteRank, TooFewSteps, VerificationFailed
from singtrace.functions import (
    PowerLog,
    _View,
    exponential,
    g_step,
    g_transform,
    log_e_plus,
    logsubexp,
    pointwise_min,
    power_log,
    pure_power,
    sampled,
    shift,
    step_mu,
)
from singtrace.ideals import MEMBER, NON_MEMBER, in_kernel, in_principal_ideal
from singtrace.indices import matuszewska
from singtrace.staircase import (
    _itp,
    _solve_exceed,
    construct_dominator,
    construct_vanisher,
    verify_construction,
)

from panel_twin import panel_twin


def line_g():
    """g(t) = max(0, t), exactly linear past 0."""
    return g_transform(pure_power(p=1))


def triangle(n):
    return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# the greedy rule, executed by hand for g(t) = t


def test_vanisher_first_breakpoints_by_hand():
    s = construct_vanisher(line_g(), n_steps=4)
    # t2 = max(1 + 2, inf{t: sqrt(t) > sqrt(1) + 2}) = max(3, 9) = 9
    # t3 = max(9 + 3, inf{t: sqrt(t) > 3 + 3}) = max(12, 36) = 36
    assert s.breakpoints == (1.0, 9.0, 36.0, 100.0)
    assert s.step_values == (1.0, 3.0, 6.0, 10.0)
    # explicit gap arithmetic from the same numbers
    assert 9 - 1 == 8 > 1 and 36 - 9 == 27 > 2
    assert 3 - 1 == 2 > 1 and 6 - 3 == 3 > 2


def test_vanisher_breakpoints_are_squared_triangles():
    s = construct_vanisher(line_g(), n_steps=40)
    for i, n in enumerate(range(1, 41)):
        assert s.breakpoints[i] == float(triangle(n)) ** 2
        assert s.step_values[i] == float(triangle(n))


def test_dominator_first_breakpoints_by_hand():
    s = construct_dominator(line_g(), n_steps=3)
    # t2 = max(1 + 2, inf{t: t^2 > 1 + 2}) = max(3, sqrt(3)) = 3
    assert s.breakpoints == (1.0, 3.0, 6.0)
    # value on [1, 3) is g(3)^2 = 9
    assert s.step_values[0] == 9.0
    g = s.g()
    for t in [1.0, 2.0, 2.999]:
        assert g(t) == 9.0
        assert g(t) >= t * t


def test_dominator_breakpoints_are_triangles():
    s = construct_dominator(line_g(), n_steps=40)
    for i, n in enumerate(range(1, 41)):
        assert s.breakpoints[i] == float(triangle(n))
    for i, n in enumerate(range(2, 41)):
        assert s.step_values[i] == float(triangle(n)) ** 2


def test_gap_conditions_hold_exactly():
    for s in [construct_vanisher(line_g(), 40), construct_dominator(line_g(), 40)]:
        bps = s.breakpoints
        for n in range(1, len(bps)):
            assert bps[n] - bps[n - 1] > n  # zero tolerance
        gA = s.normalized_source()
        phi = (lambda y: math.sqrt(y)) if s.variant == "vanisher" else (lambda y: y * y)
        for n in range(1, len(bps)):
            assert phi(gA(bps[n])) - phi(gA(bps[n - 1])) > n


def test_monotone_step_values():
    s = construct_dominator(line_g(), 20)
    assert all(b > a for a, b in zip(s.step_values, s.step_values[1:]))


# ---------------------------------------------------------------------------
# preconditions and errors


def test_finite_rank_source_rejected():
    fr = g_transform(step_mu([0, 1, 2], [2.0, 1.0]))
    with pytest.raises(FiniteRank):
        construct_vanisher(fr)
    with pytest.raises(FiniteRank):
        construct_dominator(fr)


def test_one_step_rejected_as_a_value_error():
    for build in (construct_vanisher, construct_dominator):
        with pytest.raises(TooFewSteps, match="need at least 2 steps, got 1") as info:
            build(line_g(), n_steps=1)
        assert isinstance(info.value, ValueError)


def test_bounded_source_rejected():
    # a held staircase plateaus inside its trusted range
    flat = g_step([1.0, 2.0], [1.0, 1.5, 2.0], horizon=50.0)
    with pytest.raises(Bounded):
        construct_vanisher(flat, n_steps=10)


def test_normalization_applies_when_g_starts_below_one():
    # scale 100: g(t) = t - log(100) < 1 at the start
    src = g_transform(pure_power(p=1, scale=100.0, cap=100.0))
    s = construct_vanisher(src, n_steps=25)
    assert s.normalization_offset == pytest.approx(1.0 - (1.0 - math.log(100.0)))
    gA = s.normalized_source()
    assert gA(s.start_t) == pytest.approx(1.0)
    verify_construction(s)


def test_exponential_source_constructs():
    s = construct_vanisher(g_transform(exponential(1.0)), n_steps=10)
    verify_construction(s)
    assert s.g().family.integrable is True  # sqrt of e^t still outruns t


# ---------------------------------------------------------------------------
# verification


def test_verify_both_variants_for_the_line():
    v = verify_construction(construct_vanisher(line_g(), 40))
    assert v.delta_lower <= 0.1 and v.delta_upper >= 10.0
    assert v.gap_margins[0] > 0 and v.gap_margins[1] > 0
    t0s = [t for _, t in v.condition_t0]
    assert t0s == sorted(t0s) and t0s[-1] > t0s[0]

    d = verify_construction(construct_dominator(line_g(), 40))
    assert d.delta_lower <= 0.1 and d.delta_upper >= 10.0


def test_verify_rejects_corrupted_staircase():
    s = construct_vanisher(line_g(), 12)
    bad_bps = list(s.breakpoints)
    bad_bps[5] = bad_bps[4] + 1.0  # gap of 1 < n = 5
    corrupted = dataclasses.replace(s, breakpoints=tuple(sorted(bad_bps)))
    with pytest.raises(VerificationFailed):
        verify_construction(corrupted)


def test_verify_rejects_wrong_envelope():
    s = construct_vanisher(line_g(), 12)
    too_high = tuple(v * 50.0 for v in s.step_values)
    corrupted = dataclasses.replace(s, step_values=too_high)
    with pytest.raises(VerificationFailed):
        verify_construction(corrupted)


@pytest.mark.parametrize("source", [power_log(1.8974, 1.2434, 0.0), pure_power(1.0, 0.6077, 1.0)])
def test_dominator_envelope_tolerates_rounding_only(source):
    # these sources meet g_A^2 to within one ulp near 1e6 at t = 820
    s = construct_dominator(g_transform(source), 40)
    assert verify_construction(s).envelope_ok
    lowered = tuple(v * (1.0 - 1e-9) for v in s.step_values)
    with pytest.raises(VerificationFailed, match="envelope"):
        verify_construction(dataclasses.replace(s, step_values=lowered))


def test_vanisher_envelope_tolerates_rounding_only():
    s = construct_vanisher(line_g(), 40)
    raised = tuple(v * (1.0 + 1e-9) for v in s.step_values)
    with pytest.raises(VerificationFailed, match="envelope"):
        verify_construction(dataclasses.replace(s, step_values=raised))


# ---------------------------------------------------------------------------
# the staircases do what they were built for


def test_staircase_indices_collapse():
    for s in [construct_vanisher(line_g(), 40), construct_dominator(line_g(), 40)]:
        rep = matuszewska(s.g())
        assert rep.delta_lower <= 0.1
        assert rep.delta_upper >= 10.0


def test_vanisher_end_to_end_kernel_membership():
    s = construct_vanisher(line_g(), 40)
    dec = in_kernel(line_g(), s.g())
    assert dec.verdict == MEMBER
    assert in_principal_ideal(line_g(), s.g()).verdict == MEMBER


def test_dominator_end_to_end_exclusion():
    s = construct_dominator(line_g(), 40)
    dec = in_principal_ideal(line_g(), s.g())
    assert dec.verdict == NON_MEMBER
    assert dec.refutation is not None


def test_one_staircase_view_per_construction(monkeypatch):
    # verification, the caller and the ideal decision share one view, so
    # its knots are found once
    built = []
    monkeypatch.setattr(staircase, "g_step", lambda *a, **k: built.append(1) or g_step(*a, **k))
    for variant, construct, decide, want in [
        ("vanisher", construct_vanisher, in_kernel, MEMBER),
        ("dominator", construct_dominator, in_principal_ideal, NON_MEMBER),
    ]:
        s = construct(line_g(), 40)
        verify_construction(s)
        stair = s.g()
        assert decide(line_g(), stair).verdict == want
        assert s.g() is stair and stair.knots_t is s.g().knots_t
    assert len(built) == 2
    # a construction still compares, hashes and copies by its fields
    s = construct_vanisher(line_g(), 12)
    twin = construct_vanisher(line_g(), 12)
    s.g()
    assert s == twin and hash(s) == hash(twin)
    assert dataclasses.replace(s).g() is not s.g()


def test_vanisher_envelope_pointwise():
    s = construct_vanisher(line_g(), 40)
    g = s.g()
    gA = s.normalized_source()
    ts = np.linspace(1.0, g.horizon_t, 3000)
    assert np.all(g.eval(ts) <= np.sqrt(gA.eval(ts)) + 1e-12)


def test_dominator_envelope_pointwise():
    s = construct_dominator(line_g(), 40)
    g = s.g()
    gA = s.normalized_source()
    ts = np.linspace(1.0, g.horizon_t - 1e-9, 3000)
    assert np.all(g.eval(ts) >= gA.eval(ts) ** 2 - 1e-12)


def test_powerlog_source_constructs_and_verifies():
    src = g_transform(power_log(p=1))
    for build in (construct_vanisher, construct_dominator):
        s = build(src, n_steps=30)
        v = verify_construction(s)
        assert v.envelope_ok


# ---------------------------------------------------------------------------
# the numeric solver, on sources without an analytic inverse


def twin_g(scale, p, q):
    """g of power_log(scale, p, q) with no analytic inverse, so ITP runs."""
    return g_transform(panel_twin(power_log(scale, p, q)))


NUMERIC_SOURCES = {
    "power_log_q": lambda: twin_g(1.3, 1.0, 1.1),
    "power_log_slow": lambda: twin_g(1.0, 0.05, 0.5),
    "shift": lambda: shift(twin_g(0.8, 1.0, -0.4), 0.7, -0.3),
    "pointwise_min": lambda: pointwise_min(g_transform(power_log(1.0, 1.2, 0.5)),
                                           g_transform(power_log(2.0, 1.1, 1.5))),
    "sampled_tail": lambda: g_transform(sampled([0, 0.5, 1, 2, 3], [1, 0.8, 0.5, 0.3, 0.2],
                                                tail=PowerLog(p=1.5, q=0.5))),
}


def _phi(variant):
    if variant == "vanisher":
        return math.sqrt, lambda v: v * v
    return (lambda y: y * y), math.sqrt


@pytest.mark.parametrize("name", sorted(NUMERIC_SOURCES))
@pytest.mark.parametrize("build", [construct_vanisher, construct_dominator])
def test_solver_settles_each_breakpoint_to_the_infimum(name, build):
    src = NUMERIC_SOURCES[name]()
    assert src.inverse_point(50.0) is None
    s = build(src, n_steps=40)
    gA = s.normalized_source()
    phi, phi_inv = _phi(s.variant)
    bps = s.breakpoints
    settled = 0
    for n in range(1, len(bps)):
        level = phi_inv(phi(gA(bps[n - 1])) + (n + 1))
        t = bps[n]
        assert gA(t) > level
        if t > bps[n - 1] + (n + 1):  # the solver set it, not the margin
            settled += 1
            assert level >= gA(t - 1e-9)
    # dominator levels sit within (n+1)/(2 g) of g(t_n), so on a source
    # with slope above 1/2 the margin n+1 sets every breakpoint
    if s.variant == "vanisher" or name == "power_log_slow":
        assert settled >= 10
    verify_construction(s)


def test_solver_work_per_breakpoint(monkeypatch):
    calls = []
    scalar = _View.__call__
    monkeypatch.setattr(_View, "__call__", lambda self, t: calls.append(t) or scalar(self, t))
    construct_vanisher(twin_g(1.3, 1.0, 1.1), n_steps=40)
    assert len(calls) / 39 <= 20  # bisection needed about 58


def test_itp_takes_at_most_one_step_beyond_bisection():
    # a jump defeats regula falsi; the projection keeps ITP within n0 = 1
    # step of the 30 bisection steps from width 1 to 1e-9
    jump = 0.3 + math.pi * 1e-3
    calls = []

    def g(t):
        calls.append(t)
        return 0.0 if t < jump else 1e6

    t, g_t = _itp(g, 0.5, 0.0, 1.0, 0.0, 1e6)
    assert jump <= t <= jump + 1e-9 and g_t == 1e6
    assert len(calls) <= 31


def test_solver_stops_at_adjacent_floats():
    # breakpoints near 1e7, where one ulp (1.9e-9) exceeds the 1e-9 tolerance
    s = construct_vanisher(twin_g(1.0, 0.05, 0.5), n_steps=40)
    gA = s.normalized_source()
    t_prev, t = s.breakpoints[-2:]
    assert t > 1e7 and t > t_prev + 40
    level = (math.sqrt(gA(t_prev)) + 40) ** 2
    assert gA(t) > level >= gA(float(np.nextafter(t, 0.0)))


def test_solver_bounded_past_the_horizon():
    capped = pointwise_min(g_transform(power_log(1.0, 1.0, 0.5)),
                           g_step([1.0, 2.0], [1.0, 1.5, 2.0], horizon=50.0))
    with pytest.raises(Bounded, match=r"^g never exceeds \S+ on the trusted range \(up to 50\)$"):
        construct_vanisher(capped, n_steps=10)


# ---------------------------------------------------------------------------
# the power-log inverse, and the solver work it saves


def _inverse_grid():
    """Seeded (scale, p, q, y): every sign of q, q = -p, p = 0, q = 0, and y
    from just above the floor p - log(scale) of g up to 6.7e5, and below it."""
    rng = np.random.default_rng(19)
    families = [(1.0, 1.0, -1.0), (2.0, 0.5, -0.5), (1.0, 0.0, 2.0), (0.5, 0.0, 0.3),
                (1.0, 1.5, 0.0), (3.0, 0.7, 0.0), (0.5, 0.05, 0.5), (1.0, 1.0, 1.0)]
    for _ in range(24):
        p = float(rng.uniform(0.02, 3.0))
        q = 0.0 if rng.random() < 0.2 else float(rng.uniform(-p, 3.0))
        families.append((float(np.exp(rng.uniform(-2.0, 2.0))), p, q))
    for scale, p, q in families:
        floor = p - math.log(scale)
        for dy in (-0.5, 1e-3, 0.5, 3.0, 40.0, 1e3, 6.7e5):
            yield scale, p, q, floor + dy


def test_power_log_inverse_brackets_the_crossing():
    checked = 0
    for scale, p, q, y in _inverse_grid():
        fam = PowerLog(scale, p, q)
        t = fam.g_inverse_point(y)
        if y <= p - math.log(scale):  # g exceeds y everywhere
            assert t is None and fam.g(-50.0) > y
            continue
        if t == math.inf:  # p = 0: the crossing lies past the floats
            assert p == 0 and fam.g(np.finfo(float).max) <= y
            continue
        d = max(1e-9, 2.0 * float(np.spacing(abs(t))))
        assert fam.g(t - d) <= y <= fam.g(t + d), (scale, p, q, y, t)
        if q == 0:  # bit for bit the direct formula
            assert t == float(logsubexp((y + math.log(scale)) / p, 1.0))
        checked += 1
    assert checked >= 180


def test_power_log_inverse_agrees_with_itp_on_the_panel_twin():
    for scale, p, q, y in _inverse_grid():
        t = PowerLog(scale, p, q).g_inverse_point(y)
        if t is None or t > 1e11:  # the ladder stops at 1e12
            continue
        twin = twin_g(scale, p, q)
        assert twin.inverse_point(y) is None
        t_itp, _ = _solve_exceed(twin, y, t - 10.0, None)
        # where g is flat, as for p = 0 near t = 5e8, floats pin the crossing
        # only to a few ulps of y over g'(t)
        slope = (p + q / float(log_e_plus(t))) / (1.0 + math.exp(1.0 - t))
        d = max(1e-9, 2.0 * float(np.spacing(abs(t))), 8.0 * float(np.spacing(abs(y))) / slope)
        assert abs(t_itp - t) <= d, (scale, p, q, y)


def _count_work(monkeypatch):
    """Record each scalar g call and each ITP run of the staircase solver."""
    calls, itp_runs = [], []
    scalar = _View.__call__
    monkeypatch.setattr(_View, "__call__", lambda self, t: calls.append(t) or scalar(self, t))
    monkeypatch.setattr("singtrace.staircase._itp",
                        lambda *args: itp_runs.append(args[2]) or _itp(*args))
    return calls, itp_runs


@pytest.mark.parametrize("build", [construct_vanisher, construct_dominator])
def test_power_log_staircase_takes_one_g_call_per_breakpoint(monkeypatch, build):
    calls, itp_runs = _count_work(monkeypatch)
    build(g_transform(power_log(1.0, 1.0, 1.0)), n_steps=40)
    assert len(calls) / 39 <= 1.1 and itp_runs == []


@pytest.mark.parametrize("name", ["power_log_q", "pointwise_min"])
def test_numeric_dominator_runs_no_itp_where_the_margin_binds(monkeypatch, name):
    calls, itp_runs = _count_work(monkeypatch)
    s = construct_dominator(NUMERIC_SOURCES[name](), n_steps=40)
    bps = s.breakpoints
    set_by_solver = [bps[n] for n in range(1, len(bps)) if bps[n] != bps[n - 1] + (n + 1)]
    assert len(itp_runs) == len(set_by_solver)
    # slopes above 1/2: the margin sets every breakpoint, and the ladder's
    # first rung gives g there, so only the two start-point calls remain
    assert set_by_solver == [] and len(calls) <= 2


def test_power_log_staircases_verify_across_q():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.0))
        q = float(rng.uniform(-p, 3.0)) or 1.0
        src = g_transform(power_log(float(np.exp(rng.uniform(-1.0, 1.0))), p, q))
        for build in (construct_vanisher, construct_dominator):
            verify_construction(build(src, 40))
