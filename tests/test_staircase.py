import dataclasses
import gc
import hashlib
import math
import random
import sys

import numpy as np
import pytest

from singtrace import ideals, staircase
from singtrace.errors import (
    Bounded,
    ConstructionRange,
    FiniteRank,
    TooFewSteps,
    VerificationFailed,
)
from singtrace.functions import (
    GFunction,
    PowerLog,
    _View,
    dilate,
    exponential,
    g_step,
    g_transform,
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
    construct_dominator,
    construct_vanisher,
    verify_construction,
)


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


@pytest.mark.parametrize("build", [construct_vanisher, construct_dominator])
def test_envelope_broken_on_a_sliver_of_any_step_fails(build):
    # each step is moved past the envelope by far more than _slack, but only
    # on the 1e-7 of it where the envelope is tightest: at t_n for the
    # vanisher, just before t_{n+1} for the dominator
    s = build(line_g(), 40)
    bps = s.breakpoints
    verify_construction(s)
    for n in range(len(s.step_values)):
        values = list(s.step_values)
        if s.variant == "vanisher":
            values[n] = math.sqrt(bps[n] + 1e-7)
        else:
            values[n] = (bps[n + 1] - 1e-7) ** 2
        with pytest.raises(VerificationFailed, match="envelope"):
            verify_construction(dataclasses.replace(s, step_values=tuple(values)))


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
# breakpoints that the inverse, not the margin, sets


def pl_g(scale, p, q):
    return g_transform(power_log(scale, p, q))


INVERSE_SOURCES = {
    "power_log_q": lambda: pl_g(1.3, 1.0, 1.1),
    "power_log_slow": lambda: pl_g(1.0, 0.05, 0.5),
    "shift": lambda: shift(pl_g(0.8, 1.0, -0.4), 0.7, -0.3),
    "pointwise_min": lambda: pointwise_min(pl_g(1.0, 1.2, 0.5), pl_g(2.0, 1.1, 1.5)),
    "sampled_tail": lambda: g_transform(sampled([0, 0.5, 1, 2, 3], [1, 0.8, 0.5, 0.3, 0.2],
                                                tail=PowerLog(p=1.5, q=0.5))),
    # g = k^2 on [k, k + 1): sqrt(g) rises like t, as for a line
    "g_step": lambda: g_step(np.arange(1.0, 2001.0), np.arange(2001.0) ** 2),
}


def _phi(variant):
    if variant == "vanisher":
        return math.sqrt, lambda v: v * v
    return (lambda y: y * y), math.sqrt


def _assert_infimum(g, y, t, dy=0.0):
    """t = inf{g > y}: exactly where g jumps at t, else to a rounding
    bracket, since a continuous g equals y at the infimum; dy widens it in y."""
    before = g(float(np.nextafter(t, -math.inf)))
    if t in (g.knots_t or ()) and g(t) - before > 4.0 * math.ulp(before):
        # y lies in the jump; g exceeds it from t on, or, where a minimum's
        # continuous side takes over at the top of the jump, right after t
        assert before <= y < g(t) or before <= y == g(t) < g(t + 1e-9), (y, t)
    else:
        d = max(1e-9, 2.0 * math.ulp(t))
        assert g(t - d) - dy <= y <= g(min(t + d, sys.float_info.max)) + dy, (y, t)


@pytest.mark.parametrize("name", sorted(INVERSE_SOURCES))
@pytest.mark.parametrize("build", [construct_vanisher, construct_dominator])
def test_solver_settles_each_breakpoint_to_the_infimum(name, build):
    s = build(INVERSE_SOURCES[name](), n_steps=40)
    gA = s.normalized_source()
    phi, phi_inv = _phi(s.variant)
    bps = s.breakpoints
    settled = 0
    for n in range(1, len(bps)):
        level = phi_inv(phi(gA(bps[n - 1])) + (n + 1))
        t = bps[n]
        if t > bps[n - 1] + (n + 1):  # the inverse set it, not the margin
            settled += 1
            _assert_infimum(gA, level, t)
        else:
            assert gA(t) > level
    # dominator levels sit within (n+1)/(2 g) of g(t_n), so on a source
    # with slope above 1/2 the margin n+1 sets every breakpoint
    if s.variant == "vanisher" or name == "power_log_slow":
        assert settled >= 10
    verify_construction(s)


@pytest.mark.parametrize("name", sorted(INVERSE_SOURCES) + ["line"])
@pytest.mark.parametrize("build", [construct_vanisher, construct_dominator])
def test_condition_t0_is_the_exact_crossing(name, build):
    # past t0 the gap (source - staircase for the vanisher, staircase - source
    # for the dominator) exceeds the threshold on every float up to the
    # horizon; where t0 is a jump, the float below it does not
    s = build(INVERSE_SOURCES[name]() if name != "line" else line_g(), n_steps=40)
    stair, src = s.g(), s.source
    sign = 1.0 if s.variant == "vanisher" else -1.0

    def gap(t):
        return sign * (src(t) - stair(t))

    horizon, bps = stair.horizon_t, s.breakpoints
    jumps = set(bps) | set(src.knots_t or ())
    crossed = 0
    for c, t0 in verify_construction(s).condition_t0:
        c *= sign
        d = max(1e-9, 2.0 * math.ulp(t0))
        later = [k for k in bps if k > t0 + d] + [float(np.nextafter(k, -math.inf))
                                                 for k in bps if k > t0 + d]
        assert all(gap(t) > c for t in [t0 + d, horizon, *later]), (c, t0)
        if t0 == bps[0]:
            continue
        crossed += 1
        if t0 in jumps:
            assert gap(float(np.nextafter(t0, -math.inf))) <= c < gap(t0), (c, t0)
        else:  # a continuous gap meets c at t0
            assert gap(t0 - d) <= c, (c, t0)
    assert crossed == (3 if s.variant == "vanisher" else 0)


def test_solver_bounded_past_the_horizon():
    capped = pointwise_min(g_transform(power_log(1.0, 1.0, 0.5)),
                           g_step([1.0, 2.0], [1.0, 1.5, 2.0], horizon=50.0))
    with pytest.raises(Bounded, match=r"^g never exceeds \S+ on the trusted range \(up to 50\)$"):
        construct_vanisher(capped, n_steps=10)


# ---------------------------------------------------------------------------
# the exact inverse of every family, and the solver work it saves


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
            assert t == -math.inf and fam.g(-50.0) > y
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


def _inverse_families():
    """Every family kind that can be a staircase source, the finite rank step
    profile, two minima, and seeded shift and dilate views of each."""
    rng = np.random.default_rng(29)
    stair = g_step(np.cumsum(rng.uniform(0.1, 2.0, 30)).tolist(),
                   np.cumsum(rng.uniform(0.1, 1.0, 31)).tolist())
    grid = [0.0] + np.exp(np.sort(rng.uniform(-3.0, 4.0, 25))).tolist()
    values = np.sort(rng.uniform(0.01, 1.0, 26))[::-1].tolist()
    tail = PowerLog(p=1.5, q=0.5)
    bases = {
        "power_log": pl_g(1.3, 1.0, 1.1),
        "power_log_q0": pl_g(0.7, 1.5, 0.0),
        "power_log_p0": pl_g(1.0, 0.0, 2.0),
        "exponential": g_transform(exponential(2.0)),
        "pure_power": g_transform(pure_power(1.5, 2.0, 0.5)),
        "g_step": stair,
        "step": g_transform(step_mu([0.0, 0.5, 2.0, 7.0], [1.0, 0.4, 0.1])),
        "sampled": g_transform(sampled(grid, values)),
        "sampled_tail": g_transform(sampled(grid, values, tail=tail)),
        # the tail starts below the last sample: g dips at the splice
        "sampled_tail_dip": g_transform(sampled([0.0, 1.0, 2.0], [1.0, 0.5, 0.01],
                                                tail=PowerLog(p=0.5))),
        "min_power_logs": pointwise_min(pl_g(1.0, 1.2, 0.5), pl_g(2.0, 1.1, 1.5)),
        "min_power_log_g_step": pointwise_min(pl_g(1.0, 1.0, 0.5), stair),
        # bounded by the step side; at t = inf the q = 0 side forms 0*log inf
        "min_g_step_power_log_q0": pointwise_min(stair, pl_g(0.7, 1.5, 0.0)),
    }
    for name, g in bases.items():
        yield name, g
        yield f"shift {name}", shift(g, float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-2.0, 2.0)))
        yield f"dilate {name}", g_transform(dilate(g, float(np.exp(rng.uniform(-3.0, 3.0)))))


def test_inverse_point_contract():
    # -inf where g exceeds y everywhere, the infimum of {g > y} where it is
    # finite, +inf past the floats, and None where g never exceeds y
    rng = np.random.default_rng(31)
    lo, hi = -1e6, float(np.finfo(float).max)
    kinds = set()
    for name, g in _inverse_families():
        with np.errstate(over="ignore"):  # g(hi) overflows for all but p = 0
            bottom, top = g(lo), g(hi)
        sup = top if g.horizon_t is not None else math.inf
        ts = np.concatenate([rng.uniform(-10.0, 60.0, 40), g.knots_in(-1e3, 1e3)[:20]])
        ys = [bottom - 1.0, bottom, float(np.nextafter(bottom, math.inf)), bottom + 1e-3, top, top + 1.0]
        if sup < math.inf:  # a bounded g at its supremum and one float below it
            ys += [sup, math.nextafter(sup, -math.inf)]
        for y0 in g.eval(ts).tolist():  # step values exactly, a float below, and between
            ys += [y0, math.nextafter(y0, -math.inf), y0 + float(rng.uniform(0.0, 0.5))]
        for y in ys:
            if not math.isfinite(y):
                continue
            t = g.inverse_point(y)
            # a view with jumps settles both of its roundings exactly; one
            # without reads y - b and adds the family's constants, each
            # rounding once: a few ulps of y, which move the crossing far
            # near a power-log's floor, where g is flat
            dy = 0.0 if g.knots_t is not None else 4.0 * math.ulp(max(abs(y), abs(g.b), 1.0))
            assert (t is None) == (y >= sup), (name, y, t)
            if y < bottom - dy:
                assert t == -math.inf, (name, y, t)
            if t is None:
                kinds.add("none")
            elif t == -math.inf:
                assert y - dy < bottom, (name, y)
                kinds.add("-inf")
            elif t == math.inf:
                assert top <= y, (name, y)
                kinds.add("+inf")
            else:
                _assert_infimum(g, y, t, dy)
                kinds.add("jump" if t in (g.knots_t or ()) else "crossing")
    assert kinds == {"none", "-inf", "+inf", "jump", "crossing"}
    # at its floor a pure power first exceeds y past the crossover; below it, everywhere
    pp = pure_power(1.5, 2.0, 0.5).family
    floor = -math.log(0.5)
    assert pp.g_inverse_point(floor) == (floor + math.log(2.0)) / 1.5
    assert pp.g_inverse_point(float(np.nextafter(floor, -math.inf))) == -math.inf


def test_shifted_step_inverse_point_settles_the_sum_at_the_bottom():
    # 1.5 + 0.8 rounds to 2.3 itself, so g first exceeds 2.3 at the first jump,
    # though y - b = 0.7999999999999998 lies below the bottom step
    assert shift(g_step([1, 2], [0.8, 1.8, 3.8]), 0, 1.5).inverse_point(2.3) == 1.0


def _count_calls(monkeypatch):
    """Record each scalar g call of the staircase solver."""
    calls = []
    scalar = _View.__call__
    monkeypatch.setattr(_View, "__call__", lambda self, t: calls.append(t) or scalar(self, t))
    return calls


@pytest.mark.parametrize("build", [construct_vanisher, construct_dominator])
def test_power_log_staircase_takes_one_g_call_per_breakpoint(monkeypatch, build):
    # and so do the minimum and the sampled tail, which a bracketing root
    # finder served at 14-18 calls per vanisher breakpoint
    calls = _count_calls(monkeypatch)
    for src in (pl_g(1.0, 1.0, 1.0), INVERSE_SOURCES["pointwise_min"](),
                INVERSE_SOURCES["sampled_tail"]()):
        calls.clear()
        build(src, n_steps=40)
        assert len(calls) / 39 <= 1.1, src


def test_power_log_staircases_verify_across_q():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.0))
        q = float(rng.uniform(-p, 3.0)) or 1.0
        src = g_transform(power_log(float(np.exp(rng.uniform(-1.0, 1.0))), p, q))
        for build in (construct_vanisher, construct_dominator):
            verify_construction(build(src, 40))


# ---------------------------------------------------------------------------
# memberships against the own source, decided from the construction

OWN_SOURCES = {
    "line": line_g,
    "power_log_q": lambda: pl_g(1.3, 1.0, 1.1),
    "pointwise_min": INVERSE_SOURCES["pointwise_min"],
    "sampled_tail": INVERSE_SOURCES["sampled_tail"],
    "exponential": lambda: g_transform(exponential(1.0)),
}


@pytest.mark.parametrize("name", OWN_SOURCES)
def test_own_staircase_memberships_are_exact_without_a_tail_grid(monkeypatch, name):
    def no_grid(*args):
        raise AssertionError("tail grid built")

    monkeypatch.setattr(ideals, "_tail_grid", no_grid)
    src = OWN_SOURCES[name]()
    vanisher, dominator = construct_vanisher(src, 20), construct_dominator(src, 20)
    for decide in (in_kernel, in_principal_ideal):
        dec = decide(src, vanisher.g())
        assert (dec.verdict, dec.mode, dec.refutation) == (MEMBER, "exact", None)
        dec.witness  # read from the construction, not from a grid
        dec = decide(src, dominator.g())
        assert (dec.verdict, dec.mode, dec.witness) == (NON_MEMBER, "exact", None)
        assert dec.refutation.basis == "construction"


@pytest.mark.parametrize("name", OWN_SOURCES)
def test_vanisher_witness_is_the_verified_condition(name):
    src = OWN_SOURCES[name]()
    s = construct_vanisher(src, 20)
    # decided before verification: the same crossings, computed once
    witness = in_kernel(src, s.g()).witness
    ver = verify_construction(s)
    assert tuple((c, t0) for c, t0, _ in witness.thresholds) == ver.condition_t0
    assert all(ok for _, _, ok in witness.thresholds)
    assert (witness.a, witness.b, witness.t0, witness.horizon) == (0.0, 0.0, 1.0, math.inf)
    # the ideal's b bounds the gap from t_1 on, past the constructed range too
    ideal = in_principal_ideal(src, s.g()).witness
    assert ideal.b <= 0.0 and ideal.thresholds == ()
    gA, stair = s.normalized_source(), s.g()
    ts = np.linspace(1.0, 3.0 * stair.horizon_t, 4001)
    assert np.all(src.eval(ts) - stair.eval(ts) >= ideal.b)
    assert np.all(stair.eval(ts) <= np.sqrt(gA.eval(ts)) + 1e-12 * gA.eval(ts))


def test_a_vanisher_short_of_its_last_threshold_reports_it_unmet():
    # two steps of the line end at t = 12 with gap 9 < 10: no t0 for 10 and 100
    s = construct_vanisher(line_g(), 2)
    with pytest.raises(VerificationFailed):  # its indices fail first
        verify_construction(s)
    dec = in_kernel(line_g(), s.g())
    assert (dec.verdict, dec.mode) == (MEMBER, "exact")
    assert [(c, ok) for c, _, ok in dec.witness.thresholds] == [(1.0, True), (10.0, False),
                                                                 (100.0, False)]


def test_other_pairs_keep_the_horizon_decision():
    src = line_g()
    for s, decide in ((construct_vanisher(src, 40), in_kernel),
                      (construct_dominator(src, 40), in_principal_ideal)):
        stair = s.g()
        fam = stair.family
        rebuilt = g_step(fam.breakpoints, fam.values, fam.horizon, fam.integrable, fam.label)
        assert rebuilt == stair and rebuilt.family.construction is None
        for ga, gb in ((src, rebuilt), (shift(src, 0.5, 0.0), stair), (shift(src, 0.0, 1.0), stair),
                       (pl_g(1.0, 1.2, 0.0), stair), (src, shift(stair, 0.0, 1.0))):
            assert decide(ga, gb).mode == "horizon", (ga, gb)
    # a source with a horizon: the proof needs the whole source
    src = INVERSE_SOURCES["g_step"]()
    s = construct_vanisher(src, 12)
    assert in_kernel(src, s.g()).mode == "horizon"


def test_a_staircase_failing_its_envelope_keeps_the_horizon_decision():
    s = construct_vanisher(line_g(), 40)
    raised = dataclasses.replace(s, step_values=(s.step_values[0] + 0.5,) + s.step_values[1:])
    with pytest.raises(VerificationFailed, match="envelope"):
        verify_construction(raised)
    assert in_kernel(line_g(), raised.g()).mode == "horizon"
    assert in_kernel(line_g(), s.g()).mode == "exact"


def test_own_staircase_decisions_leave_no_cyclic_garbage():
    # the step family keeps its rule and the rule no construction: reference
    # counting frees every construction, view, rule and decision
    gc.collect()
    gc.disable()
    try:
        for src in (line_g(), pl_g(1.3, 1.0, 1.1)):
            for build, decide in ((construct_vanisher, in_kernel),
                                  (construct_dominator, in_principal_ideal)):
                for _ in range(5):
                    s = build(src, 40)
                    verify_construction(s)
                    dec = decide(src, s.g())
                    dec.witness
        del s, dec
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_margin_settled_steps_take_no_inverse(monkeypatch):
    # each dominator step of the line is settled by its margin point, so
    # only the first asks for the inverse; no vanisher step is
    calls = []
    inverse = GFunction.inverse_point
    monkeypatch.setattr(GFunction, "inverse_point",
                        lambda self, y: calls.append(y) or inverse(self, y))
    construct_dominator(line_g(), 40)
    assert len(calls) == 1
    calls.clear()
    construct_vanisher(line_g(), 40)
    assert len(calls) == 39


def test_dominator_steps_past_the_floats_raise_construction_range():
    # g_A(t)^2 of an exponential leaves the floats by step 27, where v ** 2 raises
    with pytest.raises(ConstructionRange, match="^step values left the float range$"):
        construct_dominator(g_transform(exponential(1.0)), 27)


def test_vanisher_breakpoints_past_the_floats_raise_construction_range():
    # a p = 0 source's breakpoints run 1, 5047, 2.7e15, ..., 2.1e191, then overflow
    with pytest.raises(ConstructionRange, match="^breakpoint 7 left the float range$"):
        construct_vanisher(g_transform(power_log(p=0, q=1)), 40)


def _pinned_sources():
    """20 seeded sources: power-logs, pure powers, exponentials, shifted and
    dilated views, minima and sampled profiles with a power-log tail."""
    rng = random.Random(20)
    u = rng.uniform
    makers = [
        lambda: power_log(u(0.3, 3.0), rng.choice([1.0, u(0.2, 2.5)]), u(0.0, 2.0)),
        lambda: pure_power(u(0.3, 3.0), u(0.3, 3.0), u(0.3, 3.0)),
        lambda: exponential(u(0.2, 3.0)),
        lambda: shift(g_transform(power_log(1.0, u(0.5, 2.0), u(-0.3, 1.0))), u(-2, 2), u(-2, 2)),
        lambda: dilate(power_log(1.0, u(0.5, 2.0), u(0.0, 1.0)), u(0.3, 3.0)),
        lambda: pointwise_min(g_transform(power_log(1.0, u(1.0, 2.0), u(0.0, 1.5))),
                              g_transform(pure_power(u(0.8, 2.0), u(0.5, 2.0)))),
        lambda: sampled([0, 0.5, 1, 2, 3], [1, 0.8, 0.5, 0.3, 0.2],
                        tail=PowerLog(u(0.5, 2.0), u(0.8, 2.0), u(0.0, 1.0))),
    ]
    return [makers[i % len(makers)]() for i in range(20)]


def test_staircases_match_their_pinned_digest():
    # the sha256 of every breakpoint and step value, taken before margin
    # settled steps and float g: both must leave every bit in place
    h = hashlib.sha256()
    for src in _pinned_sources():
        for build in (construct_vanisher, construct_dominator):
            s = build(src, 24)
            h.update(repr((s.breakpoints, s.step_values)).encode())
    assert h.hexdigest() == "a0c8293de8aea22d7aaf3faedd581e4ebc8dd3dcd562bbbedbff1108665739c4"
