import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from singtrace import ideals
from singtrace.classify import dichotomy
from singtrace.errors import NotRegular
from singtrace.functions import (
    GFunction,
    dilate,
    exponential,
    g_step,
    g_transform,
    power_log,
    pure_power,
    sampled,
    shift,
    step_mu,
)
from singtrace.ideals import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    _fit_slope,
    _tail_grid,
    face_axioms_check,
    in_kernel,
    in_principal_ideal,
    regular_domination,
)
from singtrace.staircase import construct_dominator, construct_vanisher


def g_of(p=1.0, q=0.0, scale=1.0):
    return g_transform(power_log(scale=scale, p=p, q=q))


# ---------------------------------------------------------------------------
# principal ideal


def test_reflexive_membership_with_zero_witness():
    g = g_of(p=1)
    dec = in_principal_ideal(g, g)
    assert dec.verdict == MEMBER
    assert dec.witness.a == 0.0 and dec.witness.b <= 0.0


def test_slope_dominance_member():
    dec = in_principal_ideal(g_of(p=2), g_of(p=1))
    assert dec.verdict == MEMBER and dec.mode == "exact"


def test_slope_deficit_non_member():
    dec = in_principal_ideal(g_of(p=0.5), g_of(p=1))
    assert dec.verdict == NON_MEMBER
    assert dec.refutation is not None
    assert dec.refutation.slope_a < dec.refutation.slope_b


def test_log_term_breaks_ties():
    assert in_principal_ideal(g_of(p=1, q=2), g_of(p=1)).verdict == MEMBER
    assert in_principal_ideal(g_of(p=1, q=-1), g_of(p=1)).verdict == NON_MEMBER


def test_order_reversal_gives_zero_shift_witness():
    # mu_A <= mu_B pointwise, so g_A >= g_B and (0, 0) must witness
    ga, gb = g_of(p=2), g_of(p=1)
    xs = np.exp(np.linspace(-3, 20, 100))
    assert np.all(power_log(p=2).eval(xs) <= power_log(p=1).eval(xs))
    dec = in_principal_ideal(ga, gb)
    assert dec.verdict == MEMBER and dec.witness.a == 0.0 and dec.witness.b == 0.0


def test_finite_rank_policies():
    fr = g_transform(step_mu([0, 1, 2], [2.0, 1.0]))
    assert in_principal_ideal(fr, g_of(p=1)).verdict == MEMBER
    assert in_principal_ideal(g_of(p=1), fr).verdict == NON_MEMBER
    assert in_principal_ideal(fr, fr).verdict == MEMBER


def test_finite_rank_witness_starts_at_the_last_jump():
    samples = sampled([1.0, 2.0, 4.0], [1.0, 0.5, 0.0])
    steps = step_mu([0, 1, 4], [2.0, 1.0])
    for fr in (samples, steps):
        assert in_principal_ideal(fr, g_of(p=1)).witness.t0 == math.log(4.0)
        assert in_kernel(dilate(fr, 2.0), g_of(p=1)).witness.t0 == math.log(4.0) - math.log(2.0)
    zero = dilate(step_mu([0], []), 2.0)
    assert in_principal_ideal(zero, g_of(p=1)).witness.t0 == -math.log(2.0)


def test_finite_rank_witness_starts_where_g_turns_infinite():
    # mu vanishes from x = 2 although the grid runs on to 4
    trailing_zeros = sampled([1.0, 2.0, 4.0], [1.0, 0.0, 0.0])
    assert in_principal_ideal(trailing_zeros, g_of(p=1)).witness.t0 == math.log(2.0)
    assert in_kernel(trailing_zeros, g_of(p=1)).witness.t0 == math.log(2.0)
    # g is +inf from its first breakpoint on
    stair = g_step([1.0, 2.0], [0.0, math.inf, math.inf])
    assert in_principal_ideal(stair, g_of(p=1)).witness.t0 == 1.0
    assert in_kernel(shift(stair, 0.5, 0.0), g_of(p=1)).witness.t0 == 1.5


def test_exponentials_generate_one_ideal():
    a, b = g_transform(exponential(1.0)), g_transform(exponential(3.0))
    assert in_principal_ideal(a, b).verdict == MEMBER
    assert in_principal_ideal(b, a).verdict == MEMBER
    # and dominate every power profile's ideal requirement
    assert in_principal_ideal(a, g_of(p=1)).verdict == MEMBER
    assert in_principal_ideal(g_of(p=1), a).verdict == NON_MEMBER


# ---------------------------------------------------------------------------
# kernel


def test_kernel_examples():
    assert in_kernel(g_of(p=2), g_of(p=1)).verdict == MEMBER
    g = g_of(p=1)
    assert in_kernel(g, g).verdict == NON_MEMBER
    # scalar multiple: gap is log 2, bounded
    assert in_kernel(g_of(p=1, scale=2.0), g_of(p=1, scale=1.0)).verdict == NON_MEMBER


def test_kernel_refutation_by_an_exponential_base():
    # an exponential outgrows every slope: the kernel certificate matches
    # the ideal's instead of reading the profile's unused slope field
    a, b = g_of(p=1), g_transform(exponential(1.0))
    for dec in (in_principal_ideal(a, b), in_kernel(a, b)):
        assert dec.verdict == NON_MEMBER
        cert = dec.refutation
        assert (cert.slope_a, cert.slope_b, cert.basis) == (1.0, math.inf, "exact")
        assert cert.detail == "no shift repairs a growth rate deficit"


def test_kernel_subset_of_ideal_on_suite(symbolic_suite):
    gs = [g_transform(mu) for _, mu in symbolic_suite]
    for ga in gs:
        for gb in gs:
            if in_kernel(ga, gb).verdict == MEMBER:
                assert in_principal_ideal(ga, gb).verdict == MEMBER


def test_kernel_threshold_ladder_recorded():
    dec = in_kernel(g_of(p=2), g_of(p=1))
    assert dec.witness is not None
    ladder = dec.witness.thresholds
    assert [c for c, _, _ in ladder] == [1.0, 10.0, 100.0]
    t0s = [t for _, t, ok in ladder if ok]
    assert len(t0s) >= 1 and t0s == sorted(t0s)


def test_exponential_in_own_kernel():
    # a horizontal shift strictly lowers the rate, so the gap diverges
    g = g_transform(exponential(1.0))
    assert in_kernel(g, g).verdict == MEMBER


# ---------------------------------------------------------------------------
# shift and dilation stability


def test_shift_absorption():
    base = g_of(p=1)
    for a, b in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]:
        moved = shift(base, a, b)
        for ga in [g_of(p=2), g_of(p=0.5), g_of(p=1, q=2)]:
            assert in_principal_ideal(ga, moved).verdict == in_principal_ideal(ga, base).verdict
            assert in_kernel(ga, moved).verdict == in_kernel(ga, base).verdict


def test_dilation_invariance_of_faces():
    base = g_of(p=1)
    for name, mu in [("p2", power_log(p=2)), ("pq", power_log(p=1, q=2))]:
        assert in_principal_ideal(g_transform(mu), base).verdict == MEMBER
        for lam in [2.0, 10.0]:
            moved = g_transform(dilate(mu, lam))
            assert in_principal_ideal(moved, base).verdict == MEMBER, name


# ---------------------------------------------------------------------------
# horizon mode


def test_horizon_mode_staircase_vs_line():
    # sqrt-growth staircase against the line g(t) = t
    bps = [float(((n * (n + 1)) // 2) ** 2) for n in range(1, 41)]
    vals = [float((n * (n + 1)) // 2) for n in range(1, 41)]
    stair = g_step(bps, [vals[0]] + vals, integrable=False)
    line = g_transform(pure_power(p=1))
    assert in_kernel(line, stair).verdict == MEMBER
    assert in_principal_ideal(line, stair).verdict == MEMBER
    # and the staircase is not in the ideal of the line... it is:
    # sqrt growth < linear growth
    assert in_principal_ideal(stair, line).verdict == NON_MEMBER


def test_horizon_mode_equal_slope_sampled_is_undecided_kernel():
    xs = np.exp(np.linspace(0.0, 25.0, 2000))
    a = sampled(xs, 1.0 / xs)
    b = sampled(xs, 2.0 / xs)
    dec = in_kernel(g_transform(a), g_transform(b))
    assert dec.verdict == UNDECIDED
    # 1/x against 2/x: equal slopes, so the grid cannot show the gap stays bounded
    ideal = in_principal_ideal(g_transform(a), g_transform(b))
    assert ideal.verdict == UNDECIDED and ideal.mode == "horizon"


# the 200-point log-spaced grid to t = 40 of the benchmark's sampled profiles
BENCH_GRID = tuple(math.exp(40.0 * i / 199) for i in range(200))


def sampled_power_log(p, q=0.0, scale=1.0):
    """scale (x+e)^-p log(x+e)^-q on BENCH_GRID, without a tail: horizon mode."""
    return sampled(BENCH_GRID, [scale * (x + math.e) ** -p * math.log(x + math.e) ** -q
                                for x in BENCH_GRID])


def test_horizon_ideal_near_equal_growth_is_undecided():
    # B's p is 0.0025 larger, so A is not a member; the fitted slopes on
    # [20, 40] lie within the margin and the unshifted gap drifts down, so
    # there is neither a witness nor a refutation
    dec = in_principal_ideal(sampled_power_log(0.86415), power_log(p=0.86666, q=1.083))
    assert dec.verdict == UNDECIDED and dec.mode == "horizon" and dec.witness is None


@pytest.mark.parametrize("a, b", [
    (sampled_power_log(1.7), power_log(1.1, 0.7)),
    (sampled_power_log(0.86415), power_log(p=0.86666, q=1.083)),
])
@pytest.mark.parametrize("decide", [in_principal_ideal, in_kernel])
def test_horizon_decision_evaluates_each_side_once(monkeypatch, decide, a, b):
    calls = []
    evaluate = GFunction.eval
    monkeypatch.setattr(GFunction, "eval", lambda self, t: calls.append(t) or evaluate(self, t))
    assert decide(a, b).mode == "horizon"
    assert len(calls) == 2


def test_well_separated_horizon_pairs_keep_their_verdicts():
    # A sampled, B exact, |p_A - p_B| in [0.1, 1]; truth is the
    # lexicographic (p, q) order of bench/oracle.py.  The 3 undecided
    # verdicts: the kernel of (p, q) = (1.265, -0.129) against (1.075,
    # 1.972), whose threshold ladder stays incomplete by t = 40, and both
    # decisions of (1.926, 1.761) against (2.029, -0.068), whose fitted
    # slopes on [20, 40] differ by less than the margin.
    rng = random.Random(11)
    wrong, undecided = [], []
    for _ in range(200):
        pa = rng.uniform(0.2, 2.5)
        pb = pa + rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)
        qa, qb = rng.uniform(-0.2, 2.0), rng.uniform(-0.2, 2.0)
        sa, sb = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        if pb < 0.2:
            continue
        a, b = sampled_power_log(pa, qa, sa), power_log(scale=sb, p=pb, q=qb)
        for decide, want in ((in_principal_ideal, (pa, qa) >= (pb, qb)),
                             (in_kernel, (pa, qa) > (pb, qb))):
            verdict = decide(a, b).verdict
            if verdict == UNDECIDED:
                undecided.append((decide.__name__, pa, qa, pb, qb))
            elif (verdict == MEMBER) != want:
                wrong.append((decide.__name__, pa, qa, pb, qb, verdict))
    assert wrong == []
    assert len(undecided) <= 3, undecided


def test_near_equal_horizon_pairs_give_no_wrong_member():
    # A sampled, B exact, |p_A - p_B| < 0.05; truth is the lexicographic
    # (p, q) order.  Fitted slopes within the margin leave both decisions
    # undecided.  The wrong verdicts left are fitted-slope refutations
    # (q_B = 1.5 and 1.8: q_B log t adds about q_B / t to B's fitted slope);
    # an error bar on the fit would remove them, so this bound only falls.
    rng = random.Random(6)
    wrong = {in_principal_ideal: [], in_kernel: []}
    for _ in range(150):
        pa = rng.uniform(0.5, 2.5)
        pb = pa + rng.uniform(-0.05, 0.05)
        qa, qb = 0.0, rng.uniform(-0.4, 2.0)
        sa, sb = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        a, b = sampled_power_log(pa, qa, sa), power_log(scale=sb, p=pb, q=qb)
        for decide, want in ((in_principal_ideal, (pa, qa) >= (pb, qb)),
                             (in_kernel, (pa, qa) > (pb, qb))):
            dec = decide(a, b)
            if dec.verdict != UNDECIDED and (dec.verdict == MEMBER) != want:
                wrong[decide].append(dec)
    for decs in wrong.values():
        assert len(decs) <= 2
        assert all(d.verdict == NON_MEMBER and d.refutation.basis == "fitted" for d in decs)


def test_p0_dominators_read_back_as_g_steps_are_never_members():
    # a dominator keeps its source out of its ideal.  Read back as a plain
    # g_step (as the CLI's construct JSON is), the tail grid of a p = 0
    # source can lie within its flat top step: no slope evidence, undecided
    rng = random.Random(4)
    sources = []
    for _ in range(40):
        q = rng.uniform(0.2, 3.0)
        sources.append(power_log(scale=rng.uniform(0.5, 4.0), p=0.0, q=q))
    verdicts = []
    for n in (12, 40):
        for src in sources:
            fam = construct_dominator(g_transform(src), n).g().family
            rebuilt = g_step(fam.breakpoints, fam.values, fam.horizon, fam.integrable, fam.label)
            verdicts.append(in_principal_ideal(src, rebuilt).verdict)
    assert MEMBER not in verdicts and len(verdicts) == 80
    assert verdicts.count(NON_MEMBER) >= 24


def test_fit_slope_scales_far_breakpoints_without_overflow():
    # the 5-step vanisher of a p = 0 source reaches t = 1.8e268, where the
    # unscaled t @ t overflowed; the suite turns that warning into an error
    src = power_log(4.086293764962452, 0.0, 0.36294455872633424)
    fam = construct_vanisher(g_transform(src), 5).g().family
    rebuilt = g_step(fam.breakpoints, fam.values, fam.horizon, fam.integrable, fam.label)
    assert rebuilt.horizon_t > 1e268
    for decide in (in_kernel, in_principal_ideal):
        dec = decide(src, rebuilt)
        assert (dec.verdict, dec.mode) == (UNDECIDED, "horizon")
        assert dec.note.endswith("lie within the margin")
    # a power-of-two scale of t is exact: the slope scales by its inverse
    ts = np.linspace(20.0, 40.0, 9)
    ys = np.log(ts) + 0.5 * ts
    assert _fit_slope(ts * 2.0 ** 900, ys) == _fit_slope(ts, ys) * 2.0 ** -900


def test_fit_slope_matches_polyfit():
    # np.polyfit stays the oracle of the closed-form least-squares slope
    rng = random.Random(19)
    line = g_transform(pure_power(p=1))
    checked = 0
    for _ in range(40):
        pa, pb = rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5)
        a = sampled_power_log(pa, rng.uniform(-0.2, 2.0), rng.uniform(0.5, 2.0))
        b = power_log(scale=rng.uniform(0.5, 2.0), p=pb, q=rng.uniform(-0.2, 2.0))
        sides = [g_transform(a), g_transform(b)]
        ts, _ = _tail_grid(*sides)
        for g in sides:
            ys = g.eval(ts)
            want = float(np.polyfit(ts, ys, 1)[0])
            assert abs(_fit_slope(ts, ys) - want) <= 1e-14 * abs(want)
            checked += 1
    # step profiles: a staircase's knots are grid points and its fitted slope is small
    for s in (construct_vanisher(line, 40), construct_dominator(line, 12)):
        ts, _ = _tail_grid(line, s.g())
        ys = s.g().eval(ts)
        want = float(np.polyfit(ts, ys, 1)[0])
        assert abs(_fit_slope(ts, ys) - want) <= 1e-14 * abs(want)
    # a slope from the finite values only, and the two exits
    ts = np.linspace(20.0, 40.0, 9)
    ys = 3.0 * ts + 1.0
    ys[[0, 4]] = [math.inf, math.nan]
    keep = np.isfinite(ys)
    want = float(np.polyfit(ts[keep], ys[keep], 1)[0])
    assert abs(_fit_slope(ts, ys) - want) <= 1e-14 * abs(want)
    assert _fit_slope(ts, np.full(9, math.inf)) == math.inf
    assert math.isnan(_fit_slope(ts, np.where(ts < 21.0, 1.0, math.inf)))  # one finite value
    assert math.isnan(_fit_slope(ts, np.full(9, math.nan)))
    assert checked == 80


EXACT_ORDERS = {
    "lt": (power_log(p=1), power_log(p=2)),
    "gt": (power_log(p=2), power_log(p=1)),
    "eq_const": (power_log(p=1, q=0.5), shift(g_of(p=1, q=0.5), 0.0, 1.5)),
    "exp_pair": (exponential(2.0), exponential(0.5)),
}


def test_exact_growth_refutation_builds_no_tail_grid(monkeypatch):
    # exact profiles settle every verdict from their order alone; the
    # tail grid is built only when a member's witness is read
    want = {(order, decide): decide(*pair)
            for order, pair in EXACT_ORDERS.items() for decide in (in_principal_ideal, in_kernel)}

    def no_grid(*args):
        raise AssertionError("tail grid built")

    monkeypatch.setattr(ideals, "_tail_grid", no_grid)
    for (order, decide), ref in want.items():
        dec = decide(*EXACT_ORDERS[order])
        assert (dec.verdict, dec.mode, dec.refutation, dec.note) == (
            ref.verdict, ref.mode, ref.refutation, ref.note)
        if dec.verdict == NON_MEMBER:
            assert order == "lt" or (order, decide) == ("eq_const", in_kernel)
            assert dec.witness is None
        else:
            with pytest.raises(AssertionError, match="tail grid built"):
                dec.witness
    assert dichotomy(power_log(p=2), power_log(p=1)).outcome == "zero"
    assert face_axioms_check([g_of(p=1), g_of(p=2), g_of(p=1, q=1)]).ok


# Reprs of exact decisions as computed with an eager witness grid.
_EAGER_REPRS = {
    ("gt", in_principal_ideal):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness(a=0.0, b=0.0, "
        "t0=100.0, horizon=200.0, n_points=1200, thresholds=()), refutation=None, note='', "
        "dominating=None)",
    ("gt", in_kernel):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness(a=0.0, b=0.0, "
        "t0=100.0, horizon=200.0, n_points=1200, thresholds=((1.0, 100.0, True), "
        "(10.0, 100.0, True), (100.0, 100.08340283569642, True))), refutation=None, note='', "
        "dominating=None)",
    ("eq_const", in_principal_ideal):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness(a=0.0, "
        "b=-2.000000000000014, t0=100.0, horizon=200.0, n_points=1200, thresholds=()), "
        "refutation=None, note='equal growth: bounded gap absorbed by the vertical shift', "
        "dominating=None)",
    ("eq_const", in_kernel):
        "IdealDecision(verdict='non_member', mode='exact', witness=None, "
        "refutation=SlopeCertificate(slope_a=1, slope_b=1, basis='exact', window=(), "
        "detail='equal growth: the shifted gap stays bounded'), note='', dominating=None)",
    ("exp_pair", in_principal_ideal):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness("
        "a=-1.3862943611198906, b=-5.521397077432451e+72, t0=100.0, horizon=200.0, "
        "n_points=1200, thresholds=()), refutation=None, "
        "note='exponential profiles generate one ideal', dominating=None)",
    ("exp_pair", in_kernel):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness("
        "a=-0.3862943611198906, b=0.0, t0=100.0, horizon=200.0, n_points=1200, "
        "thresholds=((1.0, 100.0, True), (10.0, 100.0, True), (100.0, 100.0, True))), "
        "refutation=None, note='a horizontal shift scales the rate below any multiple', "
        "dominating=None)",
    ("gt_low", in_principal_ideal):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness(a=0.0, "
        "b=-400.000000001, t0=100.0, horizon=200.0, n_points=1200, thresholds=()), "
        "refutation=None, note='', dominating=None)",
    ("gt_low", in_kernel):
        "IdealDecision(verdict='member', mode='exact', witness=ShiftWitness(a=0.0, b=0.0, "
        "t0=100.0, horizon=200.0, n_points=1200, thresholds=((1.0, None, False), "
        "(10.0, None, False), (100.0, None, False))), refutation=None, note='', "
        "dominating=None)",
}


@pytest.mark.parametrize("order, decide", list(_EAGER_REPRS), ids=lambda v: getattr(v, "__name__", v))
def test_exact_decision_reprs_match_the_eager_grid(order, decide):
    pairs = {**EXACT_ORDERS, "gt_low": (shift(g_of(p=2), 0.0, -500.0), power_log(p=1))}
    dec = decide(*pairs[order])
    unread = pickle.loads(pickle.dumps(dec))
    assert repr(dec) == _EAGER_REPRS[order, decide]
    assert repr(unread) == _EAGER_REPRS[order, decide]


def _exact_family(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return g_of(p=rng.choice([0.5, 1.0, 2.0]), q=rng.choice([0.0, 0.5, -0.25]),
                    scale=rng.choice([0.5, 1.0, 3.0]))
    if kind == 1:
        return g_transform(pure_power(p=rng.choice([0.5, 1.0, 2.0]), scale=rng.choice([1.0, 2.0])))
    if kind == 2:
        return g_transform(exponential(rng.choice([0.5, 1.0, 2.0])))
    if kind == 3:
        return shift(g_of(p=rng.choice([1.0, 2.0])), rng.uniform(-2, 2), rng.uniform(-2, 2))
    return g_transform(dilate(power_log(p=rng.choice([1.0, 2.0])), rng.choice([0.5, 2.0])))


def test_a_witness_read_late_matches_one_read_at_once():
    rng = random.Random(29)
    for _ in range(300):
        ga, gb = _exact_family(rng), _exact_family(rng)
        for decide in (in_principal_ideal, in_kernel):
            now = decide(ga, gb)
            _ = now.witness  # read at once
            late = decide(ga, gb)
            pickled, copied = pickle.dumps(late), copy.deepcopy(late)
            assert late == now and repr(late) == repr(now)
            assert dataclasses.asdict(late) == dataclasses.asdict(now)
            assert repr(pickle.loads(pickled)) == repr(now) == repr(copied)
            if now.verdict == MEMBER:
                assert now.mode == "exact" and now.witness.n_points == 1200


def test_regular_domination_keeps_its_dominating_shift():
    base = power_log(p=1, q=0.5)
    dec = regular_domination(shift(g_transform(base), 0.0, 1.5), base)
    assert dec.witness.b == 0.9999999999999858
    assert dec.dominating.profile.const == 0.9999999999999858
    got = dec.dominating.eval(np.array([1.0, 10.0, 150.0])).tolist()
    assert got == [2.9564416976294536, 12.151422118758148, 153.50531764704812]
    low = regular_domination(shift(g_of(p=2), 0.0, -500.0), power_log(p=1))
    assert low.dominating.eval(np.array([1.0, 10.0, 150.0])).tolist() == [
        -398.30685282044004, -389.99987659881026, -250.000000001]


# ---------------------------------------------------------------------------
# face axioms


def test_face_axioms_base_and_shift():
    g = g_of(p=1)
    rep = face_axioms_check([g, shift(g, 0.0, 5.0)])
    assert rep.ok and rep.n_checks > 4


def test_face_axioms_two_powers():
    rep = face_axioms_check([g_of(p=1), g_of(p=2)])
    assert rep.ok


def test_face_axioms_singleton():
    rep = face_axioms_check([g_of(p=0.5)])
    assert rep.ok


# ---------------------------------------------------------------------------
# regular domination


def test_regular_domination_agrees_and_returns_witness():
    dec = regular_domination(g_of(p=2), power_log(p=1))
    assert dec.verdict == MEMBER
    assert dec.dominating is not None
    ts = np.linspace(10, 100, 200)
    assert np.all(g_of(p=2).eval(ts) >= dec.dominating.eval(ts) - 1e-9)
    assert regular_domination(g_of(p=0.5), power_log(p=1)).verdict == NON_MEMBER
    same = regular_domination(g_of(p=1), power_log(p=1))
    assert same.verdict == MEMBER


def test_regular_domination_rejects_irregular_base():
    bps = [float(((n * (n + 1)) // 2) ** 2) for n in range(1, 21)]
    vals = [float((n * (n + 1)) // 2) for n in range(1, 21)]
    stair = g_step(bps, [vals[0]] + vals, integrable=False)
    with pytest.raises(NotRegular):
        regular_domination(g_of(p=2), stair)


def test_regular_domination_agreement_on_suite(symbolic_suite):
    base = power_log(p=1)
    for name, mu in symbolic_suite:
        ga = g_transform(mu)
        assert regular_domination(ga, base).verdict == in_principal_ideal(
            ga, g_transform(base)
        ).verdict, name
