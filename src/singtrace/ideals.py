"""Order-theoretic membership for principal ideals and their kernels.

Two-sided ideals correspond to subsets of G closed under minima,
domination, and horizontal/vertical shifts.  The principal set generated
by B is

    H(B) = { f : exists a, b with f(t) >= b + g_B(t - a) eventually },

and its kernel consists of the f whose gap over some shifted copy of
g_B exceeds every constant from some point on.  Since vertical shifts
are free, strict slope dominance settles membership conclusively.  When
both sides carry exact growth profiles, the verdict is their order
alone, and the member's shift witness is checked on the tail grid only
when first read.  Otherwise each side is evaluated once on a tail grid,
honest about its horizon: only fitted slopes a margin apart decide.
A deficit refutes; a member also needs the a = 0 gap on that grid, and
anything else stays undecided.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .functions import GFunction, g_transform, knot_grid, pointwise_min, shift
from .errors import NotRegular
from .indices import is_regular

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided"


# The tail grid is fixed.  It covers the last half of the horizon (the
# inputs' shortest trusted horizon, else 200) in 1200 points.  Two fitted
# slopes differ when they lie more than the margin apart; a horizon member
# needs that difference, and is then witnessed by the a = 0 gap on the grid.
_TAIL_FRACTION = 0.5
_HORIZON_T = 200.0
_GRID_POINTS = 1200
_SLOPE_MARGIN = 0.05
_KERNEL_THRESHOLDS = (1.0, 10.0, 100.0)
_HORIZON_NOTE = "verified on the trusted horizon only"


@dataclass
class ShiftWitness:
    a: float
    b: float
    t0: float
    horizon: float
    n_points: int
    thresholds: tuple = ()  # (c, first t past which gap > c, verified?) triples


@dataclass
class SlopeCertificate:
    slope_a: float
    slope_b: float
    basis: str  # exact | fitted | construction
    window: tuple = ()
    detail: str = ""


class _Deferred:
    """A dataclass field that may hold a partial, called on the first read
    (repr, ==, asdict and replace read it too) and replaced by its value."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        if isinstance(value := obj.__dict__[self.name], partial):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass
class IdealDecision:
    verdict: str
    mode: str  # exact | horizon
    witness: ShiftWitness | None = _Deferred()  # exact members: built when first read
    refutation: SlopeCertificate | None = None
    note: str = ""
    dominating: GFunction | None = None


# ---------------------------------------------------------------------------
# grids and slope fits


def _tail_grid(ga: GFunction, gb: GFunction):
    horizons = [h for h in (ga.horizon_t, gb.horizon_t) if h is not None]
    T = min(horizons) if horizons else _HORIZON_T
    lo = _TAIL_FRACTION * T
    knots = [*ga.knots_in(lo, T), *gb.knots_in(lo, T)]
    return knot_grid(lo, T, _GRID_POINTS, knots, (0.0, 1.0)), T


def _fit_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of ys = g(ts): +inf where g is +inf on all of ts
    (it outgrows every line), nan with fewer than two finite values else."""
    keep = np.isfinite(ys)
    if np.count_nonzero(keep) < 2:
        return math.inf if np.all(ys == math.inf) else math.nan
    t, y = ts[keep], ys[keep]
    t = t - t.mean()
    _, e = math.frexp(float(np.max(np.abs(t))))
    t = np.ldexp(t, -e)  # a power-of-two scale is exact and keeps t @ t finite
    return math.ldexp(float(t @ (y - y.mean()) / (t @ t)), -e)


def _gap_trend_stable(gaps: np.ndarray) -> bool:
    n = len(gaps) // 2
    m1, m2 = float(np.min(gaps[:n])), float(np.min(gaps[n:]))
    return m2 == math.inf or m2 >= m1 - max(0.1, 0.02 * (abs(m1) + 1.0))


def _threshold_ladder(gaps: np.ndarray, ts: np.ndarray, cs) -> tuple:
    """(c, t0, crossed) per threshold, t0 = first grid point past which gap > c."""
    out = []
    for c in cs:
        above = gaps > c
        if above[-1]:
            # last index where the gap was <= c
            below = np.nonzero(~above)[0]
            idx = (below[-1] + 1) if len(below) else 0
            out.append((c, float(ts[idx]), True))
        else:
            out.append((c, None, False))
    return tuple(out)


# ---------------------------------------------------------------------------
# membership: one front end for the ideal and its kernel


def in_principal_ideal(ga, gb) -> IdealDecision:
    """Is the profile behind ga in the principal ideal generated by gb?"""
    return _decide(ga, gb, kernel=False)


def in_kernel(ga, gb) -> IdealDecision:
    """Is the profile behind ga in the kernel of the ideal generated by gb?

    Membership requires the shifted gap to exceed every constant from
    some point on, so bounded gaps refute it even when the ideal
    membership holds.
    """
    return _decide(ga, gb, kernel=True)


def _decide(ga, gb, kernel) -> IdealDecision:
    """Finite rank exits, then the exact or the horizon decision of each.

    With exact profiles on both sides the verdict is their order alone;
    otherwise a growth deficit fitted on the tail grid keeps ga out of the
    ideal, so out of its kernel too.
    """
    ga, gb = g_transform(ga), g_transform(gb)
    if ga.finite_rank:
        return IdealDecision(
            MEMBER, "exact",
            witness=ShiftWitness(0.0, 0.0, t0=_rank_t(ga), horizon=math.inf, n_points=0),
            note=f"finite rank profiles lie in every {'kernel' if kernel else 'ideal'}",
        )
    if gb.finite_rank:
        note = "finite rank base" if kernel else "finite rank base: its ideal is the finite rank ideal"
        return IdealDecision(NON_MEMBER, "exact", note=note)

    own = gb.family.construction  # a staircase against its own source: the rule decides
    if own is not None and (dec := own.membership(ga, gb, kernel)) is not None:
        return dec
    pa, pb = ga.profile, gb.profile
    if pa is not None and pb is not None:
        return _exact(ga, gb, pa, pb, kernel)
    ts, T = _tail_grid(ga, gb)
    ya, yb = ga.eval(ts), gb.eval(ts)
    sa, sb = _fit_slope(ts, ya), _fit_slope(ts, yb)
    if math.isnan(sa) or math.isnan(sb):
        return IdealDecision(UNDECIDED, "horizon", note="too few finite values of g to fit a slope")
    if sa < sb - _SLOPE_MARGIN:
        return _refuted("horizon", sa, sb, window=(float(ts[0]), float(ts[-1])))
    return _horizon(ya - yb, sa, sb, ts, T, kernel)


def _grid_witness(ts, T, a=0.0, b=0.0, ladder=()) -> ShiftWitness:
    """The shift (a, b) checked on the grid ts up to T."""
    return ShiftWitness(a, b, t0=float(ts[0]), horizon=T, n_points=len(ts), thresholds=ladder)


def _refuted(mode, slope_a, slope_b, window=(), detail="") -> IdealDecision:
    """NON_MEMBER by a slope deficit: exact slopes, or slopes fitted on window."""
    basis = "exact" if mode == "exact" else "fitted"
    return IdealDecision(NON_MEMBER, mode,
                         refutation=SlopeCertificate(slope_a, slope_b, basis, window, detail))


def _rank_t(g: GFunction) -> float:
    """The first t where g = +inf; g.a for the zero profile, +inf from the start."""
    t = g.inverse_point(sys.float_info.max)
    return g.a if t == -math.inf else t


def _profile_order(pa, pb):
    """'gt', 'lt', 'eq_const' (same slope and log term), or 'exp_pair' (both slopes inf)."""
    ka, kb = (pa.slope, pa.log_coeff), (pb.slope, pb.log_coeff)
    if ka > kb:
        return "gt"
    if ka < kb:
        return "lt"
    return "exp_pair" if pa.slope == math.inf else "eq_const"


def _exact(ga, gb, pa, pb, kernel) -> IdealDecision:
    """Verdict, note and refutation from the profile order; a member's
    witness is checked on the tail grid when first read."""
    order = _profile_order(pa, pb)
    if order == "lt":
        return _refuted("exact", pa.slope, pb.slope,
                        detail="no shift repairs a growth rate deficit")
    if order == "eq_const" and kernel:
        # same slope and log term (a larger log term orders the pair "gt")
        return _refuted("exact", pa.slope, pb.slope,
                        detail="equal growth: the shifted gap stays bounded")
    a, note = 0.0, ""
    if order == "exp_pair" and kernel:  # shift the rate strictly below
        a = math.log(pb.rate / pa.rate) + 1.0
        note = "a horizontal shift scales the rate below any multiple"
    elif order == "exp_pair":
        a = math.log(pb.rate / pa.rate)
        note = "exponential profiles generate one ideal"
    elif order == "eq_const":
        note = "equal growth: bounded gap absorbed by the vertical shift"
    witness = partial(_exact_witness, ga, gb, a, order, kernel, pa.const - pb.const)
    return IdealDecision(MEMBER, "exact", witness=witness, note=note)


def _exact_witness(ga, gb, a, order, kernel, const_gap) -> ShiftWitness:
    """The gap over gb shifted by a on the tail grid: its threshold ladder
    for the kernel, else the vertical shift b that absorbs it."""
    ts, T = _tail_grid(ga, gb)
    gaps = ga.eval(ts) - gb.eval(ts - a)
    if kernel:
        return _grid_witness(ts, T, a, ladder=_threshold_ladder(gaps, ts, _KERNEL_THRESHOLDS))
    min_gap = float(np.min(gaps))
    if order == "exp_pair":
        b = min(0.0, min_gap)
    elif order == "gt":
        b = 0.0 if min_gap >= 0.0 else min_gap - 1e-9
    else:  # same slope and log term: the gap converges to the constant difference
        b = min(min_gap, const_gap) - 0.5
    return _grid_witness(ts, T, a, b)


def _horizon(gaps, sa, sb, ts, T, kernel) -> IdealDecision:
    """With fitted slopes more than the margin apart, the kernel needs the
    gap past its first threshold, the ideal an a = 0 gap that holds up."""
    if sa <= sb + _SLOPE_MARGIN:
        return IdealDecision(UNDECIDED, "horizon",
                             note=f"fitted slopes {sa:.4g} vs {sb:.4g} lie within the margin")
    if kernel:
        ladder = _threshold_ladder(gaps, ts, _KERNEL_THRESHOLDS)
        if ladder[0][2]:
            return IdealDecision(MEMBER, "horizon", witness=_grid_witness(ts, T, ladder=ladder),
                                 note=_HORIZON_NOTE)
        return IdealDecision(UNDECIDED, "horizon", note="threshold ladder incomplete")
    if np.all(gaps > -math.inf) and _gap_trend_stable(gaps):  # +inf: ga overflowed
        b = float(np.min(gaps))
        return IdealDecision(MEMBER, "horizon", witness=_grid_witness(ts, T, b=b if b < 0 else 0.0),
                             note=_HORIZON_NOTE)
    return IdealDecision(UNDECIDED, "horizon", note="the a = 0 gap drifts down on the grid")


# ---------------------------------------------------------------------------
# face axioms and regular domination


@dataclass
class FaceAxiomReport:
    n_checks: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def face_axioms_check(family) -> FaceAxiomReport:
    """Closure spot checks for the principal set of each member.

    For every base B in the family: membership is closed under pointwise
    minima, under domination (grid checked), and invariant under
    horizontal and vertical shifts of the candidate.
    """
    fams = [g_transform(f) for f in family]
    if not fams:
        raise ValueError("need a nonempty family")
    checks = 0
    violations = []
    probe = np.linspace(5.0, 60.0, 111)
    for bi, base in enumerate(fams):
        verdicts = [in_principal_ideal(f, base).verdict for f in fams]
        members = [i for i, v in enumerate(verdicts) if v == MEMBER]
        # minima of members stay members
        for i in members:
            for j in members:
                if j < i:
                    continue
                checks += 1
                m = pointwise_min(fams[i], fams[j])
                if in_principal_ideal(m, base).verdict != MEMBER:
                    violations.append(("min_closure", f"base {bi}: min of {i}, {j} left H(B)"))
        # domination: f member and g >= f on the probe grid forces g member
        for i in members:
            fi = fams[i].eval(probe)
            for j, other in enumerate(fams):
                checks += 1
                if np.all(other.eval(probe) >= fi) and verdicts[j] != MEMBER:
                    violations.append(("domination", f"base {bi}: {j} dominates member {i}"))
        # shift invariance of the decision, both directions
        for i, f in enumerate(fams):
            if verdicts[i] == UNDECIDED:
                continue
            for a, b in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]:
                checks += 1
                moved = in_principal_ideal(shift(f, a, b), base).verdict
                if moved != verdicts[i]:
                    violations.append(
                        ("shift", f"base {bi}: candidate {i} changed verdict under shift {(a, b)}")
                    )
    return FaceAxiomReport(checks, tuple(violations))


def regular_domination(ga, B) -> IdealDecision:
    """Membership in the ideal of a regular B via a regular dominated witness.

    When A belongs, some shifted copy T of g_B (itself regular, since the
    indices are shift invariant) satisfies g_A >= g_T on the tail; the
    decision must agree with in_principal_ideal.
    """
    regular, _ = is_regular(B)
    if not regular:
        raise NotRegular("the base profile is not regular")
    gb = g_transform(B)
    dec = in_principal_ideal(ga, gb)
    if dec.verdict == MEMBER and dec.witness is not None:
        return replace(dec, dominating=shift(gb, dec.witness.a, dec.witness.b))
    return dec
