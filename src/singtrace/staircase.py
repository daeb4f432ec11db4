"""Inductive staircase constructions.

Given a compact-type profile with logarithmic coordinate g_A (finite
valued and unbounded), two greedy breakpoint procedures produce a
companion step profile g whose growth indices collapse to (0, inf),
which makes the companion singularly traceable, while its steps are
pinned to a power of g_A:

* vanisher: steps at height sqrt(g_A(t_n)); since g <= sqrt(g_A) and
  g_A - sqrt(g_A) diverges, the source profile lands in the kernel of
  the companion's ideal (every singular trace there vanishes on it).
* dominator: steps at height g_A(t_{n+1})^2, so g >= g_A^2 on the
  constructed range and the source profile stays outside the
  companion's ideal (some singular trace is infinite on it).

Breakpoints follow the minimal greedy rule

    t_{n+1} = max(t_n + (n+1), inf{ t : phi(g_A(t)) > phi(g_A(t_n)) + (n+1) })

with phi the square root or the square.  The margin n+1 makes both gap
requirements (breakpoint gaps and phi gaps exceeding n) hold strictly,
and the rule is deterministic, so a construction is reproducible from
its inputs.  Sources whose g may dip below 1 are raised by a vertical
offset first (harmless: ideal membership is shift invariant), since the
square root step heights assume g_A >= 1.

Every family inverts its own g exactly (GFunction.inverse_point): a
closed form for lines, power-logs and exponentials, the start of the
first step above the level for step profiles, the later of the two
sides' answers for a minimum.  The breakpoint is that inverse or the
margin point t_n + n + 1, whichever is later, at 1.05 scalar g
evaluations per breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Bounded, ConstructionRange, FiniteRank, TooFewSteps, VerificationFailed
from .functions import GFunction, _below_sum, g_step, g_transform, shift
from .ideals import _KERNEL_THRESHOLDS
from .indices import matuszewska

VANISHER = "vanisher"
DOMINATOR = "dominator"

_START_T = 1.0  # the first breakpoint


@dataclass(frozen=True)
class StaircaseConstruction:
    variant: str
    breakpoints: tuple  # t_1 < t_2 < ... < t_N
    step_values: tuple  # value on [t_n, t_{n+1}) per piece
    source: GFunction
    normalization_offset: float
    start_t: float
    rule: str

    @property
    def n_steps(self):
        return len(self.breakpoints)

    def g(self) -> GFunction:
        """The staircase as a G-side step profile, integrability attached; one
        view per construction, so its knots are computed once."""
        return self._g

    @cached_property
    def _g(self) -> GFunction:
        bps = self.breakpoints
        values = (self.step_values[0],) + self.step_values
        if self.variant == VANISHER:
            horizon = bps[-1] + len(bps) + 1
        else:
            horizon = bps[-1]
            bps = bps[:-1]
        return g_step(
            bps,
            values,
            horizon=horizon,
            integrable=_tail_integrability(self.variant, self.source),
            label=f"{self.variant} staircase",
        )

    def normalized_source(self) -> GFunction:
        return shift(self.source, 0.0, self.normalization_offset)


def _tail_integrability(variant, source: GFunction):
    """Integrability of the full (infinite) staircase, via the source growth.

    Piece masses behave like exp(t_{n+1} - w_n) with w_n the step value,
    so the series converges exactly when the heights outrun the
    breakpoints.  sqrt of linear-ish growth stays below t (divergent);
    squared growth with positive slope outruns it (convergent);
    exponential sources outrun t under both powers.  Without an exact
    profile the continuation is unknown.
    """
    p = source.profile
    if p is None:
        return None
    return p.slope == math.inf or (variant == DOMINATOR and p.slope > 0)


def _construct(variant: str, source, n_steps: int) -> StaircaseConstruction:
    g_src = g_transform(source)
    if g_src.finite_rank:
        raise FiniteRank("the source profile has finite rank")
    if n_steps < 2:
        raise TooFewSteps(f"need at least 2 steps, got {n_steps}")
    g0 = g_src(_START_T)
    if not math.isfinite(g0):
        raise FiniteRank("g is infinite at the starting point")
    offset = max(0.0, 1.0 - g0)
    gA = shift(g_src, 0.0, offset)
    phi = math.sqrt if variant == VANISHER else (lambda y: y * y)
    phi_inv = (lambda v: v * v) if variant == VANISHER else math.sqrt

    horizon = g_src.horizon_t
    ts = [_START_T]
    gs = [gA(_START_T)]  # gA at each breakpoint
    for n in range(1, n_steps):
        level = phi_inv(phi(gs[-1]) + (n + 1))  # g must exceed this level
        t_next = gA.inverse_point(level)
        if t_next is None:
            raise Bounded(f"g never exceeds {level:.6g} on the trusted range (up to {horizon:.3g})")
        t_next = max(t_next, ts[-1] + (n + 1))
        if not math.isfinite(t_next):
            raise ConstructionRange(f"breakpoint {n + 1} left the float range")
        if horizon is not None and t_next > horizon:
            raise Bounded("construction ran past the trusted horizon of the source")
        ts.append(float(t_next))
        gs.append(gA(t_next))

    if variant == VANISHER:
        values = tuple(math.sqrt(v) for v in gs)
    else:
        values = tuple(v ** 2 for v in gs[1:])
    if not all(math.isfinite(v) for v in values):
        raise ConstructionRange("step values left the float range")

    return StaircaseConstruction(
        variant=variant,
        breakpoints=tuple(ts),
        step_values=values,
        source=g_src,
        normalization_offset=offset,
        start_t=_START_T,
        rule="greedy minimal breakpoints, margin n+1, exact inverse of g",
    )


def construct_vanisher(source, n_steps: int = 40) -> StaircaseConstruction:
    """Companion whose ideal kernel swallows the source profile."""
    return _construct(VANISHER, source, n_steps)


def construct_dominator(source, n_steps: int = 40) -> StaircaseConstruction:
    """Companion whose ideal excludes the source profile."""
    return _construct(DOMINATOR, source, n_steps)


# ---------------------------------------------------------------------------
# verification

# a staircase's indices must collapse to at most 0.1 and at least 10, and
# its kernel or exclusion condition must hold at each c of the kernel ladder
_DELTA_LOWER_MAX = 0.1
_DELTA_UPPER_MIN = 10.0


@dataclass
class StaircaseVerification:
    variant: str
    gap_margins: tuple  # min over n of (t_{n+1} - t_n - n, phi gap - n)
    delta_lower: float
    delta_upper: float
    condition_t0: tuple  # (c, t0) pairs for the kernel/exclusion condition
    envelope_ok: bool


def _slack(bound: np.ndarray) -> np.ndarray:
    """A few ulps of the bound, at least 1e-12: steps and bound round apart."""
    return np.fmax(1e-12, 4.0 * np.spacing(np.abs(bound)))


def verify_construction(s: StaircaseConstruction) -> StaircaseVerification:
    """Re-derive every promised property of a staircase from scratch.

    Checks, in order: both gap conditions with zero tolerance, the index
    collapse on the staircase itself, the envelope against the
    appropriate power of the source, and the kernel or exclusion
    condition on a c ladder.  Raises VerificationFailed naming the first
    violated check.  Steps are constant and the source nondecreasing, so each
    check reads one point per step (t_n, or t_{n+1} and the float below), and
    each t0 is a knot or one inverse_point crossing of the source."""
    bps = np.asarray(s.breakpoints)
    ns = np.arange(1, len(bps))

    gaps = np.diff(bps)
    if not np.all(gaps > ns):
        raise VerificationFailed("breakpoint_gaps: t_{n+1} - t_n > n violated")

    gA = s.normalized_source()
    phi_vals = np.sqrt(gA.eval(bps)) if s.variant == VANISHER else gA.eval(bps) ** 2
    phi_gaps = np.diff(phi_vals)
    if not np.all(phi_gaps > ns):
        raise VerificationFailed("phi_gaps: transformed value gaps must exceed n")
    gap_margins = (float(np.min(gaps - ns)), float(np.min(phi_gaps - ns)))

    stair = s.g()
    rep = matuszewska(stair)
    if not (rep.delta_lower <= _DELTA_LOWER_MAX and rep.delta_upper >= _DELTA_UPPER_MIN):
        raise VerificationFailed(
            f"indices: ({rep.delta_lower:.4g}, {rep.delta_upper:.4g}) "
            f"outside [<= {_DELTA_LOWER_MAX}, >= {_DELTA_UPPER_MIN}]"
        )

    w, src = np.asarray(s.step_values), s.source
    if s.variant == VANISHER:
        if not np.all(w <= phi_vals + _slack(phi_vals)):
            raise VerificationFailed("envelope: staircase exceeds sqrt of the source")
        ends = np.append(bps[1:], stair.horizon_t)  # step n holds on [t_n, ends[n]]
        # source - staircase, which must exceed every c: least at each t_n, then at the end
        cond = src.eval(np.append(bps, ends[-1])) - np.append(w, w[-1])
        least, cs = cond[:-1], _KERNEL_THRESHOLDS
    else:
        if not np.all(w >= phi_vals[1:] - _slack(phi_vals[1:])):
            raise VerificationFailed("envelope: staircase drops below the squared source")
        # exclusion, source < c + staircase: least just below each t_{n+1}, and at t_N
        ends, cs = bps[1:], tuple(-c for c in _KERNEL_THRESHOLDS)
        cond = least = w - src.eval(np.append(np.nextafter(bps[1:-1], -np.inf), bps[-1]))

    t0s = []
    for c in cs:
        if not cond[-1] > c:
            raise VerificationFailed(f"condition: threshold c = {abs(c)} never permanently met")
        failing = np.flatnonzero(least <= c)
        t0 = ends[failing[-1]] if len(failing) else bps[0]
        if len(failing) and s.variant == VANISHER:
            # source - w_n > c just where the source exceeds _below_sum(-w_n, c)
            n = failing[-1]
            t0 = min(max(src.inverse_point(_below_sum(-w[n], c)), bps[n]), t0)
        t0s.append((abs(c), float(t0)))
    if [t for _, t in t0s] != sorted(t for _, t in t0s):
        raise VerificationFailed("condition: t0 must be non-decreasing in c")

    return StaircaseVerification(
        variant=s.variant,
        gap_margins=gap_margins,
        delta_lower=rep.delta_lower,
        delta_upper=rep.delta_upper,
        condition_t0=tuple(t0s),
        envelope_ok=True,
    )
