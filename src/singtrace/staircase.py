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
margin point t_n + n + 1, whichever is later.  After a step the margin
settled, g at the next margin point is read first: if it already exceeds
the level, the inverse lies at or before it and is not needed.  That is
every dominator step of a line or a power-log, so both variants take
about one scalar g evaluation per breakpoint.

The staircase's step profile keeps the StaircaseRule that built it, so
the ideal decisions answer exactly for a staircase against its own
source (StaircaseRule.membership): the proof needs only the gap rule and
the envelope, which verify_construction checks with the same memoized code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import Bounded, ConstructionRange, FiniteRank, TooFewSteps, VerificationFailed
from .functions import GFunction, _below_sum, g_step, g_transform, shift
from .ideals import (
    _KERNEL_THRESHOLDS,
    MEMBER,
    NON_MEMBER,
    IdealDecision,
    ShiftWitness,
    SlopeCertificate,
)
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
        rule = StaircaseRule(self.variant, self.source, self.normalization_offset,
                             self.breakpoints, self.step_values)
        stair = g_step(
            self.breakpoints if self.variant == VANISHER else self.breakpoints[:-1],
            (self.step_values[0],) + self.step_values,
            horizon=rule.end,
            integrable=_tail_integrability(self.variant, self.source),
            label=f"{self.variant} staircase",
        )
        # an attribute, not a field: equality, repr and replace see the steps alone
        object.__setattr__(stair.family, "construction", rule)
        return stair

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
    margin_settled = False  # the margin point t_n + n + 1 settled the last step
    for n in range(1, n_steps):
        level = phi_inv(phi(gs[-1]) + (n + 1))  # g must exceed this level
        margin = ts[-1] + (n + 1)
        g_next = gA(margin) if margin_settled else None
        if g_next is not None and g_next > level:
            t_next = margin  # the inverse lies at or before it
        else:
            t_next = gA.inverse_point(level)
            if t_next is None:
                raise Bounded(f"g never exceeds {level:.6g} on the trusted range (up to {horizon:.3g})")
            t_next = max(t_next, margin)
            if not math.isfinite(t_next):
                raise ConstructionRange(f"breakpoint {n + 1} left the float range")
        if horizon is not None and t_next > horizon:
            raise Bounded("construction ran past the trusted horizon of the source")
        margin_settled = t_next == margin
        if g_next is None or not margin_settled:
            g_next = gA(t_next)
        ts.append(float(t_next))
        gs.append(g_next)

    if variant == VANISHER:
        values = tuple(math.sqrt(v) for v in gs)
    else:
        try:
            values = tuple(v ** 2 for v in gs[1:])  # not v * v, which differs in the last bit
        except OverflowError:  # a finite v squared past the floats
            values = (math.inf,)
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


@dataclass(frozen=True, eq=False)
class StaircaseRule:
    """What a staircase's steps were built from, kept by its step family.

    The family holds this and this holds no StaircaseConstruction (whose
    view holds the family), so no reference cycle forms.  The checks below
    are verify_construction's own, memoized: verification and the ideal
    decisions run each once per construction.
    """

    variant: str
    source: GFunction  # before the offset
    offset: float
    breakpoints: tuple
    step_values: tuple

    @property
    def end(self) -> float:
        """Where the staircase's trusted range ends: the vanisher's last step
        holds for its margin, the dominator's last breakpoint closes its last step."""
        bps = self.breakpoints
        return bps[-1] + len(bps) + 1 if self.variant == VANISHER else bps[-1]

    @cached_property
    def gaps(self):
        """(gap_margins, phi of g_A at the breakpoints) once both gap rules hold
        with zero tolerance; raises VerificationFailed else."""
        bps = np.asarray(self.breakpoints)
        ns = np.arange(1, len(bps))
        gaps = np.diff(bps)
        if not (gaps > ns).all():
            raise VerificationFailed("breakpoint_gaps: t_{n+1} - t_n > n violated")
        gA = shift(self.source, 0.0, self.offset)
        phi_vals = np.sqrt(gA.eval(bps)) if self.variant == VANISHER else gA.eval(bps) ** 2
        phi_gaps = np.diff(phi_vals)
        if not (phi_gaps > ns).all():
            raise VerificationFailed("phi_gaps: transformed value gaps must exceed n")
        return (float((gaps - ns).min()), float((phi_gaps - ns).min())), phi_vals

    @cached_property
    def envelope(self) -> bool:
        """True once every step lies within rounding of its power of g_A;
        raises VerificationFailed else."""
        phi_vals, w = self.gaps[1], np.asarray(self.step_values)
        if self.variant == VANISHER:
            if not (w <= phi_vals + _slack(phi_vals)).all():
                raise VerificationFailed("envelope: staircase exceeds sqrt of the source")
        elif not (w >= phi_vals[1:] - _slack(phi_vals[1:])).all():
            raise VerificationFailed("envelope: staircase drops below the squared source")
        return True

    @cached_property
    def proved(self) -> bool:
        """Whether the gap rule and the envelope hold: all the membership proof uses."""
        try:
            return self.envelope
        except VerificationFailed:
            return False

    @cached_property
    def _condition(self):
        """(ends, least, cond, cs): the kernel (vanisher) or exclusion
        (dominator) condition, least on step n at least[n] and at the end cond[-1]."""
        bps, w, src = np.asarray(self.breakpoints), np.asarray(self.step_values), self.source
        if self.variant == VANISHER:
            ends = np.append(bps[1:], self.end)  # step n holds on [t_n, ends[n]]
            # source - staircase, which must exceed every c: least at each t_n, then at the end
            cond = src.eval(np.append(bps, ends[-1])) - np.append(w, w[-1])
            return ends, cond[:-1], cond, _KERNEL_THRESHOLDS
        # exclusion, source < c + staircase: least just below each t_{n+1}, and at t_N
        cond = w - src.eval(np.append(np.nextafter(bps[1:-1], -np.inf), bps[-1]))
        return bps[1:], cond, cond, tuple(-c for c in _KERNEL_THRESHOLDS)

    @cached_property
    def crossings(self) -> tuple:
        """(|c|, t0) per threshold c: past t0 the condition exceeds c on the
        whole staircase, t0 None where it is not met at the end."""
        ends, least, cond, cs = self._condition
        bps, w, src = np.asarray(self.breakpoints), np.asarray(self.step_values), self.source
        out = []
        for c in cs:
            t0 = None
            if cond[-1] > c:
                failing = np.flatnonzero(least <= c)
                t0 = ends[failing[-1]] if len(failing) else bps[0]
                if len(failing) and self.variant == VANISHER:
                    # source - w_n > c just where the source exceeds _below_sum(-w_n, c)
                    n = failing[-1]
                    t0 = min(max(src.inverse_point(_below_sum(-w[n], c)), bps[n]), t0)
                t0 = float(t0)
            out.append((abs(c), t0))
        return tuple(out)

    def membership(self, ga: GFunction, gb: GFunction, kernel: bool) -> IdealDecision | None:
        """The exact decision for this staircase gb against its own source ga,
        or None where the proof does not apply (another pair, a shifted view, a
        source with a horizon, or a staircase failing its gap or envelope check).

        The vanisher has g <= sqrt(g_A) and g_A - sqrt(g_A) diverges, so the
        source is a kernel member at a = 0.  The dominator holds g_A(t_{n+1})^2
        on steps longer than any shift a, and that outgrows g_A + |b|: no
        shifted copy lies below the source, which stays outside the ideal.
        """
        if gb.a or gb.b or ga.horizon_t is not None or ga != self.source or not self.proved:
            return None
        if self.variant == VANISHER:
            return IdealDecision(MEMBER, "exact", witness=partial(self._witness, kernel),
                                 note="the vanisher's steps stay below sqrt(g_A)")
        detail = "the dominator's steps g_A(t_{n+1})^2 outgrow every shift of the source"
        return IdealDecision(NON_MEMBER, "exact",
                             refutation=SlopeCertificate(math.nan, math.nan, "construction",
                                                         detail=detail))

    def _witness(self, kernel: bool) -> ShiftWitness:
        """The vanisher's shift a = 0 from its first breakpoint on, for every t:
        the kernel's threshold crossings, or for the ideal the least gap as b
        (the gap at each later breakpoint is larger)."""
        if kernel:
            ladder = tuple((c, t0, t0 is not None) for c, t0 in self.crossings)
            return ShiftWitness(0.0, 0.0, self.breakpoints[0], math.inf, 0, ladder)
        b = min(0.0, float(np.min(self._condition[1])))
        return ShiftWitness(0.0, b, self.breakpoints[0], math.inf, 0)


def verify_construction(s: StaircaseConstruction) -> StaircaseVerification:
    """Re-derive every promised property of a staircase from scratch.

    Checks, in order: both gap conditions with zero tolerance, the index
    collapse on the staircase itself, the envelope against the
    appropriate power of the source, and the kernel or exclusion
    condition on a c ladder.  Raises VerificationFailed naming the first
    violated check.  Steps are constant and the source nondecreasing, so each
    check reads one point per step (t_n, or t_{n+1} and the float below), and
    each t0 is a knot or one inverse_point crossing of the source.  The
    checks are the staircase's StaircaseRule's, computed once per construction."""
    stair = s.g()
    rule = stair.family.construction
    gap_margins, _ = rule.gaps

    rep = matuszewska(stair)
    if not (rep.delta_lower <= _DELTA_LOWER_MAX and rep.delta_upper >= _DELTA_UPPER_MIN):
        raise VerificationFailed(
            f"indices: ({rep.delta_lower:.4g}, {rep.delta_upper:.4g}) "
            f"outside [<= {_DELTA_LOWER_MAX}, >= {_DELTA_UPPER_MIN}]"
        )
    envelope_ok = rule.envelope

    for c, t0 in rule.crossings:
        if t0 is None:
            raise VerificationFailed(f"condition: threshold c = {c} never permanently met")
    if [t for _, t in rule.crossings] != sorted(t for _, t in rule.crossings):
        raise VerificationFailed("condition: t0 must be non-decreasing in c")

    return StaircaseVerification(
        variant=s.variant,
        gap_margins=gap_margins,
        delta_lower=rep.delta_lower,
        delta_upper=rep.delta_upper,
        condition_t0=rule.crossings,
        envelope_ok=envelope_ok,
    )
