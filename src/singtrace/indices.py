"""Growth indices of the logarithmic coordinate g.

The lower and upper indices delta_lower and delta_upper are defined
through increment quotients of g over windows of length h:

    1/delta_lower = inf_{h>0} limsup_{t->inf} (g(t+h) - g(t))/h
    1/delta_upper = sup_{h>0} liminf_{t->inf} (g(t+h) - g(t))/h

with the conventions 1/0 = inf and 1/inf = 0.  Closed form families carry
their indices exactly (a power decay with exponent p has both equal to
1/p, exponential decay gives 0, pure log decay gives inf).  For
everything else the double limits are discretised: the t-limit becomes a
sup/inf over a tail window [omega*T, T-h] and the h-limit a scan over a
geometric grid of increments.  The finite window makes the sup
underestimate the limsup and the inf overestimate the liminf, so the
estimated delta_lower is biased up and delta_upper biased down; the
per-increment table in the report shows how far the scan got.

Piecewise constant g (staircases, samples, minima of two such) gets an
exact scan: the quotient is piecewise constant in t with breakpoints
where either t or t+h crosses a step, so the window extremes are
computed from finitely many critical points; other g with jumps add
those points to the dense grid.  For profiles with jumps the informative
increments are the ones shorter than the jump spacing, hence the adapted
default grid (1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import HorizonTooShort, NoWitnessOnHorizon, PreconditionFailed
from .functions import GFunction, g_transform, knot_grid

BIAS_NOTE = (
    "finite tail window: delta_lower is biased up, delta_upper biased down"
)
_REGULAR_TOL = 0.05  # how far apart estimated indices may lie for regularity


def recip_extended(x):
    """Reciprocal with the conventions 1/0 = inf and 1/inf = 0."""
    if x == 0.0:
        return math.inf
    if x == math.inf:
        return 0.0
    return 1.0 / x


@dataclass(frozen=True)
class EstimatorConfig:
    """Discretisation of the double limits.

    The tail window for increment h is [tail_fraction * horizon,
    horizon - h], so every h must satisfy h < (1 - tail_fraction) *
    horizon.  Each increment must be an integer multiple of the previous
    one; that makes longer-increment quotients averages of shorter ones,
    which keeps the estimated delta_lower <= delta_upper ordering.
    """

    h_grid: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    horizon: float = 40.0
    tail_fraction: float = 0.5
    t_step: float = 0.01

    def __post_init__(self):
        hs = tuple(float(h) for h in self.h_grid)
        if not hs or any(h <= 0 for h in hs):
            raise ValueError("increments must be positive")
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("increments must increase strictly")
        for a, b in zip(hs, hs[1:]):
            k = b / a
            if abs(k - round(k)) > 1e-9:
                raise ValueError("each increment must be an integer multiple of the previous")
        if not 0 < self.tail_fraction < 1:
            raise ValueError("tail_fraction must lie in (0, 1)")
        if self.t_step <= 0 or self.horizon <= 0:
            raise ValueError("t_step and horizon must be positive")
        if hs[-1] >= (1 - self.tail_fraction) * self.horizon:
            raise ValueError("largest increment does not fit the tail window")
        object.__setattr__(self, "h_grid", hs)

    @classmethod
    def default_for(cls, g: GFunction) -> "EstimatorConfig":
        """Defaults adapted to the profile's representation.

        Step profiles are scanned exactly over their whole trusted range
        with short increments (jumps dominate long-increment quotients).
        """
        horizon_t = g.horizon_t
        if g.knots_t is not None and horizon_t is not None and horizon_t > 40.0:
            return cls(h_grid=(1.0, 2.0), horizon=horizon_t, t_step=0.01)
        return cls()


@dataclass
class MatuszewskaReport:
    delta_lower: float
    delta_upper: float
    mode: str  # exact | estimated
    per_h: tuple = ()
    config: EstimatorConfig | None = None
    finite_rank: bool = False
    horizon_limited: bool = False
    bias_note: str = ""

    @property
    def indices(self):
        return (self.delta_lower, self.delta_upper)


def _window_extremes(g: GFunction, h: float, w_lo: float, w_hi: float, t_step: float):
    """sup and inf of the increment quotient over t in [w_lo, w_hi].

    Piecewise constant g makes the quotient piecewise constant in t with
    breaks where t or t+h crosses a jump, so scanning those critical
    points gives the exact extremes; other g take them on a dense grid.
    """
    crits = g.knots_in(w_lo, w_hi)
    crits += [tau - h for tau in g.knots_t or () if w_lo <= tau - h <= w_hi]
    if g.family.piecewise_constant:
        ts = np.array(sorted({w_lo, w_hi, *crits}))
    else:
        # cap the scan so user-supplied huge horizons stay tractable
        n = max(min(int((w_hi - w_lo) / t_step) + 1, 400_001), 2)
        ts = knot_grid(w_lo, w_hi, n, np.array(crits), (0.0,))
    quot = (g.eval(ts + h) - g.eval(ts)) / h
    return float(np.max(quot)), float(np.min(quot))


def matuszewska(fn, cfg: EstimatorConfig | None = None, mode: str = "auto") -> MatuszewskaReport:
    """Index report for a decay profile or its g view.

    mode "auto" reads the indices off the growth profile when the family
    carries one, "estimated" forces the window scan (useful as a cross check).
    """
    g = g_transform(fn)
    if g.finite_rank:
        # increments hit +inf; index machinery is vacuous for finite rank
        return MatuszewskaReport(0.0, 0.0, "exact", finite_rank=True)
    p = g.family.profile
    if p is not None and mode != "estimated":
        d = recip_extended(p.slope)  # g of slope s has both indices 1/s
        return MatuszewskaReport(d, d, "exact")

    cfg = cfg or EstimatorConfig.default_for(g)
    horizon = cfg.horizon
    if g.horizon_t is not None and g.horizon_t < horizon:
        horizon = g.horizon_t
    w_lo = cfg.tail_fraction * horizon
    usable = tuple(h for h in cfg.h_grid if horizon - h > w_lo)
    if not usable:
        raise HorizonTooShort(f"no increment fits the tail window up to T = {horizon:.3g}")
    if (usable, horizon) != (cfg.h_grid, cfg.horizon):  # report the scan that ran
        cfg = replace(cfg, h_grid=usable, horizon=horizon)
    per_h = []
    for h in usable:
        w_hi = horizon - h
        if not g.family.piecewise_constant and (w_hi - w_lo) / cfg.t_step < 10:
            raise HorizonTooShort(
                f"tail window [{w_lo:.3g}, {w_hi:.3g}] has fewer than 10 increments for h = {h}"
            )
        sup, inf = _window_extremes(g, h, w_lo, w_hi, cfg.t_step)
        per_h.append((h, sup, inf))
    one_over_lower = min(sup for _, sup, _ in per_h)
    one_over_upper = max(inf for _, _, inf in per_h)
    return MatuszewskaReport(
        delta_lower=recip_extended(max(one_over_lower, 0.0)),
        delta_upper=recip_extended(max(one_over_upper, 0.0)),
        mode="estimated",
        per_h=tuple(per_h),
        config=cfg,
        horizon_limited=g.horizon_t is not None,
        bias_note=BIAS_NOTE,
    )


def is_regular(fn, tol: float = _REGULAR_TOL):
    """(regular?, common index) with exact equality in exact mode."""
    return _regularity(matuszewska(fn), tol)


def _regularity(rep: MatuszewskaReport, tol: float):
    """is_regular's answer read off a finished index report."""
    dl, du = rep.delta_lower, rep.delta_upper
    if rep.mode == "exact":
        return (dl == du, dl if dl == du else None)
    if dl == du:  # both 0 or both inf
        return (True, dl)
    if math.isinf(dl) != math.isinf(du):
        return (False, None)
    if du - dl <= tol:
        return (True, 0.5 * (dl + du))
    return (False, None)


# ---------------------------------------------------------------------------
# linear bound witnesses


CASE_UPPER = "upper"  # delta_lower > 1: g eventually below a slope 1-eps line
CASE_LOWER = "lower"  # delta_upper < 1: g eventually above a slope 1+eps line
CASE_TWO_SIDED = "two_sided"  # regular with index 1: both bounds


@dataclass
class LinearBoundWitness:
    case: str
    eps: float
    c: float | None = None
    c1: float | None = None
    c2: float | None = None
    t0: float = 0.0
    horizon: float = 0.0
    t_step: float = 0.0
    max_slack: float = 0.0  # worst margin seen on the search grid


def _bound_grid(g: GFunction):
    cfg = EstimatorConfig.default_for(g)
    horizon = cfg.horizon if g.horizon_t is None else min(cfg.horizon, g.horizon_t)
    step = max(cfg.t_step, horizon / 1_000_000)  # cap the grid size
    ts = np.arange(0.0, horizon + step / 2, step)
    return ts, horizon, step


def linear_bound_witness(fn, eps: float) -> LinearBoundWitness:
    """Grid-verified linear bounds on g implied by the indices.

    The admissible eps ranges come from 1/delta_lower >= limsup g(t)/t
    and liminf g(t)/t >= 1/delta_upper; outside them the bound cannot
    hold and PreconditionFailed is raised.
    """
    if eps <= 0:
        raise PreconditionFailed("eps must be positive")
    g = g_transform(fn)
    if g.finite_rank:
        raise NoWitnessOnHorizon("finite rank: g is eventually infinite")
    rep = matuszewska(fn)
    dl, du = rep.delta_lower, rep.delta_upper
    regular, delta = _regularity(rep, _REGULAR_TOL)

    # each bound is sign * (g(t) - slope * t) <= its constant on the grid
    if dl > 1.0:
        if eps >= 1.0 - 1.0 / dl:
            raise PreconditionFailed(
                f"case upper needs eps < 1 - 1/delta_lower = {1 - 1/dl:.4g}"
            )
        case, bounds = CASE_UPPER, ((1.0, 1.0 - eps),)
    elif du < 1.0:
        if eps >= recip_extended(du) - 1.0:
            raise PreconditionFailed(
                f"case lower needs eps < 1/delta_upper - 1 = {recip_extended(du) - 1:.4g}"
            )
        case, bounds = CASE_LOWER, ((-1.0, 1.0 + eps),)
    elif regular and delta is not None and abs(delta - 1.0) <= _REGULAR_TOL:
        case, bounds = CASE_TWO_SIDED, ((-1.0, 1.0 - eps), (1.0, 1.0 + eps))
    else:
        raise PreconditionFailed(
            f"indices ({dl:.4g}, {du:.4g}) fit none of the three cases"
        )
    ts, horizon, step = _bound_grid(g)
    gvals = g.eval(ts)
    gaps = np.array([sign * (gvals - slope * ts) for sign, slope in bounds])
    if not np.all(np.isfinite(gaps)):
        raise NoWitnessOnHorizon("g has infinite values on the search grid")
    tops = gaps.max(axis=1).tolist()
    cs = [max(top, 0.0) + 1e-9 for top in tops]
    consts = {"c1": cs[0], "c2": cs[1]} if case == CASE_TWO_SIDED else {"c": cs[0]}
    return LinearBoundWitness(case, eps, horizon=horizon, t_step=step,
                              max_slack=max(top - c for top, c in zip(tops, cs)), **consts)


def verify_linear_bound(fn, witness: LinearBoundWitness) -> bool:
    """Recheck a witness on an independent grid, twice as fine."""
    g = g_transform(fn)
    step = witness.t_step / 2.0
    ts = np.arange(0.0, witness.horizon + step / 2, step)
    gvals = g.eval(ts)
    if witness.case == CASE_UPPER:
        return bool(np.all(gvals < witness.c + (1.0 - witness.eps) * ts))
    if witness.case == CASE_LOWER:
        return bool(np.all(gvals > -witness.c + (1.0 + witness.eps) * ts))
    ok_low = np.all(-witness.c1 + (1.0 - witness.eps) * ts <= gvals)
    ok_high = np.all(gvals <= witness.c2 + (1.0 + witness.eps) * ts)
    return bool(ok_low and ok_high)
