"""Decay profiles and their logarithmic coordinates.

Two function spaces drive everything here:

* M - non-increasing, right continuous, infinitesimal functions mu on
  [0, inf).  A profile mu describes how the singular values of a compact
  operator decay, with multiplicity measured by an arbitrary positive
  weight (trace), so "rank" is a real number, not an integer.
* G - non-decreasing, right continuous functions g on the real line that
  are bounded from below and unbounded from above, with +inf allowed as
  an eventual value (finite rank).

The map g(t) = -log mu(e^t) is an order-reversing bijection from M to G.
Asymptotic questions (growth indices, ideal membership) are analysed on
the G side where they become statements about slopes; integral
quantities live on the M side.  Every concrete family below carries both
views, kept consistent analytically, so the round trip is exact and no
exponentiation of large coordinates is ever required.

Horizontal and vertical shifts in the g coordinate are tracked on the
wrapper objects: a shift by (a, b) in G corresponds in M to
mu(x) -> e^(-b) mu(x e^(-a)), and the dilation D_lam mu(x) = lam mu(lam x)
is the shift (a, b) = (-log lam, -log lam).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NegativeValue,
    NonFinite,
    NonpositiveLambda,
    NonpositiveWeight,
    NotInfinitesimal,
)

E = math.e


def logsubexp(a, b):
    """log(e^a - e^b) elementwise for a >= b; equal entries give -inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = a + np.log1p(-np.exp(np.minimum(b - a, 0.0)))
        out = np.where(b >= a, -np.inf, out)
    return out


def logaddexp(a, b):
    """np.logaddexp without the warnings it raises on overflow and nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.logaddexp(a, b)


def log_e_plus(t):
    """u(t) = log(e^t + e), bit for bit np.logaddexp(t, 1.0).

    Where |t - 1| >= 40 the correction log1p(e^-|t - 1|) < 4.3e-18 is
    below half an ulp of max(t, 1), so that is the answer; only the
    entries near 1 pay for logaddexp.  A 0-d input, the scalar g of root
    finding, is tested as a Python float.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        x = float(t)
        return np.float64(max(x, 1.0)) if abs(x - 1.0) >= 40.0 else logaddexp(t, 1.0)
    near = ~(np.abs(t - 1.0) >= 40.0)  # nan is near: logaddexp keeps it
    if near.all():
        return logaddexp(t, 1.0)
    out = np.maximum(t, 1.0)
    if near.any():
        out[near] = logaddexp(t[near], 1.0)
    return out


_CF_EPS, _CF_ITERATIONS = 3e-16, 500  # continued fraction: step test and cap
_SERIES_TERMS = 60  # z < 1: 1/k! falls below 1e-17 of Gamma(a, 1) within about 25


def _log_gamma_cf(a, z):
    """log Gamma(a, z) for z >= 1 by the continued fraction of Gamma(a, z) e^z z^(-a)
    (modified Lentz, Numerical Recipes' gcf); None where it does not converge.
    Each entry leaves the loop once its step is within _CF_EPS of 1: after
    about 85 steps at z = 1 and 6 at z = 100."""
    out = np.empty(z.shape)
    idx = np.arange(z.size)
    b = z + (1.0 - a)
    d = 1.0 / np.where(b == 0.0, 1e-300, b)
    c, h = np.full_like(z, 1e300), d.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, _CF_ITERATIONS):
            if not idx.size:
                return (a * np.log(z) - z) + np.log(out)
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            step = d * c
            h *= step
            done = np.abs(step - 1.0) <= _CF_EPS
            if done.any():
                out[idx[done]] = h[done]
                keep = ~done
                idx, b, c, d, h = idx[keep], b[keep], c[keep], d[keep], h[keep]
    return None


def _log_upper_gamma(a, z):
    """log Gamma(a, z) for real a and z > 0, elementwise; None if a sum fails to converge.

    z >= 1: _log_gamma_cf.  z < 1: Gamma(a, 1) from the fraction plus the
    integral of t^(a-1) e^(-t) over [z, 1], the series
    sum_k (-1)^k (1 - z^(a+k)) / (k! (a+k)), whose term at a + k = 0 is
    -log z; it needs neither Gamma(a) nor a recurrence through a = 0.
    """
    z = np.asarray(z, dtype=float)
    zf = np.atleast_1d(z)
    big = zf >= 1.0
    small = ~big
    at_one = _log_gamma_cf(a, np.append(zf[big], 1.0) if small.any() else zf[big])
    if at_one is None:
        return None
    out = np.empty(zf.shape)
    out[big] = at_one[:np.count_nonzero(big)]
    if small.any():
        lz = np.log(zf[small])
        total = np.full_like(lz, math.exp(at_one[-1]))
        inv_fact = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(_SERIES_TERMS):
                m = a + k
                piece = -lz if m == 0 else np.expm1(m * lz) / -m  # (1 - z^m) / m
                total += (inv_fact if k % 2 == 0 else -inv_fact) * piece
                if inv_fact * np.max(np.abs(piece)) <= 1e-17 * np.min(total):
                    break
                inv_fact /= k + 1
            else:
                return None
        if not np.all(np.isfinite(total)):
            return None  # z^a past the float range
        out[small] = np.log(total)
    return out.reshape(z.shape)


_CERTIFIED = 1e-17  # the first asymptotic term left out is below this share of the sum
_ANCHOR_MAX = 512.0  # largest anchor z1; e^z1 stays far inside the float range


def _certified_terms(q, z):
    """Terms (q)_k z^(-k) of e^(-z) z^q F(z), F(z) = e^z z^(-q) sum_k (q)_k z^(-k), up to
    the first below _CERTIFIED of their sum; None if they start to grow before."""
    terms, total = [1.0], 1.0
    while True:
        nxt = terms[-1] * (q + len(terms) - 1) / z
        if abs(nxt) > abs(terms[-1]):
            return None
        if abs(nxt) <= _CERTIFIED * abs(total):
            return terms
        terms.append(nxt)
        total += nxt


def _exp_power_anchor(q, z0):
    """Where the integral of e^y y^(-q) from z0 > 0 meets its asymptotic antiderivative F.

    F' = e^z z^(-q) (1 - t_K(z)) for F cut before its term t_K, so past a z1
    where the terms are certified (they shrink, and t_K is below _CERTIFIED
    of the sum) every z >= z1 is certified too, and the integral to z is
    F(z) plus D = (integral to z1) - F(z1).  z1 is the first of 8, 10, 12, ...
    up to _ANCHOR_MAX that is certified, the integral to it the series
    sum_n (z1^m - z0^m) / (n! m), m = n + 1 - q, of nonnegative terms.
    Returns z1, the terms at z1 (highest first, for np.polyval in z1/z)
    and D e^(-z1) z1^q; None past _ANCHOR_MAX or on overflow.
    """
    z1 = 8.0
    while (terms := _certified_terms(q, z1)) is None:
        z1 += 2.0
        if z1 > _ANCHOR_MAX:
            return None
    l1, l0 = math.log(z1), math.log(z0)
    weight, total, n = z1 * math.exp(-z1), 0.0, 0  # weight z1^(n+1) e^(-z1) / n!
    try:
        while True:
            m = n + 1 - q
            term = weight * ((l1 - l0) if m == 0 else -math.expm1(m * (l0 - l1)) / m)
            total += term
            if n > z1 and term <= _CERTIFIED * total:
                break
            n += 1
            weight *= z1 / n
    except OverflowError:
        return None
    return z1, np.array(terms[::-1]), total - math.fsum(terms)


def knot_grid(lo, hi, points, knots, offsets):
    """points evenly spaced from lo to hi, plus k + d (capped at hi) for each
    knot k and offset d: a step profile changes right at its jumps."""
    ss = np.linspace(lo, hi, points)
    extra = [min(k + d, hi) for k in knots for d in offsets]
    if extra:
        ss = np.unique(np.concatenate([ss, np.array(extra)]))
    return ss


# ---------------------------------------------------------------------------
# growth profiles (exact asymptotics of g, used by the ideal decisions)


LINLOG = "linlog"
EXP = "exp"


@dataclass(frozen=True)
class GrowthProfile:
    """Asymptotic expansion of g.

    kind "linlog": g(t) = slope*t + log_coeff*log(t) + const + o(1).
    kind "exp":    g(t) = rate*e^t + O(1); only the rate matters.
    """

    kind: str
    slope: float = 0.0
    log_coeff: float = 0.0
    const: float = 0.0
    rate: float = 0.0

    def shifted(self, a: float, b: float) -> "GrowthProfile":
        if self.kind == EXP:
            return GrowthProfile(EXP, rate=self.rate * math.exp(-a))
        return GrowthProfile(
            LINLOG,
            slope=self.slope,
            log_coeff=self.log_coeff,
            const=self.const + b - self.slope * a,
        )


def min_profile(pa: GrowthProfile, pb: GrowthProfile) -> GrowthProfile:
    """Profile of the pointwise minimum: the slower growing side wins."""
    if pa.kind == EXP and pb.kind == EXP:
        return pa if pa.rate <= pb.rate else pb
    if pa.kind == EXP:
        return pb
    if pb.kind == EXP:
        return pa
    ka = (pa.slope, pa.log_coeff, pa.const)
    kb = (pb.slope, pb.log_coeff, pb.const)
    return pa if ka <= kb else pb


# ---------------------------------------------------------------------------
# concrete families


class Family:
    """What every concrete family provides, with the defaults most share.

    A family defines mu (on the M side) and g (on the G side), and
    overrides the defaults below where they do not hold.  Piecewise
    constant families report their jumps through edges_x() and knots_t();
    the estimators scan those exactly.
    """

    finite_rank = False
    horizon_t = None  # None: trusted on all of t (or finite rank)
    profile = None  # exact GrowthProfile, when one is known
    rank = None  # total mass of the support of a finite rank profile

    @property
    def exact_indices(self):
        """Closed form (delta_lower, delta_upper), read off the profile."""
        p = self.profile
        if p is None:
            return None
        if p.kind == EXP:
            return (0.0, 0.0)
        if p.slope > 0:
            return (1.0 / p.slope, 1.0 / p.slope)
        return (math.inf, math.inf)

    @property
    def trace_class(self):
        """Integrability of mu, read off the profile; None when unknown."""
        p = self.profile
        if p is None:
            return None
        return p.kind == EXP or p.slope > 1 or (p.slope == 1 and p.log_coeff > 1)

    @property
    def trace_basis(self):
        return "horizon_only" if self.trace_class is None else "exact"

    @staticmethod
    def check_finite(what, *values, top_inf=False):
        """Reject nan and infinite input; top_inf lets +inf through."""
        for v in values:
            if not (math.isfinite(v) or (top_inf and v == math.inf)):
                raise NonFinite(f"{what} must be finite, got {v}")

    def edges_x(self):
        """Jump locations in x, or None for a family without jumps."""
        return None

    def knots_t(self):
        """Jump locations in t = log x, taken with np.log as the step lookups take
        them; edges_x keeps the exact x values."""
        edges = self.edges_x()
        return None if edges is None else tuple(np.log([e for e in edges if e > 0]).tolist())

    @property
    def is_step_like(self):
        return self.knots_t() is not None

    def log_S_up(self, s):
        """Closed form of log S_up at s = log x, or None."""
        return None

    def log_S_down(self, s):
        """Closed form of log S_down at s = log x, or None."""
        return None

    def g_inverse_point(self, y):
        """First t with g(t) > y where an analytic inverse exists, else None."""
        return None


@dataclass(frozen=True)
class PowerLog(Family):
    """mu(x) = scale * (x+e)^(-p) * log(x+e)^(-q).

    The shift by e keeps the family defined and monotone on all of
    [0, inf): log(x+e) >= 1, and monotonicity requires p + min(q, 0) >= 0.
    In the g coordinate, with u(t) = log(e^t + e),

        g(t) = -log(scale) + p*u(t) + q*log(u(t)),

    so the asymptotic slope is p with a q*log(t) correction.

    With w = log(x+e), mu dx = scale e^((1-p) w) w^(-q) dw, so at u = log(x+e)

        S_down = scale (p-1)^(q-1) Gamma(1-q, (p-1) u)                  p > 1,
        S_up   = scale (1-p)^(q-1) int_{1-p}^{(1-p) u} e^y y^(-q) dy    p < 1,

    elementary for q = 0 and for p = 1.  Gamma comes from _log_upper_gamma;
    the up integral from its asymptotic antiderivative, wherever that is
    certified (_exp_power_anchor), and from quadrature below.
    """

    scale: float = 1.0
    p: float = 1.0
    q: float = 0.0

    def __post_init__(self):
        self.check_finite("scale, p and q", self.scale, self.p, self.q)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.p == 0 and self.q <= 0:
            raise NotInfinitesimal("p = 0 requires q > 0 for an infinitesimal profile")
        if self.q < 0 and self.p + self.q < 0:
            raise ValueError("q < -p breaks monotonicity near 0")

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        L = np.log(x + E)
        return self.scale * (x + E) ** (-self.p) * L ** (-self.q)

    def g(self, t):
        # in place, to spare the panels' temporaries; the grouping
        # (-log scale + p*u) + q*log u keeps every value bit for bit
        u = log_e_plus(t)
        out = self.p * u
        out += -math.log(self.scale)
        log_u = np.log(u)
        log_u *= self.q
        out += log_u
        return out

    @property
    def profile(self):
        return GrowthProfile(
            LINLOG, slope=self.p, log_coeff=self.q, const=-math.log(self.scale)
        )

    def log_S_up(self, s):
        """Closed forms for q = 0 and for p = 1 with q <= 1; for other p < 1
        where every point is past the anchor of _exp_power_anchor; otherwise None.
        The elementary forms read u - 1 as v = log1p(e^(s - 1)) below s = 1, where
        it cancels, and below s = -39 take S = scale e^(-p) x, exact to rounding."""
        s = np.asarray(s, dtype=float)
        c = math.log(self.scale)
        if (self.q == 0 and self.p < 1) or (self.p == 1 and self.q <= 1):
            k = 1 - self.p if self.p < 1 else 1 - self.q
            off = 0.0 if k == 0 else -math.log(k)
            if self.p < 1:
                far, near = lambda u: logsubexp(k * u, k), lambda v: k + np.log(np.expm1(k * v))
            elif k == 0:
                far, near = lambda u: np.log(np.log(u)), lambda v: np.log(np.log1p(v))
            else:
                far, near = lambda u: np.log(u ** k - 1.0), lambda v: np.log(np.expm1(k * np.log1p(v)))
            if not np.any(s < 1):
                return (c + off) + far(log_e_plus(s))
            v = np.log1p(np.exp(np.clip(s, -39.0, 1.0) - 1.0))
            return (c + off) + np.where(s >= 1, far(log_e_plus(np.maximum(s, 1.0))),
                                        np.where(s < -39, s - self.p - off, near(v)))
        u = log_e_plus(s)
        if self.p < 1 and self._up_anchor is not None:
            z1, terms, d = self._up_anchor
            z = (1 - self.p) * u
            if np.all((z >= z1) & (z < math.inf)):
                log_f = (z - self.q * np.log(z)) + np.log(np.polyval(terms, z1 / z))
                with np.errstate(under="ignore"):
                    log_f += np.log1p(d * np.exp((z1 - self.q * math.log(z1)) - log_f))
                return (c + (self.q - 1) * math.log(1 - self.p)) + log_f
        return None

    @cached_property
    def _up_anchor(self):
        return _exp_power_anchor(self.q, 1 - self.p)

    def log_S_down(self, s):
        """Closed forms for p = 1 < q and for every p > 1; None if the fraction fails."""
        u = log_e_plus(s)
        c = math.log(self.scale)
        if self.q == 0 and self.p > 1:
            return c - math.log(self.p - 1) + (1 - self.p) * u
        if self.p == 1 and self.q > 1:
            return c - math.log(self.q - 1) + (1 - self.q) * np.log(u)
        if self.p > 1:
            log_gamma = _log_upper_gamma(1 - self.q, (self.p - 1) * u)
            if log_gamma is not None:
                return (c + (self.q - 1) * math.log(self.p - 1)) + log_gamma
        return None

    def g_inverse_point(self, y):
        if self.q != 0:
            return None
        u = (y + math.log(self.scale)) / self.p if self.p > 0 else None
        if u is None or u <= 1.0:
            return None
        # e^t = e^u - e
        return float(logsubexp(u, 1.0))


@dataclass(frozen=True)
class Exponential(Family):
    """mu(x) = e^(-alpha x); g(t) = alpha e^t."""

    alpha: float = 1.0

    def __post_init__(self):
        self.check_finite("alpha", self.alpha)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-self.alpha * x)

    def g(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return self.alpha * np.exp(t)

    @property
    def profile(self):
        return GrowthProfile(EXP, rate=self.alpha)

    def log_S_down(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return -self.alpha * np.exp(s) - math.log(self.alpha)

    def g_inverse_point(self, y):
        if y <= 0:
            return None
        return math.log(y / self.alpha)


@dataclass(frozen=True)
class PurePower(Family):
    """mu(x) = min(cap, scale * x^(-p)); exactly linear in the g coordinate.

    g(t) = max(-log cap, p*t - log scale), so past the crossover the graph
    of g is the line p*t - log(scale) with no lower order correction.
    """

    p: float = 1.0
    scale: float = 1.0
    cap: float = 1.0

    def __post_init__(self):
        self.check_finite("p, scale and cap", self.p, self.scale, self.cap)
        if self.p <= 0 or self.scale <= 0 or self.cap <= 0:
            raise ValueError("p, scale and cap must be positive")

    @property
    def _floor(self):
        return -math.log(self.cap)

    @property
    def _crossover_s(self):
        # p*t - log scale = -log cap
        return (math.log(self.scale) - math.log(self.cap)) / self.p

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            tail = self.scale * x ** (-self.p)
        return np.minimum(self.cap, tail)

    def g(self, t):
        t = np.asarray(t, dtype=float)
        return np.maximum(self._floor, self.p * t - math.log(self.scale))

    @property
    def profile(self):
        return GrowthProfile(LINLOG, slope=self.p, const=-math.log(self.scale))

    def log_S_up(self, s):
        if self.p > 1:
            return None
        s = np.asarray(s, dtype=float)
        sc = self._crossover_s
        head = np.log(self.cap) + np.minimum(s, sc)
        if self.p == 1:
            with np.errstate(divide="ignore"):
                tail_part = math.log(self.scale) + np.log(np.maximum(s - sc, 0.0))
            tail_part = np.where(s > sc, tail_part, -np.inf)
        else:
            tail_part = (
                math.log(self.scale)
                - math.log(1 - self.p)
                + logsubexp((1 - self.p) * np.maximum(s, sc), (1 - self.p) * sc)
            )
            tail_part = np.where(s > sc, tail_part, -np.inf)
        return logaddexp(head, tail_part)

    def log_S_down(self, s):
        if self.p <= 1:
            return None
        s = np.asarray(s, dtype=float)
        sc = self._crossover_s
        tail_at = math.log(self.scale) - math.log(self.p - 1) + (1 - self.p) * np.maximum(s, sc)
        head = np.log(self.cap) + logsubexp(sc, np.minimum(s, sc))
        return np.where(s >= sc, tail_at, logaddexp(head, tail_at))

    def g_inverse_point(self, y):
        if y <= self._floor:
            return None
        return (y + math.log(self.scale)) / self.p


# ---------------------------------------------------------------------------
# piecewise constant profiles


class _StepTables:
    """Prefix and suffix log masses of a step profile, behind log S_up and log S_down.

    g = gv[j] on [sb[j-1], sb[j]) in s = log x, gv[0] from s = -inf and
    gv[-1] up to s_end, so piece j has mass e^(-gv[j]) (e^(s_hi) - e^(s_lo)).
    The sums stay in log space, so staircases with huge breakpoints
    never overflow.
    """

    def __init__(self, sb, gv, s_end):
        self.sb, self.gv, self.s_end = sb, gv, float(s_end)
        m = len(sb)
        masses = np.empty(m + 1)
        masses[0] = sb[0] - gv[0]
        masses[1:m] = -gv[1:m] + logsubexp(sb[1:], sb[:-1])
        masses[m] = -gv[m] + logsubexp(self.s_end, sb[-1]) if np.isfinite(gv[m]) else -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            self.prefix = np.logaddexp.accumulate(masses[:-1])
            self.suffix = np.logaddexp.accumulate(masses[::-1])[::-1]

    def log_up(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.sb, s, side="right")
        lo = np.where(idx > 0, self.sb[np.maximum(idx - 1, 0)], -np.inf)
        partial = -self.gv[idx] + logsubexp(s, lo)
        head = np.where(idx > 0, self.prefix[np.maximum(idx - 1, 0)], -np.inf)
        return logaddexp(head, np.where(idx > 0, partial, s - self.gv[0]))

    def log_down(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.sb, s, side="right")
        m = len(self.sb)
        hi = np.where(idx < m, self.sb[np.minimum(idx, m - 1)], self.s_end)
        rem = -self.gv[idx] + logsubexp(hi, s)
        tail = np.where(idx < m, self.suffix[np.minimum(idx + 1, m)], -np.inf)
        return logaddexp(rem, tail)


def piece_sum(mu, edges, x1, x2):
    """integral of a step profile over [x1, x2] as an exact sum over its pieces.

    mu is constant between consecutive edges and right continuous, so the
    piece [a, b) adds mu(a) (b - a); math.fsum adds them without rounding.
    """
    xs = sorted({x1, x2, *(e for e in edges if x1 < e < x2)})
    return math.fsum(v * (b - a) for v, a, b in zip(mu(np.array(xs[:-1])), xs, xs[1:]))


class _StepFamily(Family):
    """A piecewise constant profile, given by the one hook _steps().

    _steps() returns (sb, gv, s_end): g = gv[j] on [sb[j-1], sb[j]), gv[0]
    below sb[0] and gv[-1] from sb[-1] on, and S integrates up to s_end.
    From it come g (a lookup, right continuous at every knot), log S_up
    and log S_down (the _StepTables, built on first use so that g alone
    stays cheap) and mass().  A family defined in x instead gives
    _x_steps() = (xb, vals), mu = vals[i] on [xb[i], xb[i+1]) and vals[-1]
    from xb[-1] on; mu is a lookup there, and _steps() its logarithm.
    """

    def _steps(self):
        xb, vals = self._x_arrays
        sb = np.log(xb[1:])
        with np.errstate(divide="ignore"):
            return sb, -np.log(vals), sb[-1]

    @cached_property
    def _x_arrays(self):
        return tuple(np.asarray(a, dtype=float) for a in self._x_steps())

    @cached_property
    def _step_arrays(self):
        return self._steps()

    @cached_property
    def _tables(self):
        return _StepTables(*self._step_arrays)

    def g(self, t):
        sb, gv, _ = self._step_arrays
        return gv[np.searchsorted(sb, np.asarray(t, dtype=float), side="right")]

    def mu(self, x):
        xb, vals = self._x_arrays
        idx = np.searchsorted(xb, np.asarray(x, dtype=float), side="right") - 1
        return vals[np.clip(idx, 0, len(vals) - 1)]

    def log_S_up(self, s):
        return self._tables.log_up(s)

    def log_S_down(self, s):
        return self._tables.log_down(s)

    def mass(self):
        """The integral of mu, exact over the pieces; None where the rank is unknown."""
        r = self.rank
        return None if r is None else piece_sum(self.mu, self.edges_x(), 0.0, r)


@dataclass(frozen=True)
class StepMu(_StepFamily):
    """Finite rank step profile in the x coordinate.

    Value values[i] on [breakpoints[i], breakpoints[i+1]), zero from
    breakpoints[-1] on; breakpoints start at 0 and increase strictly.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        self.check_finite("step breakpoints and values", *bp, *vals)
        if not bp or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must increase strictly")
        if len(vals) != len(bp) - 1:
            raise ValueError("need one value per bounded piece")
        if any(v < 0 for v in vals):
            raise NegativeValue("step values must be nonnegative")
        if any(v1 < v2 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("step values must be non-increasing")
        # zero-valued pieces carry no support; trim them into the tail
        while vals and vals[-1] == 0.0:
            vals = vals[:-1]
            bp = bp[:-1]
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    finite_rank = True
    exact_indices = (0.0, 0.0)
    trace_class = True

    @property
    def rank(self):
        """Total mass of the support (the point past which mu vanishes)."""
        return self.breakpoints[-1] if self.values else 0.0

    def edges_x(self):
        return self.breakpoints

    def _x_steps(self):
        # the zero profile keeps one empty piece, so g and S still have a knot
        if not self.values:
            return (0.0, 1.0), (0.0, 0.0)
        return self.breakpoints, self.values + (0.0,)


@dataclass(frozen=True)
class GStep(_StepFamily):
    """Step profile in the g coordinate (staircases live here).

    Value values[j] holds on [breakpoints[j-1], breakpoints[j]); values[0]
    extends to the left and values[-1] to the right.  A final value of
    +inf encodes finite rank.  Otherwise the profile is only trusted up
    to horizon_t and operations on it are horizon limited.

    integrable, when set, records whether the (infinite) continuation of
    the staircase is integrable; the constructors in the staircase module
    derive it from the growth profile of their source.
    """

    breakpoints: tuple
    values: tuple
    horizon: float | None = None
    integrable: bool | None = None
    label: str = ""

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        self.check_finite("g step breakpoints", *bp)
        self.check_finite("g step values", *vals, top_inf=True)
        if self.horizon is not None:
            self.check_finite("g step horizon", self.horizon)
        if not bp:
            raise ValueError("need at least one breakpoint")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must increase strictly")
        if len(vals) != len(bp) + 1:
            raise ValueError("need len(breakpoints) + 1 values")
        if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("values must be non-decreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def finite_rank(self):
        return math.isinf(self.values[-1])

    @property
    def horizon_t(self):
        if self.finite_rank:
            return None
        return self.horizon if self.horizon is not None else self.breakpoints[-1]

    @property
    def trace_class(self):
        if self.finite_rank:
            return True
        return self.integrable

    @property
    def trace_basis(self):
        if self.finite_rank:
            return "exact"
        return "tail_model" if self.integrable is not None else "horizon_only"

    def knots_t(self):
        return self.breakpoints

    def edges_x(self):
        # past t = 700 e^t overflows; such edges lie beyond any x a caller asks about
        return tuple(math.exp(b) for b in self.breakpoints if b < 700.0)

    def _steps(self):
        # S is truncated at the horizon unless finite rank; callers flag this
        end = self.breakpoints[-1] if self.finite_rank else self.horizon_t
        return np.asarray(self.breakpoints), np.asarray(self.values), end

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", under="ignore"):
            s = np.log(x)
            return np.exp(-self.g(s))

    def g_inverse_point(self, y):
        """First t with g(t) > y, or None when the staircase never exceeds y."""
        idx = bisect_right(list(self.values), y)
        if idx >= len(self.values):
            return None
        if idx == 0:
            return -math.inf
        return self.breakpoints[idx - 1]


@dataclass(frozen=True)
class SampledMu(_StepFamily):
    """Piecewise constant samples of a decay profile on an x grid.

    Without a tail model every asymptotic operation is restricted to the
    sampled horizon; with one, the tail family takes over past grid[-1].
    """

    grid: tuple
    values: tuple
    tail: Family | None = None

    def __post_init__(self):
        g = tuple(float(x) for x in self.grid)
        v = tuple(float(x) for x in self.values)
        self.check_finite("sample grid and values", *g, *v)
        if len(g) != len(v) or len(g) < 2:
            raise ValueError("need matching grid/values with at least 2 samples")
        if g[0] < 0 or any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be nonnegative and strictly increasing")
        if any(x < 0 for x in v):
            raise NegativeValue("sample values must be nonnegative")
        if any(b > a for a, b in zip(v, v[1:])):
            raise ValueError("sample values must be non-increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def finite_rank(self):
        if self.tail is not None:
            return self.tail.finite_rank
        return self.values[-1] == 0.0

    @property
    def horizon_t(self):
        if self.tail is not None:
            return self.tail.horizon_t
        if self.finite_rank:
            return None
        return math.log(self.grid[-1])

    @property
    def trace_class(self):
        if self.tail is not None:
            return self.tail.trace_class
        return True if self.finite_rank else None

    @property
    def trace_basis(self):
        if self.tail is not None:
            return "tail_model"
        return "exact" if self.finite_rank else "horizon_only"

    def edges_x(self):
        more = self.tail.edges_x() if self.tail is not None else None
        return self.grid + tuple(e for e in more or () if e > self.grid[-1])

    @property
    def rank(self):
        """Where mu vanishes from on: at the first zero sample, else where the tail does."""
        if not self.finite_rank:
            return None
        if self.tail is None or 0.0 in self.values[:-1]:
            # values[0] holds from x = 0, values[i] from grid[i] on
            return ((0.0,) + self.grid[1:])[self.values.index(0.0)]
        return None if self.tail.rank is None else max(self.grid[-1], self.tail.rank)

    def _x_steps(self):
        return self.grid, self.values

    def mu(self, x):
        out = super().mu(x)
        if self.tail is not None:
            x = np.asarray(x, dtype=float)
            beyond = x >= self.grid[-1]
            if np.any(beyond):
                out = np.where(beyond, self.tail.mu(x), out)
        return out

    def g(self, t):
        out = super().g(t)
        if self.tail is None:
            return out
        t = np.asarray(t, dtype=float)
        return np.where(t >= self._step_arrays[2], self.tail.g(t), out)

    def log_S_up(self, s):
        s = np.asarray(s, dtype=float)
        end = self._tables.s_end
        base = self._tables.log_up(np.minimum(s, end))
        if self.tail is None:
            return base
        tail_at_end = self.tail.log_S_up(np.asarray(end))
        tail_at_s = self.tail.log_S_up(np.maximum(s, end))
        if tail_at_end is None or tail_at_s is None:
            return None
        extra = logsubexp(tail_at_s, tail_at_end)
        return np.where(s > end, logaddexp(base, extra), base)

    def log_S_down(self, s):
        s = np.asarray(s, dtype=float)
        end = self._tables.s_end
        base = self._tables.log_down(np.minimum(s, end))
        if self.tail is None:
            return base
        tail_down = self.tail.log_S_down(np.maximum(s, end))
        if tail_down is None:
            return None
        tail_at_end = self.tail.log_S_down(np.full_like(s, end))
        return np.where(s >= end, tail_down, logaddexp(base, tail_at_end))


@dataclass(frozen=True)
class MinOf(Family):
    """Pointwise minimum of two G-side functions."""

    left: "GFunction"
    right: "GFunction"

    @property
    def finite_rank(self):
        return self.left.finite_rank and self.right.finite_rank

    @property
    def horizon_t(self):
        hs = [h for h in (self.left.horizon_t, self.right.horizon_t) if h is not None]
        return min(hs) if hs else None

    @property
    def trace_class(self):
        # min in G is max in M, integrable iff both sides are
        lt = self.left.family.trace_class
        rt = self.right.family.trace_class
        if lt is False or rt is False:
            return False
        if lt and rt:
            return True
        return None

    @property
    def profile(self):
        pa, pb = self.left.profile, self.right.profile
        if pa is None or pb is None:
            return None
        return min_profile(pa, pb)

    def g(self, t):
        return np.minimum(self.left.eval(t), self.right.eval(t))

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(self.left.mu_view().eval(x), self.right.mu_view().eval(x))


# ---------------------------------------------------------------------------
# public wrappers


def _ordered(i):
    """float64 bit patterns (as int64) to integers in the floats' order; its own inverse."""
    return np.where(i < 0, np.int64(-0x8000000000000000) - i, i)


def _first_float(holds, lo, hi):
    """Per entry, the least float x in (lo, hi] with holds(x), for a holds that
    is monotone in x, false at lo and true at hi: bisection over the floats."""
    lo, hi = _ordered(lo.view(np.int64)), _ordered(hi.view(np.int64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        ok = holds(_ordered(mid).view(np.float64))
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
    return _ordered(hi).view(np.float64)


@dataclass(frozen=True)
class _View:
    """A family under a shift (a, b) of its g coordinate; both views share it."""

    family: Family
    a: float = 0.0
    b: float = 0.0

    def __call__(self, t):
        return float(self.eval(t))

    @property
    def finite_rank(self):
        return self.family.finite_rank

    @property
    def horizon_t(self):
        h = self.family.horizon_t
        return None if h is None else h + self.a

    @cached_property
    def knots_t(self):
        """The family's jumps in t under the shift, each the first float t at
        which the lookup at t - a has jumped; None for a family without jumps."""
        knots = self.family.knots_t()
        if knots is None:
            return None
        k = np.array(knots, dtype=float)
        t = k + self.a  # t - a can round to either side of k
        off = (t - self.a < k) | (np.nextafter(t, -math.inf) - self.a >= k)
        if off.any():
            w = 8.0 * (abs(np.spacing(k[off])) + abs(np.spacing(self.a)))
            t[off] = _first_float(lambda x: x - self.a >= k[off], t[off] - w, t[off] + w)
        return tuple(t.tolist())

    def knots_in(self, lo, hi):
        """The shifted jumps inside [lo, hi]."""
        return [k for k in self.knots_t or () if lo <= k <= hi]


@dataclass(frozen=True)
class GFunction(_View):
    """Element of G: a family plus a shift, g(t) = b + family.g(t - a)."""

    def eval(self, t):
        return self.b + self.family.g(np.asarray(t, dtype=float) - self.a)

    @property
    def profile(self):
        p = self.family.profile
        return None if p is None else p.shifted(self.a, self.b)

    def shifted(self, a, b):
        return GFunction(self.family, self.a + a, self.b + b)

    def mu_view(self):
        return EigenvalueFunction(self.family, self.a, self.b)

    def inverse_point(self, y):
        """First t with g(t) > y (analytic families only)."""
        t = self.family.g_inverse_point(y - self.b)
        return None if t is None else t + self.a


@dataclass(frozen=True)
class EigenvalueFunction(_View):
    """Element of M: mu(x) = e^(-b) * family.mu(x e^(-a))."""

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("decay profiles are defined on [0, inf)")
        return math.exp(-self.b) * self.family.mu(x * math.exp(-self.a))

    @property
    def rank(self):
        r = self.family.rank
        return None if r is None else r * math.exp(self.a)


# constructors

def power_log(scale=1.0, p=1.0, q=0.0) -> EigenvalueFunction:
    return EigenvalueFunction(PowerLog(scale=scale, p=p, q=q))


def exponential(alpha=1.0) -> EigenvalueFunction:
    return EigenvalueFunction(Exponential(alpha=alpha))


def pure_power(p=1.0, scale=1.0, cap=1.0) -> EigenvalueFunction:
    return EigenvalueFunction(PurePower(p=p, scale=scale, cap=cap))


def step_mu(breakpoints, values) -> EigenvalueFunction:
    return EigenvalueFunction(StepMu(tuple(breakpoints), tuple(values)))


def sampled(grid, values, tail=None) -> EigenvalueFunction:
    return EigenvalueFunction(SampledMu(tuple(grid), tuple(values), tail))


def g_step(breakpoints, values, horizon=None, integrable=None, label="") -> GFunction:
    return GFunction(GStep(tuple(breakpoints), tuple(values), horizon, integrable, label))


# ---------------------------------------------------------------------------
# spectral data and rearrangement


@dataclass(frozen=True)
class SpectralData:
    """Finite list of (spectral value, trace weight) pairs.

    Weights are real multiplicities (the trace of the corresponding
    spectral projection), so they need not be integers.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(v), float(w)) for v, w in self.pairs)
        Family.check_finite("spectral values and weights", *(x for pair in pairs for x in pair))
        for v, w in pairs:
            if v < 0:
                raise NegativeValue(f"spectral value {v} is negative")
            if w <= 0:
                raise NonpositiveWeight(f"weight {w} is not positive")
        object.__setattr__(self, "pairs", pairs)

    def mass(self):
        return math.fsum(v * w for v, w in self.pairs)


@dataclass(frozen=True)
class DistributionFunction:
    """lambda(t) = total weight of spectral values strictly above t."""

    data: SpectralData

    def __call__(self, t):
        return math.fsum(w for v, w in self.data.pairs if v > t)

    def quantile(self, t):
        """inf{s >= 0 : lambda(s) <= t}, the defining formula for mu."""
        if self(0.0) <= t:
            return 0.0
        for s in sorted({v for v, _ in self.data.pairs}):
            if self(s) <= t:
                return s
        raise AssertionError("unreachable: lambda vanishes past the largest value")


def rearrange(data: SpectralData) -> EigenvalueFunction:
    """Non-increasing rearrangement of finite spectral data as a step profile.

    Values are sorted in descending order, each occupying an interval
    whose length is its weight; equal values merge.  Zero values carry no
    support (mu is already zero there).  Empty input gives the zero
    profile (rank zero).
    """
    items = sorted(((v, w) for v, w in data.pairs if v > 0), reverse=True)
    breakpoints = [0.0]
    values = []
    for v, w in items:
        if values and values[-1] == v:
            breakpoints[-1] += w
        else:
            values.append(v)
            breakpoints.append(breakpoints[-1] + w)
    return step_mu(breakpoints, values)


# ---------------------------------------------------------------------------
# the transform and the group actions


def g_transform(mu: EigenvalueFunction) -> GFunction:
    """g(t) = -log mu(e^t); exact on every family."""
    return GFunction(mu.family, mu.a, mu.b)


def g_inverse(g: GFunction) -> EigenvalueFunction:
    """mu(x) = e^(-g(log x)); inverse of g_transform."""
    fam = g.family
    if isinstance(fam, GStep) and not fam.finite_rank:
        if fam.values[-1] == fam.values[0]:
            raise NotInfinitesimal("constant g gives a non-vanishing profile")
    return EigenvalueFunction(g.family, g.a, g.b)


def dilate(mu: EigenvalueFunction, lam: float) -> EigenvalueFunction:
    """D_lam mu(x) = lam * mu(lam x); a shift by (-log lam, -log lam) in G."""
    if lam <= 0:
        raise NonpositiveLambda(f"dilation parameter must be positive, got {lam}")
    ll = math.log(lam)
    return EigenvalueFunction(mu.family, mu.a - ll, mu.b - ll)


def shift(g: GFunction, a: float, b: float) -> GFunction:
    """t -> b + g(t - a); stays in G for any real a, b."""
    return g.shifted(a, b)


def pointwise_min(f: GFunction, g: GFunction) -> GFunction:
    """(f ^ g)(t) = min(f(t), g(t)); G is closed under minima."""
    return GFunction(MinOf(f, g))
