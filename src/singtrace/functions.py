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
import operator
import sys
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
_LOG2 = math.log(2.0)


def logsubexp(a, b):
    """log(e^a - e^b) elementwise for a >= b; equal entries give -inf.

    log(1 - e^d), d = b - a, is log(-expm1(d)) above d = -log 2 and
    log1p(-e^d) below it, which keeps its digits on both sides (Maechler
    2012, "Accurately computing log(1 - exp(-|a|))").  A pair of floats,
    the scalar of root finding, takes numpy's scalar ufuncs: the same
    values, without the array round trip.
    """
    if isinstance(a, float) and isinstance(b, float):
        if b >= a:
            return np.float64(-np.inf)
        d = b - a  # < 0, or nan
        return a + (np.log(-np.expm1(d)) if d > -_LOG2 else np.log1p(-np.exp(d)))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.minimum(b - a, 0.0)
        out = a + np.where(d > -_LOG2, np.log(-np.expm1(d)), np.log1p(-np.exp(d)))
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
    entries near 1 pay for logaddexp.  A float, the scalar g of root
    finding, stays a float: max there, numpy's logaddexp near 1.
    """
    if isinstance(t, float):
        return max(t, 1.0) if abs(t - 1.0) >= 40.0 else logaddexp(t, 1.0)
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return log_e_plus(float(t))
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


def _anchor_z1(q):
    """The first z1 of 8, 10, 12, ... up to _ANCHOR_MAX at which the terms are
    certified, and those terms; None past _ANCHOR_MAX.

    Certification is monotone in z, so the walk starts at an estimate and
    steps down while the rung below certifies, or up until one does.  By
    Stirling the least term is about sqrt(2 pi) z^(q - 1/2) e^(-z) / |Gamma(q)|;
    the estimate sets it to _CERTIFIED and solves for z by fixed-point steps.
    For q = 0, -1, ... the terms vanish from k = 1 - q on.
    """
    if q <= 0 and float(q).is_integer():
        z1 = 8.0
    else:
        r = 0.5 * math.log(2.0 * math.pi) - math.log(_CERTIFIED) - math.lgamma(q)
        z1 = max(r, 2.0 * q, 8.0)
        for _ in range(4):
            z1 = min(max(r + (q - 0.5) * math.log(z1), 8.0), _ANCHOR_MAX)
        z1 = 2.0 * math.ceil(z1 / 2.0)
    terms = _certified_terms(q, z1)
    if terms is not None:
        while z1 > 8.0 and (below := _certified_terms(q, z1 - 2.0)) is not None:
            z1, terms = z1 - 2.0, below
    while terms is None:
        z1 += 2.0
        if z1 > _ANCHOR_MAX:
            return None
        terms = _certified_terms(q, z1)
    return z1, terms


def _power_gap(m, log_u):
    """(1 - u^-m) / m, and log u at m = 0: a term (z^m - z0^m) / m over z^m, u = z / z0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(m == 0, log_u, -np.expm1(-m * log_u) / m)


def _exp_power_anchor(q, z0):
    """The integral I(z) of e^y y^(-q) from z0 > 0: a series up to z1, its asymptotic
    antiderivative F past it.

    F' = e^z z^(-q) (1 - t_K(z)) for F cut before its term t_K, so past a z1
    where the terms are certified (they shrink, and t_K is below _CERTIFIED
    of the sum) every z >= z1 is certified too, and I = F + I(z1) - F(z1).
    z1 is the first of 8, 10, 12, ... up to _ANCHOR_MAX that is certified
    (_anchor_z1).
    I(z) = sum_n (z^m - z0^m) / (n! m), m = n + 1 - q, of nonnegative terms,
    cut past n = z1 below _CERTIFIED of I(z1), and of I(z) for every z < z1.
    Returns z1, the terms at z1 (highest first, for np.polyval in z1/z),
    (I(z1) - F(z1)) e^(-z1) z1^q, the coefficients z1^n / (n! m) highest first,
    C0 = sum_n z0^m / (n! m), both without the term k of least |m| (it would
    cancel), and (k, m_k); None past _ANCHOR_MAX or on overflow.
    """
    anchor = _anchor_z1(q)
    if anchor is None:
        return None
    z1, terms = anchor
    n = np.arange(int(z1 + 16.0 * math.sqrt(z1)) + 40)
    m = n + 1.0 - q
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # each term of I(z1) e^(-z1) z1^q: z1^(n+1) e^(-z1) / n! times z1^-m (z1^m - z0^m) / m
        at_z1 = np.cumprod(np.append(z1 * math.exp(-z1), z1 / n[1:]))
        at_z1 *= _power_gap(m, math.log(z1) - math.log(z0))
        total = np.cumsum(at_z1)
        cut = np.flatnonzero((n > z1) & (at_z1 <= _CERTIFIED * total))
        if not cut.size or not math.isfinite(total[cut[0]]):
            return None
        n, m = n[:cut[0] + 1], m[:cut[0] + 1]
        k = int(np.argmin(np.abs(m)))
        coef = np.where(n == k, 0.0, np.cumprod(np.append(1.0, z1 / n[1:])) / m)
        at_z0 = np.float64(z0) ** (1 - q) * np.cumprod(np.append(1.0, z0 / n[1:])) / m
        c0 = math.fsum(at_z0[n != k])
    if not math.isfinite(c0):
        return None
    return z1, np.array(terms[::-1]), total[cut[0]] - math.fsum(terms), coef[::-1], c0, (k, m[k])


def knot_grid(lo, hi, points, knots, offsets):
    """points evenly spaced from lo to hi, plus k + d (capped at hi) for each
    knot k and offset d: a step profile changes right at its jumps.  The
    extras are stably sorted into the grid, which merges two sorted runs,
    and repeats are dropped: sorted and unique, as np.unique would give."""
    ss = np.linspace(lo, hi, points)
    if not len(knots):
        return ss
    ss = np.concatenate((ss, np.minimum(np.add.outer(knots, offsets), hi).ravel()))
    ss.sort(kind="stable")
    fresh = ss[1:] != ss[:-1]
    return ss if fresh.all() else ss[np.concatenate(([True], fresh))]


# ---------------------------------------------------------------------------
# growth profiles (exact asymptotics of g, used by the ideal decisions)


@dataclass(frozen=True, order=True)
class GrowthProfile:
    """Asymptotic expansion of g: g(t) = slope*t + log_coeff*log(t) + const + o(1).

    Its reciprocal slope is the common growth index (1/0 = inf, 1/inf = 0).
    An exponential, g(t) = rate*e^t + O(1), outgrows every line: its slope
    is inf and only the rate matters.  The fields run in growth order, so
    the slower growing of two profiles is the lesser.
    """

    slope: float
    log_coeff: float = 0.0
    const: float = 0.0
    rate: float = 0.0

    def shifted(self, a: float, b: float) -> "GrowthProfile":
        if self.slope == math.inf:
            return GrowthProfile(math.inf, rate=self.rate * math.exp(-a))
        return GrowthProfile(self.slope, self.log_coeff, self.const + b - self.slope * a)


# ---------------------------------------------------------------------------
# concrete families


class Family:
    """What every concrete family provides, with the defaults most share.

    A family defines mu (on the M side) and g (on the G side), and
    overrides the defaults below where they do not hold.  Families with
    jumps report them through edges_x() and knots_t(); the estimators read
    a piecewise_constant one at those points alone.
    """

    finite_rank = False
    piecewise_constant = False
    horizon_t = None  # None: trusted on all of t (or finite rank)
    profile = None  # exact GrowthProfile, when one is known
    rank = None  # total mass of the support of a finite rank profile
    construction = None  # a staircase's steps: the rule that built them (staircase module)

    @property
    def trace_class(self):
        """Integrability of mu, read off the profile; None when unknown."""
        p = self.profile
        if p is None:
            return None
        return p.slope > 1 or (p.slope == 1 and p.log_coeff > 1)

    trace_basis = "exact"  # read only where trace_class is not None

    @staticmethod
    def check_finite(what, *values, top_inf=False):
        """Reject nan and infinite input; top_inf lets +inf through.  The test
        runs in C (map over math's predicates); a failure names the first culprit."""
        if top_inf:
            ok = not any(map(math.isnan, values)) and -math.inf not in values
        else:
            ok = all(map(math.isfinite, values))
        if ok:
            return
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
        if edges is None:
            return None
        edges = np.array(edges, dtype=float)
        return tuple(np.log(edges[edges > 0]).tolist())

    def log_S_up(self, s):
        """Closed form of log S_up at s = log x, or None."""
        return None

    def log_S_down(self, s):
        """Closed form of log S_down at s = log x, or None."""
        return None

    def log_S_down_ratio(self, s, log_lam):
        """log S_down(s + log_lam) - log S_down(s), read directly where the closed
        form's constant would swallow it, or None (take the difference)."""
        return None

    def g_inverse_point(self, y):
        """inf{t : g(t) > y}: -inf when g exceeds y everywhere, +inf when the
        crossing lies past the floats, None when g never exceeds y."""
        raise NotImplementedError(f"{type(self).__name__} has no inverse of g")


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
    the up integral from _exp_power_anchor: its asymptotic antiderivative
    where that is certified, its series of nonnegative terms below.
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
        # (-log scale + p*u) + q*log u keeps every value bit for bit.  g(inf) =
        # inf: a zero term is left out (0*inf) and q < 0 caps log u (inf - inf)
        u = log_e_plus(t)
        out = self.p * u if self.p else 0.0
        out += -math.log(self.scale)
        if self.q:
            log_u = np.minimum(np.log(u), 710.0) if self.q < 0 else np.log(u)
            log_u *= self.q
            out += log_u
        return out

    @property
    def profile(self):
        return GrowthProfile(self.p, self.q, -math.log(self.scale))

    def log_S_up(self, s):
        """Closed forms for q = 0, for p = 1 with q <= 1, and from _exp_power_anchor
        for other p < 1: its series term by term for u < 2, by Horner in z/z1 up
        to z1; None on overflow.  Every form reads u - 1 as v = log1p(e^(s - 1))
        where it cancels, and below s = -39 takes S = scale e^(-p) x, exact to rounding."""
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
        if self.p >= 1 or self._up_anchor is None:
            return None
        z1, terms, d, coef, c0, (k, mk) = self._up_anchor
        q, z0, s1 = self.q, 1 - self.p, np.atleast_1d(s)
        u = log_e_plus(s1)
        z = z0 * u
        high, low = z >= z1, u < 2
        mid = ~(high | low)
        log_i = np.empty(z.shape)  # log I(z)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            zh = z[high]
            log_f = (zh - q * np.log(zh)) + np.log(np.polyval(terms, z1 / zh))
            log_i[high] = log_f + np.log1p(d * np.exp((z1 - q * math.log(z1)) - log_f))
            if low.any():
                # term by term, with log u = log1p(v); z < 2, so the terms
                # past n = 28 are below 1e-21 of the sum
                zl, log_u = z[low], np.log1p(np.log1p(np.exp(np.maximum(s1[low], -39.0) - 1.0)))
                total, power = np.zeros(zl.shape), np.ones(zl.shape)
                for n in range(28):
                    total += power * _power_gap(n + 1 - q, log_u)
                    power *= zl / (n + 1)
                log_i[low] = (1 - q) * np.log(zl) + np.log(total)
            if mid.any():
                # Horner in z/z1 on the table, less C0, plus the term k
                zm = z[mid]
                ratio, acc = zm / z1, np.full(zm.shape, coef[0])
                for a in coef[1:]:
                    acc *= ratio
                    acc += a
                log_i[mid] = np.log(zm ** (1 - q) * acc - c0 + zm ** mk / math.factorial(k)
                                    * _power_gap(mk, np.log(u[mid])))
        out = (c + (q - 1) * math.log(z0)) + log_i
        out[s1 < -39] = (c - self.p) + s1[s1 < -39]
        if not np.all(out < math.inf):
            return None  # overflow, or a nan s
        return out.reshape(np.shape(s))

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

    def log_S_down_ratio(self, s, log_lam):
        """The two elementary down forms without their constant: -log(p - 1)
        (q = 0) or -log(q - 1) (p = 1) grows toward the critical line, about 33
        at 2^-47 from it, and a difference of two log S values there rounds
        the ratio to 1."""
        if self.q == 0 and self.p > 1:
            return (1 - self.p) * float(log_e_plus(s + log_lam) - log_e_plus(s))
        if self.p == 1 and self.q > 1:
            return (1 - self.q) * (math.log(log_e_plus(s + log_lam)) - math.log(log_e_plus(s)))
        return None

    def g_inverse_point(self, y):
        """Solve p u + q log u = c = y + log(scale) for u > 1; e^t = e^u - e.  Newton in
        w = log u descends from log(2c/p), right of the root of the convex p e^w + q w - c
        for either sign of q; two Newton steps in u take off e^w's u * ulp(w) error."""
        p, q, c = self.p, self.q, y + math.log(self.scale)
        if q == 0:
            u = c / p
        elif c <= p:
            return -math.inf
        else:
            w = c / q if p == 0 else math.log(2.0 * c / p)
            log_p = math.log(p) if p > 0 else 0.0
            for _ in range(64 if p > 0 else 0):
                e = math.exp(w + log_p)
                step = (e + q * w - c) / (e + q)
                w -= step
                if not step > 1e-9 * w:
                    break
            if not w < 709.78:  # e^w overflows
                return math.inf
            u = math.exp(w)
            for _ in range(2):
                u -= (p * u + q * math.log(u) - c) / (p + q / u)
        if u <= 1.0:
            return -math.inf
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
        return GrowthProfile(math.inf, rate=self.alpha)

    def log_S_down(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return -self.alpha * np.exp(s) - math.log(self.alpha)

    def g_inverse_point(self, y):
        if y <= 0:
            return -math.inf
        r = y / self.alpha
        return math.log(r) if r > 0 else math.log(y) - math.log(self.alpha)  # r underflows


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
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        return np.maximum(self._floor, self.p * t - math.log(self.scale))

    @property
    def profile(self):
        return GrowthProfile(self.p, const=-math.log(self.scale))

    def log_S_up(self, s):
        if self.p > 1:
            return None
        s = np.asarray(s, dtype=float)
        sc = self._crossover_s
        head = np.log(self.cap) + np.minimum(s, sc)
        if self.p == 1:
            with np.errstate(divide="ignore"):
                tail_part = math.log(self.scale) + np.log(np.maximum(s - sc, 0.0))
        else:
            tail_part = (math.log(self.scale) - math.log(1 - self.p)
                         + logsubexp((1 - self.p) * np.maximum(s, sc), (1 - self.p) * sc))
        return logaddexp(head, np.where(s > sc, tail_part, -np.inf))

    def log_S_down(self, s):
        if self.p <= 1:
            return None
        s = np.asarray(s, dtype=float)
        sc = self._crossover_s
        tail_at = math.log(self.scale) - math.log(self.p - 1) + (1 - self.p) * np.maximum(s, sc)
        head = np.log(self.cap) + logsubexp(sc, np.minimum(s, sc))
        return np.where(s >= sc, tail_at, logaddexp(head, tail_at))

    def g_inverse_point(self, y):
        if y < self._floor:
            return -math.inf
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

    piecewise_constant = True

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

    def g_inverse_point(self, y):
        """The start of the first step above y: gv[j] holds from sb[j-1]."""
        sb, gv, _ = self._step_arrays
        j = int(np.searchsorted(gv, y, side="right"))
        if j == len(gv):
            return None
        return float(sb[j - 1]) if j else -math.inf

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
        bp = tuple(map(float, self.breakpoints))
        vals = tuple(map(float, self.values))
        self.check_finite("step breakpoints and values", *bp, *vals)
        if not bp or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not all(map(operator.lt, bp, bp[1:])):
            raise ValueError("breakpoints must increase strictly")
        if len(vals) != len(bp) - 1:
            raise ValueError("need one value per bounded piece")
        if min(vals, default=0.0) < 0:
            raise NegativeValue("step values must be nonnegative")
        if not all(map(operator.ge, vals, vals[1:])):
            raise ValueError("step values must be non-increasing")
        # zero-valued pieces carry no support; trim them into the tail
        while vals and vals[-1] == 0.0:
            vals = vals[:-1]
            bp = bp[:-1]
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    finite_rank = True
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
        bp = tuple(map(float, self.breakpoints))
        vals = tuple(map(float, self.values))
        self.check_finite("g step breakpoints", *bp)
        self.check_finite("g step values", *vals, top_inf=True)
        if self.horizon is not None:
            self.check_finite("g step horizon", self.horizon)
        if not bp:
            raise ValueError("need at least one breakpoint")
        if not all(map(operator.lt, bp, bp[1:])):
            raise ValueError("breakpoints must increase strictly")
        if len(vals) != len(bp) + 1:
            raise ValueError("need len(breakpoints) + 1 values")
        if not all(map(operator.le, vals, vals[1:])):
            raise ValueError("values must be non-decreasing")
        if vals[0] == vals[-1] < math.inf:
            raise NotInfinitesimal("constant g gives a non-vanishing profile")
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
        return "exact" if self.finite_rank else "tail_model"

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


@dataclass(frozen=True)
class SampledMu(_StepFamily):
    """Piecewise constant samples of a decay profile on an x grid.

    Without a tail model every asymptotic operation is restricted to the
    sampled horizon; with one, the tail family takes over past grid[-1],
    so the growth profile is the tail's.
    """

    grid: tuple
    values: tuple
    tail: Family | None = None

    def __post_init__(self):
        g = tuple(map(float, self.grid))
        v = tuple(map(float, self.values))
        self.check_finite("sample grid and values", *g, *v)
        if len(g) != len(v) or len(g) < 2:
            raise ValueError("need matching grid/values with at least 2 samples")
        if g[0] < 0 or not all(map(operator.lt, g, g[1:])):
            raise ValueError("grid must be nonnegative and strictly increasing")
        if min(v) < 0:
            raise NegativeValue("sample values must be nonnegative")
        if not all(map(operator.ge, v, v[1:])):
            raise ValueError("sample values must be non-increasing")
        if self.tail is not None and not isinstance(self.tail, Family):
            raise TypeError(f"a sampled tail must be a Family, got {type(self.tail)!r}")
        if self.tail is None and v[0] == v[-1] > 0:
            raise NotInfinitesimal("constant samples give a non-vanishing profile")
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
        return "exact" if self.tail is None else "tail_model"

    @property
    def profile(self):
        return None if self.tail is None else self.tail.profile

    @property
    def piecewise_constant(self):
        return self.tail is None or self.tail.piecewise_constant

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

    def g_inverse_point(self, y):
        t = super().g_inverse_point(y)
        end = float(self._step_arrays[2])
        if self.tail is None or (t is not None and t < end):
            return t
        t = self.tail.g_inverse_point(y)
        return None if t is None else max(end, t)

    def log_S_up(self, s):
        s = np.asarray(s, dtype=float)
        end = self._tables.s_end
        base = self._tables.log_up(np.minimum(s, end))
        if self.tail is None:
            return base
        tail = self.tail.log_S_up(np.append(np.maximum(s, end), end))
        if tail is None:
            return None
        # the tail's mass over [end, s]: -inf at or below end
        return logaddexp(base, logsubexp(tail[:-1], tail[-1]).reshape(s.shape))

    def log_S_down(self, s):
        s = np.asarray(s, dtype=float)
        end = self._tables.s_end
        base = self._tables.log_down(np.minimum(s, end))  # -inf from end on
        if self.tail is None:
            return base
        tail = self.tail.log_S_down(np.maximum(s, end))
        return None if tail is None else logaddexp(base, tail)


def _closed_log_S(view, s, up):
    """The family's closed form of log S on one branch, with the view's shift
    adjustment, or None.

    For mu(x) = e^(-b) f(x e^(-a)) both branches scale the same way:
    S(x) = e^(a-b) S_f(x e^(-a)).
    """
    s = np.asarray(s, dtype=float) - view.a
    base = view.family.log_S_up(s) if up else view.family.log_S_down(s)
    return None if base is None else (view.a - view.b) + base


def _lower_side(left, right):
    """The side of min(left, right) certified to lie at or below the other on
    all of t, or None.

    Certified for two PowerLog sides under the same t shift a: with
    u = log(e^(t - a) + e) > 1 their difference left - right is
    h(u) = dp u + dq log u + dc, which has at most one extremum on u > 1, at
    u* = -dq/dp.  So h keeps one sign on all of t when h(1), h(u*) (where
    u* > 1) and the sign of h as u -> inf agree.
    """
    fl, fr = left.family, right.family
    if not (isinstance(fl, PowerLog) and isinstance(fr, PowerLog)) or left.a != right.a:
        return None
    dp, dq = fl.p - fr.p, fl.q - fr.q
    dc = (left.b - math.log(fl.scale)) - (right.b - math.log(fr.scale))
    h = [dp + dc, dp or dq or dc]  # h(1), and a value with h's sign as u -> inf
    if dp and (u := -dq / dp) > 1:
        h.append(dp * u + dq * math.log(u) + dc)
    if all(v >= 0 for v in h):
        return right
    if all(v <= 0 for v in h):
        return left
    return None


@dataclass(frozen=True)
class MinOf(Family):
    """Pointwise minimum of two G-side functions.

    S is a closed form where one side is certified (_lower_side) to lie
    below the other on all of t: that side's own, moved by its shift.
    Otherwise log_S_up and log_S_down return None and S takes panels.
    """

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
    def trace_basis(self):
        # a tail model behind either decided side carries over to the minimum
        sides = [f for f in (self.left.family, self.right.family) if f.trace_class is not None]
        return "tail_model" if any(f.trace_basis == "tail_model" for f in sides) else "exact"

    @property
    def profile(self):
        # the slower growing side wins
        pa, pb = self.left.profile, self.right.profile
        return None if pa is None or pb is None else min(pa, pb)

    @property
    def piecewise_constant(self):
        return self.left.family.piecewise_constant and self.right.family.piecewise_constant

    def knots_t(self):
        # a jump of either side can be a jump of the minimum; an extra knot
        # where the other side is lower only adds a scan or grid point
        knots = (self.left.knots_t or ()) + (self.right.knots_t or ())
        return tuple(sorted(set(knots))) if knots else None

    def g(self, t):
        return np.minimum(self.left.eval(t), self.right.eval(t))

    def mu(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(g_inverse(self.left).eval(x), g_inverse(self.right).eval(x))

    @cached_property
    def _lower(self):
        return _lower_side(self.left, self.right)

    def log_S_up(self, s):
        return None if self._lower is None else _closed_log_S(self._lower, s, True)

    def log_S_down(self, s):
        return None if self._lower is None else _closed_log_S(self._lower, s, False)

    def g_inverse_point(self, y):
        # both sides are non-decreasing, so min > y from where both are
        ts = (self.left.inverse_point(y), self.right.inverse_point(y))
        return None if None in ts else max(ts)


# ---------------------------------------------------------------------------
# public wrappers


def _below_sum(b, y):
    """The largest float v whose float sum b + v is at most y.

    TwoSum (Knuth, TAOCP vol. 2, 4.2.2) gives y - b = s + e exactly.  Sums
    that round to y or below end half the gap above y past it, so s + (e +
    gap / 2) rounds to v or to the float above it: one check of b + v settles it.
    """
    s = y - b
    if not math.isfinite(s):  # a nan or infinite y, or y - b past the floats
        return sys.float_info.max if s == math.inf > y else s
    z = s - y
    e = (y - (s - z)) - (b + z)
    gap = math.ulp(y) if y > 0 else math.nextafter(y, math.inf) - y
    v = s + (e + 0.5 * gap)
    return math.nextafter(v, -math.inf) if b + v > y else v


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
        """The family's jumps k in t under the shift, each the first float t whose
        lookup at t - a has jumped, -_below_sum(a, -k); None without jumps."""
        knots = self.family.knots_t()
        if knots is None or self.a == 0:
            return knots
        return tuple(-_below_sum(self.a, -k) for k in knots)

    def knots_in(self, lo, hi):
        """The shifted jumps inside [lo, hi]."""
        return [k for k in self.knots_t or () if lo <= k <= hi]

    def shifted(self, a, b):
        return type(self)(self.family, self.a + a, self.b + b)


@dataclass(frozen=True)
class GFunction(_View):
    """Element of G: a family plus a shift, g(t) = b + family.g(t - a)."""

    def eval(self, t):
        """g at t; a float t stays a float through the families that take one."""
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        return self.b + self.family.g(t - self.a)

    @property
    def profile(self):
        p = self.family.profile
        return None if p is None else p.shifted(self.a, self.b)

    def inverse_point(self, y):
        """inf{t : g(t) > y}, on the family's g_inverse_point contract.

        A family without jumps answers for y - b, moved by a.  Otherwise both
        roundings of b + family.g(t - a) are exact: the sum b + w exceeds y
        just where w exceeds _below_sum(b, y), and the family's answer t moves
        to the first float whose lookup reaches t (at a jump, the view's knot)."""
        if self.knots_t is None:
            t = self.family.g_inverse_point(y - self.b)
            return None if t is None else t + self.a
        t = self.family.g_inverse_point(_below_sum(self.b, y))
        return None if t is None else 0.0 - _below_sum(self.a, -t)  # 0.0 stays +0.0


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


def _as_view(fn, cls):
    """fn itself when it is a cls view, else the cls view of its (family, a, b)."""
    if isinstance(fn, cls):
        return fn
    if isinstance(fn, _View):
        return cls(fn.family, fn.a, fn.b)
    raise TypeError(f"expected a profile or its g view, got {type(fn)!r}")


def g_transform(mu) -> GFunction:
    """g(t) = -log mu(e^t); exact on every family.  A g view comes back as is."""
    return _as_view(mu, GFunction)


def g_inverse(g) -> EigenvalueFunction:
    """mu(x) = e^(-g(log x)); inverse of g_transform.  A profile comes back as is."""
    return _as_view(g, EigenvalueFunction)


def dilate(mu: EigenvalueFunction, lam: float) -> EigenvalueFunction:
    """D_lam mu(x) = lam * mu(lam x); a shift by (-log lam, -log lam) in G."""
    if lam <= 0:
        raise NonpositiveLambda(f"dilation parameter must be positive, got {lam}")
    ll = math.log(lam)
    return _as_view(mu, _View).shifted(-ll, -ll)


def shift(g: GFunction, a: float, b: float) -> GFunction:
    """t -> b + g(t - a); stays in G for any real a, b."""
    return _as_view(g, _View).shifted(a, b)


def pointwise_min(f: GFunction, g: GFunction) -> GFunction:
    """(f ^ g)(t) = min(f(t), g(t)); G is closed under minima."""
    return GFunction(MinOf(g_transform(f), g_transform(g)))
