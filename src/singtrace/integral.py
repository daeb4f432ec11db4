"""Integral profiles and the ratio quantities behind the traceability tests.

For a decay profile mu the integral profile is

    S(x) = S_up(x)   = integral_0^x mu          when mu is not integrable,
    S(x) = S_down(x) = integral_x^inf mu        when it is,

so trace class membership decides which branch applies.  The quantities
S(lam x)/S(x) and x mu(x)/S(x) feed the traceability criteria; both are
computed in the log domain (s = log x) so that staircase profiles with
astronomically large breakpoints never overflow.

Closed forms are used wherever a family carries one; the fallback is
adaptive quadrature (scipy) over log-spaced panels with relative
tolerance 1e-10 and interval doubling for tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import SupportExceeded, UndecidedBranch, ZeroDenominator
from .functions import EigenvalueFunction, GFunction, g_transform
from .numutil import as_float, logaddexp

TRACE_CLASS = "trace_class"
NOT_TRACE_CLASS = "not_trace_class"
UNDECIDED = "undecided"

QUAD_RTOL = 1e-10
_PANEL = 20.0  # panel width in s = log x for the quadrature fallback


@dataclass(frozen=True)
class TraceClassVerdict:
    verdict: str  # trace_class | not_trace_class | undecided
    basis: str  # exact | tail_model | horizon_only

    @property
    def decided(self):
        return self.verdict != UNDECIDED

    @property
    def is_trace_class(self):
        if not self.decided:
            raise UndecidedBranch("trace class status undecided on this horizon")
        return self.verdict == TRACE_CLASS


def is_trace_class(mu: EigenvalueFunction) -> TraceClassVerdict:
    """Integrability of mu; shifts and dilations do not affect it."""
    tc = mu.family.trace_class
    if tc is None:
        return TraceClassVerdict(UNDECIDED, "horizon_only")
    return TraceClassVerdict(TRACE_CLASS if tc else NOT_TRACE_CLASS, mu.family.trace_basis)


# ---------------------------------------------------------------------------
# quadrature fallback, entirely in s = log x coordinates


def _panel_log_mass(g: GFunction, r1: float, r2: float) -> float:
    """log integral_{r1}^{r2} e^(r - g(r)) dr via scaled quadrature."""
    if r2 <= r1:
        return -math.inf
    probes = np.linspace(r1, r2, 7)
    expo = probes - g.eval(probes)
    k = float(np.max(expo))
    if k == -math.inf:
        return -math.inf

    def f(r):
        return math.exp(min(r - g(r) - k, 50.0))

    val, _ = quad(f, r1, r2, epsrel=QUAD_RTOL, epsabs=0.0, limit=200)
    if val <= 0:
        return -math.inf
    return k + math.log(val)


def _quad_log_S_up(mu: EigenvalueFunction, s: float) -> float:
    g = g_transform(mu)
    # head: integral over x in (0, 1], done in x space
    head, _ = quad(lambda x: mu(x), 0.0, math.exp(min(s, 0.0)), epsrel=QUAD_RTOL,
                   epsabs=0.0, limit=200)
    log_head = math.log(head) if head > 0 else -math.inf
    if s <= 0:
        return log_head
    edges = np.arange(0.0, s, _PANEL)
    acc = log_head
    for lo in edges:
        hi = min(lo + _PANEL, s)
        acc = as_float(logaddexp(acc, _panel_log_mass(g, lo, hi)))
    return acc


def _quad_log_S_down(mu: EigenvalueFunction, s: float) -> float:
    g = g_transform(mu)
    acc = -math.inf
    lo = s
    for _ in range(200):
        hi = lo + _PANEL
        piece = _panel_log_mass(g, lo, hi)
        new = as_float(logaddexp(acc, piece))
        if acc > -math.inf and piece < acc - 34.0:  # < 1e-14 relative
            return new
        acc = new
        lo = hi
    return acc


# ---------------------------------------------------------------------------
# the S engine


def _closed_log_S(mu: EigenvalueFunction, s, up: bool):
    """Family closed form with the shift adjustment, or None.

    For mu(x) = e^(-b) f(x e^(-a)) both branches scale the same way:
    S(x) = e^(a-b) S_f(x e^(-a)).
    """
    fam = mu.family
    base = fam.log_S_up(np.asarray(s, dtype=float) - mu.a) if up else fam.log_S_down(
        np.asarray(s, dtype=float) - mu.a
    )
    if base is None:
        return None
    return (mu.a - mu.b) + base


def branch_is_up(mu: EigenvalueFunction) -> bool:
    return not is_trace_class(mu).is_trace_class


def branch_of(mu: EigenvalueFunction) -> str:
    """'up' (cumulative integral) when mu is not integrable, 'down' (tail
    integral) when it is; raises UndecidedBranch otherwise."""
    return "up" if branch_is_up(mu) else "down"


def log_S(mu: EigenvalueFunction, s: float) -> float:
    """log S(e^s) on whichever branch applies."""
    up = branch_is_up(mu)
    closed = _closed_log_S(mu, s, up)
    if closed is not None:
        return as_float(closed)
    return _quad_log_S_up(mu, s) if up else _quad_log_S_down(mu, s)


def log_S_grid(mu: EigenvalueFunction, ss: np.ndarray) -> np.ndarray:
    """log S over a sorted grid of s values; batches the quadrature fallback."""
    up = branch_is_up(mu)
    closed = _closed_log_S(mu, ss, up)
    if closed is not None:
        return np.asarray(closed, dtype=float)
    g = g_transform(mu)
    panels = np.array(
        [_panel_log_mass(g, s1, s2) for s1, s2 in zip(ss[:-1], ss[1:])]
    )
    if up:
        start = _quad_log_S_up(mu, float(ss[0]))
        out = np.empty(len(ss))
        out[0] = start
        acc = start
        for i, piece in enumerate(panels):
            acc = as_float(logaddexp(acc, piece))
            out[i + 1] = acc
        return out
    end = _quad_log_S_down(mu, float(ss[-1]))
    out = np.empty(len(ss))
    out[-1] = end
    acc = end
    for i in range(len(panels) - 1, -1, -1):
        acc = as_float(logaddexp(acc, panels[i]))
        out[i] = acc
    return out


def S(mu: EigenvalueFunction, x: float) -> float:
    """S(x); exact for step profiles and closed form families.

    Past the support of a finite rank profile the down branch is 0; the
    ratio operations raise SupportExceeded there instead of dividing.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    return math.exp(log_S(mu, math.log(x)))


def s_ratio(mu: EigenvalueFunction, lam: float, x: float) -> float:
    """S(lam x) / S(x) for lam > 1."""
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    if x <= 0:
        raise ValueError("x must be positive")
    s = math.log(x)
    den = log_S(mu, s)
    if den == -math.inf:
        raise SupportExceeded(f"S vanishes at x = {x}")
    num = log_S(mu, s + math.log(lam))
    return math.exp(num - den)


def mu_over_S(mu: EigenvalueFunction, x: float) -> float:
    """x mu(x) / S(x), the quantity whose liminf detects traceability."""
    if x <= 0:
        raise ValueError("x must be positive")
    rank = mu.rank
    if rank is not None and x >= rank:
        raise ZeroDenominator(f"profile vanishes from {rank} on")
    s = math.log(x)
    den = log_S(mu, s)
    if den == -math.inf:
        raise ZeroDenominator(f"S vanishes at x = {x}")
    gval = g_transform(mu)(s)
    return math.exp(s - gval - den)


def mu_mass(mu: EigenvalueFunction, x1: float, x2: float) -> float:
    """integral_{x1}^{x2} mu, independent of the branch split.

    Exact piecewise sums for step-like profiles, quadrature otherwise.
    """
    if x2 < x1 or x1 < 0:
        raise ValueError("need 0 <= x1 <= x2")
    if x2 == x1:
        return 0.0
    edges = mu.family.edges_x()
    if edges is not None:
        scale = math.exp(mu.a)
        scaled = [e * scale for e in edges]
        xs = sorted({x1, x2, *[e for e in scaled if x1 < e < x2]})
        # value on [a, b) is mu(a) by right continuity
        return math.fsum(mu(a) * (b - a) for a, b in zip(xs[:-1], xs[1:]))
    val, _ = quad(lambda x: mu(x), x1, x2, epsrel=QUAD_RTOL, epsabs=0.0, limit=200)
    return val
