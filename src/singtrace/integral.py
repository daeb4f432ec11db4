"""Integral profiles and the ratio quantities behind the traceability tests.

For a decay profile mu the integral profile is

    S(x) = S_up(x)   = integral_0^x mu          when mu is not integrable,
    S(x) = S_down(x) = integral_x^inf mu        when it is,

so trace class membership decides which branch applies.  The quantities
S(lam x)/S(x) and x mu(x)/S(x) feed the traceability criteria; both are
computed in the log domain (s = log x) so that staircase profiles with
astronomically large breakpoints never overflow.

Closed forms are used wherever a family carries one: a family's
log_S_up or log_S_down, moved by the view's shift (functions._closed_log_S).
Every power-log has one: elementary for q = 0 and p = 1, an incomplete
gamma for p > 1, and for p < 1 a series of nonnegative terms that meets
an asymptotic antiderivative at its anchor.  A pointwise minimum of two
power-logs under one t shift has its lower side's, where that side is
certified to lie below the other for every t.  s_ratio of the two
elementary down forms reads the log ratio directly (log_S_down_ratio):
near p = 1, or q = 1 at p = 1, log S is near 33 and a difference of two
such values rounds it away.  For other minima, and
where a power-log's fraction fails or its anchor overflows, the
fallback is QUADPACK's qk21 pair on e^(s - g(s)) over panels in
s = log x, each shifted by its largest exponent.  A panel keeps its 21-point Kronrod sum
K21; the gap to the 10-point Gauss sum G10 on the same values, relative
to the mass of the grid panel it was cut from (its owner), decides
whether it is bisected; one that never passes raises
QuadratureUnconverged.  The family's jumps are panel edges.  The rule
evaluates the integrand on at most 400 panels per call, so its
temporaries stay in cache however long the grid.  Each grid gap is one
panel; an infinite end (the up branch's head, the down branch's tail,
mu_mass from x = 0) goes to one march: 200 panels of width 20, then
panels of doubling width while |s| <= 2^52, until one adds less than
e^-34 of the sum.  Past 2^52 adjacent floats are at least 1 apart, so
s - g(s) is only rounding; a sum still growing there raises
QuadratureUnconverged.  The head is the march left from min(s, 0) plus
panels of width 20 from there up to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, QuadratureUnconverged, SupportExceeded, UndecidedBranch, ZeroDenominator
from .functions import EigenvalueFunction, GFunction, _closed_log_S, g_inverse, g_transform, logaddexp, piece_sum

TRACE_CLASS = "trace_class"
NOT_TRACE_CLASS = "not_trace_class"
UNDECIDED = "undecided"

_QK21 = np.array([  # QUADPACK qk21 on [-1, 0]: node, K21 weight, G10 weight
    [-0.9956571630258081, 0.011694638867371874, 0.0],
    [-0.9739065285171717, 0.032558162307964725, 0.06667134430868814],
    [-0.9301574913557082, 0.054755896574351995, 0.0],
    [-0.8650633666889845, 0.07503967481091996, 0.1494513491505806],
    [-0.7808177265864169, 0.0931254545836976, 0.0],
    [-0.6794095682990244, 0.10938715880229764, 0.21908636251598204],
    [-0.5627571346686047, 0.12349197626206584, 0.0],
    [-0.4333953941292472, 0.13470921731147334, 0.26926671930999635],
    [-0.2943928627014602, 0.14277593857706009, 0.0],
    [-0.14887433898163122, 0.14773910490133849, 0.29552422471475287],
    [0.0, 0.1494455540029169, 0.0],
])
_RULE = np.vstack([_QK21, _QK21[-2::-1] * [-1, 1, 1]])  # mirrored onto [-1, 1]
_TOL = 1e-13  # K21 - G10 test, relative to the owner panel's mass
_DEPTH = 30  # bisections of one panel
_MAX_SPLIT = 4096  # panels failing at once: past this the fault is not local
_PANEL = 20.0  # panel width in s = log x for the quadrature fallback
_TAIL_PANELS, _TAIL_BATCH = 200, 8  # march: panels of width _PANEL, panels per rule call
_FAR = 2.0 ** 52  # then doubling panels up to |r| = _FAR: past it floats are >= 1 apart
_RULE_BATCH = 400  # panels per log_f call: 8400 nodes, whose temporaries stay in cache


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
    tc = g_inverse(mu).family.trace_class
    if tc is None:
        return TraceClassVerdict(UNDECIDED, "horizon_only")
    return TraceClassVerdict(TRACE_CLASS if tc else NOT_TRACE_CLASS, mu.family.trace_basis)


# ---------------------------------------------------------------------------
# quadrature fallback: a vectorized Gauss-Kronrod rule in the log domain


def _log_rule(log_f, lo, hi):
    """log of the K21 and the G10 sums of e^log_f over each panel [lo, hi].

    One log_f call covers the nodes of up to _RULE_BATCH panels, so its
    temporaries stay small; each panel is shifted by its own largest
    exponent, so no sum overflows.
    """
    out = np.empty((2, len(lo)))
    for i in range(0, len(lo), _RULE_BATCH):
        a, b = lo[i:i + _RULE_BATCH], hi[i:i + _RULE_BATCH]
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[:, None] + half[:, None] * _RULE[:, 0]
        vals = log_f(nodes.ravel()).reshape(nodes.shape)
        k = np.max(vals, axis=1, initial=-math.inf)[:, None]
        if np.any(np.isnan(k)):
            raise QuadratureUnconverged("the integrand is nan inside a panel")
        with np.errstate(invalid="ignore", divide="ignore"):
            # in place: a fresh temporary per batch makes malloc return and
            # re-fault its pages when the heap trims
            vals -= k
            total = np.log(half[:, None] * (np.exp(vals, out=vals) @ _RULE[:, 1:]))
        out[:, i:i + _RULE_BATCH] = np.where(k == -math.inf, -math.inf, k + total).T
    return out


def _log_masses(log_f, lo, hi):
    """log integral of e^log_f over each panel [lo[i], hi[i]].

    A panel keeps its K21 sum.  Its error |K21 - G10|, scaled to the
    first-pass mass of its owner (the input panel it was cut from), is
    tested against that mass and, for rounding in log_f, the size of the
    owner's coordinates and log mass: a kink's error falls like the width
    squared and passes, a jump's only like the width.  Failing panels are
    bisected together, up to _DEPTH times; one that still fails, or more
    than _MAX_SPLIT failing at once, raises QuadratureUnconverged.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = np.full(lo.shape, -math.inf)
    first = np.full(lo.shape, -math.inf)
    owner = np.flatnonzero(hi > lo)
    a, b = lo[owner], hi[owner]
    for depth in range(_DEPTH + 1):
        kron, gauss = _log_rule(log_f, a, b)
        if depth == 0:
            first[owner] = kron
            scale = 1.0 + np.maximum(np.abs(lo), np.abs(hi)) + np.abs(first)
        with np.errstate(invalid="ignore", over="ignore"):
            err = np.abs(kron - gauss) * np.exp(kron - first[owner])
            ok = (kron == gauss) | (err <= _TOL * scale[owner])
        np.logaddexp.at(out, owner[ok], kron[ok])
        bad = ~ok
        failed = np.count_nonzero(bad)
        if failed == 0:
            return out
        if depth == _DEPTH or failed > _MAX_SPLIT:
            break
        mid = 0.5 * (a[bad] + b[bad])
        owner = np.concatenate([owner[bad], owner[bad]])
        a, b = np.concatenate([a[bad], mid]), np.concatenate([mid, b[bad]])
    raise QuadratureUnconverged(
        f"{failed} quadrature panel(s) within [{a[bad].min():.17g}, {b[bad].max():.17g}] "
        f"failed the K21 - G10 error test after {depth} bisections")


def _log_s_panels(g: GFunction, edges):
    """log integral of e^(r - g(r)) dr between consecutive sorted edges in s,
    with g's jumps inside as extra edges."""
    edges = np.asarray(edges, dtype=float)
    cuts = np.union1d(edges, g.knots_in(edges[0], edges[-1]))
    owner = np.searchsorted(edges, cuts[:-1], side="right") - 1
    out = np.full(len(edges) - 1, -math.inf)
    np.logaddexp.at(out, owner, _log_masses(lambda r: r - g.eval(r), cuts[:-1], cuts[1:]))
    return out


def _march(g: GFunction, s: float, step: int, inner):
    """log integral of e^(r - g(r)) dr from s toward +inf (step 1) or -inf
    (step -1) in rule calls of _TAIL_BATCH panels, and the log masses of the
    panels between the sorted edges inner, which end (step 1) or start
    (step -1) at s.  Those join the first batch's rule call: apart, the
    bisections next to s would take their rule calls twice."""
    def run(e):  # log masses between edges in march order, in march order
        return _log_s_panels(g, e[::step])[::step]

    near = s + step * _PANEL * np.arange(_TAIL_PANELS + 1)
    far = near[-1] + step * _PANEL * (2.0 ** np.arange(1, 64) - 1.0)
    edges = np.concatenate([near, far[np.abs(far) <= _FAR]])
    n = len(inner) - 1
    joint = run(np.concatenate([inner[::step], edges[1:_TAIL_BATCH + 1]]))
    acc, pieces = -math.inf, joint[n:]
    for first in range(0, len(edges) - 1, _TAIL_BATCH):
        if first:
            pieces = run(edges[first:first + _TAIL_BATCH + 1])
        for piece in pieces:
            new = float(logaddexp(acc, piece))
            if acc > -math.inf and piece < acc - 34.0:
                return new, joint[:n][::step]
            acc = new
    raise QuadratureUnconverged(
        f"the integral from s = {s:.17g} toward {'+' if step > 0 else '-'}inf "
        f"still grows at s = {edges[-1]:.17g}")


def _log_integral(g: GFunction, ss, step: int):
    """log integral of e^(r - g(r)) dr from each s of the ascending grid ss
    out to +inf (step 1, the down branch) or -inf (step -1, the up branch);
    the march starts at ss[-1], or at min(ss[0], 0) below panels up to ss[0]."""
    s = ss[-1] if step > 0 else min(ss[0], 0.0)
    total, panels = _march(g, s, step, np.concatenate([np.arange(s, ss[0], _PANEL), ss]))
    return np.logaddexp.accumulate(np.append(total, panels[::-step]))[::-step][-len(ss):]


# ---------------------------------------------------------------------------
# the S engine


def branch_of(mu: EigenvalueFunction) -> str:
    """'up' (cumulative integral) when mu is not integrable, 'down' (tail
    integral) when it is; raises UndecidedBranch otherwise."""
    return "down" if is_trace_class(mu).is_trace_class else "up"


def log_S(mu: EigenvalueFunction, s: float) -> float:
    """log S(e^s) on whichever branch applies."""
    return float(log_S_grid(mu, np.array([s]))[0])


def log_S_grid(mu: EigenvalueFunction, ss: np.ndarray) -> np.ndarray:
    """log S over an ascending grid of s values; one batch of panels for the quadrature fallback."""
    ss = np.asarray(ss, dtype=float)
    if not np.all(np.isfinite(ss)):
        raise NonFinite("log_S_grid needs finite s values")
    if np.count_nonzero(ss[1:] < ss[:-1]):
        raise ValueError("log_S_grid needs an ascending grid of s values")
    up = branch_of(mu) == "up"
    closed = _closed_log_S(mu, ss, up)
    if closed is not None:
        return np.asarray(closed, dtype=float)
    return _log_integral(g_transform(mu), ss, -1 if up else 1)


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
    s, log_lam = math.log(x), math.log(lam)
    den, num = log_S_grid(mu, np.array([s, s + log_lam])).tolist()
    if den == -math.inf:
        raise SupportExceeded(f"S vanishes at x = {x}")
    # the two elementary down forms give the log ratio directly; the view's
    # shift scales both S values alike, so only its a moves s
    direct = mu.family.log_S_down_ratio(s - mu.a, log_lam)
    return math.exp(num - den if direct is None else direct)


def mu_over_S(mu: EigenvalueFunction, x: float) -> float:
    """x mu(x) / S(x), the quantity whose liminf detects traceability."""
    if x <= 0:
        raise ValueError("x must be positive")
    mu = g_inverse(mu)
    rank = mu.rank
    if rank is not None and x >= rank:
        raise ZeroDenominator(f"profile vanishes from {rank} on")
    s = math.log(x)
    den = log_S(mu, s)
    if den == -math.inf:
        raise ZeroDenominator(f"S vanishes at x = {x}")
    # s and g cancel for slowly decaying profiles, g and log S for rapidly
    # decaying ones: fsum rounds the sum of all three once
    return math.exp(math.fsum((s, -g_transform(mu)(s), -den)))


def mu_mass(mu: EigenvalueFunction, x1: float, x2: float) -> float:
    """integral_{x1}^{x2} mu, independent of the branch split.

    Exact piecewise sums for piecewise constant profiles, quadrature otherwise.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise NonFinite("mu_mass needs finite x1 and x2")
    if x2 < x1 or x1 < 0:
        raise ValueError("need 0 <= x1 <= x2")
    if x2 == x1:
        return 0.0
    mu = g_inverse(mu)
    edges = mu.family.edges_x()
    if edges is not None and mu.family.piecewise_constant:
        scale = math.exp(mu.a)
        return piece_sum(mu.eval, [e * scale for e in edges], x1, x2)
    g, s2 = g_transform(mu), math.log(x2)
    if x1 == 0:
        return math.exp(_log_integral(g, np.array([s2]), -1)[0])
    edges = np.append(np.arange(math.log(x1), s2, _PANEL), s2)
    return math.exp(np.logaddexp.reduce(_log_s_panels(g, edges)))
