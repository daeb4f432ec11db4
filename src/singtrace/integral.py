"""Integral profiles and the ratio quantities behind the traceability tests.

For a decay profile mu the integral profile is

    S(x) = S_up(x)   = integral_0^x mu          when mu is not integrable,
    S(x) = S_down(x) = integral_x^inf mu        when it is,

so trace class membership decides which branch applies.  The quantities
S(lam x)/S(x) and x mu(x)/S(x) feed the traceability criteria; both are
computed in the log domain (s = log x) so that staircase profiles with
astronomically large breakpoints never overflow.

Closed forms are used wherever a family carries one: a family's
log_S_up or log_S_down, moved by the view's shift in _closed_log_S.
Every power-log with p > 1 has one (an incomplete gamma), and one with
p < 1 has one once (1 - p) log(x + e) passes the anchor of its
asymptotic antiderivative; a call with any point below it returns None
and keeps the panels, as do pointwise minima.  The fallback is
QUADPACK's qk21 pair on e^(s - g(s)) over panels of width 20 in s (in x
for the head over (0, 1]), each shifted by its largest exponent.  A panel
keeps its 21-point Kronrod sum K21; the gap to the 10-point Gauss sum G10
on the same values, relative to the mass of the grid panel it was cut
from (its owner), decides whether it is bisected; one that never passes raises
QuadratureUnconverged.  The family's jumps are panel edges.  The rule
evaluates the integrand on at most 400 panels per call, so its
temporaries stay in cache however long the grid.  The down branch adds
panels until one changes the sum by less than 1e-14: 200 of width 20,
then up to 1000 of doubling width.  A capped tail stops after the 200
and raises QuadratureUnconverged if it has not converged there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnconverged, SupportExceeded, UndecidedBranch, ZeroDenominator
from .functions import EigenvalueFunction, GFunction, g_transform, logaddexp, piece_sum

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
_TAIL_PANELS, _TAIL_BATCH = 200, 8  # down branch: panels of width _PANEL, panels per rule call
_FAR_PANELS = 1000  # then panels of doubling width; _PANEL * 2^1000 is still finite
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
    tc = mu.family.trace_class
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


def _log_panels(log_f, edges, jumps=()):
    """Log masses between consecutive sorted edges, with the jumps inside as extra edges."""
    edges = np.asarray(edges, dtype=float)
    cuts = np.union1d(edges, [j for j in jumps if edges[0] < j < edges[-1]])
    owner = np.searchsorted(edges, cuts[:-1], side="right") - 1
    out = np.full(len(edges) - 1, -math.inf)
    np.logaddexp.at(out, owner, _log_masses(log_f, cuts[:-1], cuts[1:]))
    return out


def _log_s_panels(g: GFunction, edges):
    """log integral of e^(r - g(r)) dr between consecutive edges in s."""
    def log_f(r):
        return r - g.eval(r)

    return _log_panels(log_f, edges, g.knots_in(edges[0], edges[-1]))


def _log_integral(mu: EigenvalueFunction, s1: float, s2: float) -> float:
    """log integral of mu over e^s1 < x < e^s2; s1 = -inf starts at x = 0.

    Below x = 1 the rule runs in x, above it in s = log x over panels of
    width _PANEL, so no coordinate overflows.
    """
    parts = [-math.inf]
    if s1 < 0:
        def log_mu(x):
            with np.errstate(divide="ignore"):
                return np.log(mu.eval(x))

        scale = math.exp(mu.a)
        jumps = [e * scale for e in mu.family.edges_x() or ()]
        x_edges = [math.exp(s1), math.exp(min(s2, 0.0))]
        parts.append(_log_panels(log_mu, x_edges, jumps)[0])
    if s2 > 0:
        s_edges = np.append(np.arange(max(s1, 0.0), s2, _PANEL), s2)
        parts.extend(_log_s_panels(g_transform(mu), s_edges))
    return float(np.logaddexp.accumulate(parts)[-1])


def _quad_log_S_down(mu: EigenvalueFunction, s: float, capped: bool) -> float:
    """Panels from s on, until one adds < 1e-14 relative.

    The first _TAIL_PANELS have width _PANEL.  A tail still adding more
    after them raises QuadratureUnconverged when capped; otherwise it runs
    on in up to _FAR_PANELS panels of doubling width before it raises.
    """
    g = g_transform(mu)
    runs = [s + _PANEL * np.arange(_TAIL_PANELS + 1)]
    if not capped:
        runs.append(runs[0][-1] + _PANEL * (2.0 ** np.arange(_FAR_PANELS + 1) - 1.0))
    acc = -math.inf
    for edges in runs:
        for first in range(0, len(edges) - 1, _TAIL_BATCH):
            for piece in _log_s_panels(g, edges[first:first + _TAIL_BATCH + 1]):
                new = float(logaddexp(acc, piece))
                if acc > -math.inf and piece < acc - 34.0:
                    return new
                acc = new
    if capped:
        raise QuadratureUnconverged(
            f"the tail integral from s = {s:.17g} still grows after {_TAIL_PANELS} panels "
            f"(s + {_TAIL_PANELS * _PANEL:g})")
    raise QuadratureUnconverged(
        f"the tail integral from s = {s:.17g} still grows at s = {runs[-1][-1]:.17g}")


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
    return float(log_S_grid(mu, np.array([s]))[0])


def log_S_grid(mu: EigenvalueFunction, ss: np.ndarray, capped_tail: bool = False) -> np.ndarray:
    """log S over an ascending grid of s values; one batch of panels for the quadrature fallback.

    capped_tail stops the down branch's tail quadrature 4000 past ss[-1]:
    a tail still growing there raises QuadratureUnconverged.
    """
    ss = np.asarray(ss, dtype=float)
    if np.count_nonzero(ss[1:] < ss[:-1]):
        raise ValueError("log_S_grid needs an ascending grid of s values")
    up = branch_is_up(mu)
    closed = _closed_log_S(mu, ss, up)
    if closed is not None:
        return np.asarray(closed, dtype=float)
    panels = _log_s_panels(g_transform(mu), ss)
    if up:
        return np.logaddexp.accumulate(np.append(_log_integral(mu, -math.inf, ss[0]), panels))
    down = np.append(_quad_log_S_down(mu, float(ss[-1]), capped_tail), panels[::-1])
    return np.logaddexp.accumulate(down)[::-1]


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
        return piece_sum(mu.eval, [e * scale for e in edges], x1, x2)
    s1 = math.log(x1) if x1 > 0 else -math.inf
    return math.exp(_log_integral(mu, s1, math.log(x2)))
