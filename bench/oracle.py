"""Answers the benchmark checks against, computed apart from singtrace.

Families are described by plain tuples ("specs"), so the expected
verdicts follow from their parameters alone:

    ("power_log", scale, p, q)     mu = scale (x+e)^-p log(x+e)^-q
    ("exponential", alpha)
    ("pure_power", p, scale, cap)
    ("dilate", spec, lam) and ("shift", spec, a, b)
    ("finite_rank",)               step profiles and rearranged spectra
    ("staircase", variant)         vanisher or dominator
    ("min", spec, spec)            pointwise minimum in the g coordinate

Nothing here imports singtrace.  mpmath is imported on first use, after
the benchmark's set-up has been timed.
"""

from __future__ import annotations

import math

INF = math.inf


def growth_key(spec):
    """Lexicographic growth of g: exponentials outgrow every power-log."""
    kind = spec[0]
    if kind == "power_log":
        return (spec[2], spec[3])
    if kind == "exponential":
        return (INF, 0.0)
    if kind == "pure_power":
        return (spec[1], 0.0)
    if kind in ("dilate", "shift"):
        return growth_key(spec[1])
    raise ValueError(f"no growth key for {kind}")


def trace_class(spec) -> bool:
    kind = spec[0]
    if kind == "power_log":
        p, q = spec[2], spec[3]
        return p > 1 or (p == 1 and q > 1)
    if kind in ("exponential", "finite_rank"):
        return True
    if kind == "pure_power":
        return spec[1] > 1
    if kind in ("dilate", "shift"):
        return trace_class(spec[1])
    if kind == "staircase":
        # vanisher steps sqrt(g) lag the breakpoints; dominator steps g^2 outrun them
        return spec[1] == "dominator"
    if kind == "min":
        # a minimum in g is a maximum in mu: integrable iff both sides are
        return trace_class(spec[1]) and trace_class(spec[2])
    raise ValueError(kind)


def traceable(spec) -> bool:
    """Singular traceability: index exactly 1, or a staircase."""
    kind = spec[0]
    if kind == "power_log":
        return spec[2] == 1
    if kind in ("exponential", "finite_rank"):
        return False
    if kind == "pure_power":
        return spec[1] == 1
    if kind in ("dilate", "shift"):
        return traceable(spec[1])
    if kind == "staircase":
        return True
    if kind == "min":
        # the slower growing side sets the asymptotics
        slow = min(spec[1], spec[2], key=growth_key)
        return traceable(slow)
    raise ValueError(kind)


def index(spec) -> float:
    """Common growth index 1/p of a regular power family."""
    kind = spec[0]
    if kind == "power_log":
        return 1.0 / spec[2]
    if kind == "pure_power":
        return 1.0 / spec[1]
    if kind in ("dilate", "shift"):
        return index(spec[1])
    raise ValueError(kind)


def ideal_member(a, b) -> bool:
    return growth_key(a) >= growth_key(b)


def kernel_member(a, b) -> bool:
    return growth_key(a) > growth_key(b)


# ---------------------------------------------------------------------------
# the logarithmic coordinate of the staircase sources


def g_value(spec, t: float) -> float:
    """g(t) = -log mu(e^t) from the family's formula."""
    kind = spec[0]
    if kind == "power_log":
        _, scale, p, q = spec
        u = t + math.log1p(math.exp(1.0 - t)) if t > 1.0 else math.log(math.exp(t) + math.e)
        return -math.log(scale) + p * u + q * math.log(u)
    if kind == "pure_power":
        _, p, scale, cap = spec
        return max(-math.log(cap), p * t - math.log(scale))
    raise ValueError(kind)


def staircase_gap_faults(variant, source, offset, breakpoints):
    """Faults of the two gap conditions, recomputed from the breakpoints.

    t_{n+1} - t_n > n, and phi(g_A(t_{n+1})) - phi(g_A(t_n)) > n with
    g_A the source raised by the normalisation offset and phi the square
    root (vanisher) or the square (dominator).
    """
    faults = []
    phi = math.sqrt if variant == "vanisher" else (lambda y: y * y)
    vals = [phi(g_value(source, t) + offset) for t in breakpoints]
    for n in range(1, len(breakpoints)):
        if not breakpoints[n] - breakpoints[n - 1] > n:
            faults.append(f"breakpoint gap {n} is {breakpoints[n] - breakpoints[n - 1]:.6g}")
        if not vals[n] - vals[n - 1] > n:
            faults.append(f"phi gap {n} is {vals[n] - vals[n - 1]:.6g}")
    return faults


# ---------------------------------------------------------------------------
# log S by mpmath quadrature
#
# With u = log(x + e) a power-log piece integrates as
#     integral e^(a u) u^(-q) du,  a = 1 - p,
# and y = e^(a (u - u0)), anchored at the end where the integrand peaks,
# maps it to a bounded integrand on a subinterval of (0, 1].


def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def _piece(mp, scale, p, q, lo, hi):
    """integral_lo^hi scale e^((1-p) u) u^(-q) du for 1 <= lo < hi <= inf."""
    a = 1 - mp.mpf(p)
    q = mp.mpf(q)
    if a > 0:
        val = mp.quad(lambda y: (hi + mp.log(y) / a) ** (-q), [mp.exp(a * (lo - hi)), 1])
        return scale * mp.exp(a * hi) / a * val
    if a < 0:
        y_end = 0 if hi == mp.inf else mp.exp(a * (hi - lo))
        val = mp.quad(lambda y: (lo + mp.log(y) / a) ** (-q), [y_end, 1])
        return scale * mp.exp(a * lo) / (-a) * val
    return scale * mp.quad(lambda u: u ** (-q), [lo, hi])


def _power_log_parts(spec):
    if spec[0] == "power_log":
        return [spec[1:]]
    if spec[0] == "min":
        return _power_log_parts(spec[1]) + _power_log_parts(spec[2])
    raise ValueError(f"no mpmath oracle for {spec[0]}")


def _crossings(mp, parts, lo, hi):
    """u in (lo, hi) where the largest power-log piece changes."""
    if len(parts) == 1:
        return []
    (s1, p1, q1), (s2, p2, q2) = parts
    f = lambda u: (mp.log(s1) - p1 * u - q1 * mp.log(u)) - (mp.log(s2) - p2 * u - q2 * mp.log(u))
    # f is concave or convex on u >= 1, so it has at most two roots; its
    # derivative vanishes at most once, which splits the range into
    # monotone parts
    pts = [mp.mpf(lo)]
    if q1 != q2 and p1 != p2:
        u_turn = (q2 - q1) / (p1 - p2)
        if lo < u_turn < hi:
            pts.append(mp.mpf(u_turn))
    top = hi if hi != mp.inf else max(mp.mpf(lo) * 2, pts[-1] * 2) + 1e4
    pts.append(mp.mpf(top))
    roots = []
    for a, b in zip(pts, pts[1:]):
        if f(a) * f(b) < 0:
            roots.append(mp.findroot(f, (a, b), solver="illinois"))
    return roots


def log_S(spec, s: float, up: bool) -> float:
    """log S(e^s): the integral of mu on [0, e^s] (up) or [e^s, inf) (down)."""
    mp = _mp()
    parts = _power_log_parts(spec)
    u_s = mp.log(mp.exp(s) + mp.e)
    lo, hi = (mp.mpf(1), u_s) if up else (u_s, mp.inf)
    cuts = [lo] + [r for r in _crossings(mp, parts, lo, hi) if lo < r < hi] + [hi]
    total = mp.mpf(0)
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2 if b != mp.inf else a + 1
        best = max(parts, key=lambda pt: mp.log(pt[0]) - pt[1] * mid - pt[2] * mp.log(mid))
        total += _piece(mp, *best, a, b)
    return float(mp.log(total))
