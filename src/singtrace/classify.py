"""The three equivalent traceability tests and their aggregation.

A compact-type decay profile admits a singular trace that is finite and
nonzero exactly when its asymptotics sit at the critical rate.  Three
equivalent detectors:

* indices: the growth indices straddle 1, delta_lower <= 1 <= delta_upper;
* liminf: liminf of x mu(x) / S(x) equals 0;
* ratio: 1 is a limit point of S(lam x) / S(x) for some (any) lam > 1.

The limit statements are detected numerically on dyadic tail windows of
the logarithmic coordinate s = log x: window j covers
[T 2^(-j-1), T 2^(-j)].  Positive evidence is a last window minimum m0
below theta, minima that shrink by a factor 0.8 or more from window to
window, and a limit that extrapolates to near 0: with m(T) ~ L + c/T,
Richardson's L ~ 2 m0 - m1 must be at most m0 / 4.  A hit below theta
alone is not enough: by Karamata's theorem x mu(x)/S(x) tends to
|1 - p| for a power-log, a nonzero limit that sits below theta when p
is near 1.  Stable minima at least 3 theta away from the target refute;
everything else is honestly undecided.

Both limit statements read the same log S: x mu(x)/S(x) is
exp(s - g(s) - log S(s)) and S(lam x)/S(x) is exp(log S(s + log lam) -
log S(s)).  So each window is sampled once (the grid ss, g(ss) and
log S(ss)) and both criteria score that sample; the ratio adds log S at
ss + log lam.  The windows are contiguous, so log S on all of them comes
from one ascending log_S_grid call over their joined grids, and the
prefix or tail integral is computed once: one call per criterion.
classify shares the sample between them whenever their horizons agree,
which they do unless a trusted horizon ends within log lam of
horizon_log.  A sample whose quadrature does not converge, such as a
tail still growing where the march ends, is kept as that failure, and
both criteria report it as undecided.

Verdicts are three-valued (True / False / None) because horizon limited
data cannot settle a liminf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotApplicable, QuadratureUnconverged, UndecidedBranch
from .functions import EigenvalueFunction, GFunction, g_transform, knot_grid
from .ideals import IdealDecision, in_kernel, in_principal_ideal
from .indices import EstimatorConfig, MatuszewskaReport, _regularity, as_g, is_regular, matuszewska
from .integral import TraceClassVerdict, is_trace_class, log_S_grid

CRIT_INDICES = "indices"
CRIT_LIMINF = "liminf"
CRIT_RATIO = "ratio_limit_point"


_THETA = 0.01  # near-target threshold for a window hit
_HORIZON_LOG = 4000.0  # tail horizon in s = log x
_N_WINDOWS = 4
_WINDOW_POINTS = 800
_INDEX_BAND = 0.02  # estimated-mode indecision band around 1


@dataclass(frozen=True)
class ClassifyConfig:
    ratio_lambda: float = 2.0
    regular_tol: float = 0.05
    index_config: EstimatorConfig | None = None

    def __post_init__(self):
        if self.ratio_lambda <= 1:
            raise ValueError("ratio_lambda must exceed 1")


@dataclass
class TraceabilityVerdict:
    traceable: bool | None
    criterion: str
    evidence: dict = field(default_factory=dict)
    horizon_limited: bool = False
    note: str = ""


def _as_mu(fn) -> EigenvalueFunction:
    if isinstance(fn, EigenvalueFunction):
        return fn
    if isinstance(fn, GFunction):
        return fn.mu_view()
    raise TypeError(f"expected a profile or its g view, got {type(fn)!r}")


# ---------------------------------------------------------------------------
# dyadic window machinery


def _windows(T: float):
    """[(lo, hi)] nearest the horizon first: [T/2, T], [T/4, T/2], ..."""
    return [(T * 2.0 ** (-(j + 1)), T * 2.0 ** (-j)) for j in range(_N_WINDOWS)]


def _limit_point_verdict(minima, theta):
    """Shared decision rule on dyadic-window minima (nearest horizon first).

    A minimum m(T) ~ L + c/T extrapolates (Richardson, windows halving in
    T) to L ~ 2 m0 - m1, which must be at most a quarter of m0.
    """
    m = np.asarray(minima, dtype=float)
    decaying = bool(np.all(m[:-1] <= 0.8 * m[1:] + 1e-300)) and 2.0 * m[0] - m[1] <= 0.25 * m[0]
    if m[0] < theta and decaying:
        return True, "window minima decay geometrically to a hit"
    stable = m[0] >= 0.5 * float(np.max(m))
    if float(np.min(m)) >= 3.0 * theta and stable:
        return False, "bounded away from the target with stable minima"
    return None, "window minima neither recur nor separate cleanly"


def _log_S_windows(mu: EigenvalueFunction, grids):
    """log S on each window grid (nearest the horizon first) from one
    ascending log_S_grid call: the windows are contiguous, so no prefix
    or tail integral is computed twice."""
    ascending = grids[::-1]
    values = log_S_grid(mu, np.concatenate(ascending))
    return np.split(values, np.cumsum([len(ss) for ss in ascending[:-1]]))[::-1]


def _tail_sample(mu: EigenvalueFunction, g: GFunction, T: float):
    """Per dyadic window below T, nearest the horizon first: the grid ss,
    g(ss) and log S(ss), which both tail criteria read.  The near-target
    dips of a step profile start right at its jumps."""
    grids = [knot_grid(lo, hi, _WINDOW_POINTS, g.knots_in(lo, hi), (0.0, 1e-9, 1.0))
             for lo, hi in _windows(T)]
    with np.errstate(over="ignore", invalid="ignore"):
        return [(ss, g.eval(ss), ls) for ss, ls in zip(grids, _log_S_windows(mu, grids))]


def _window_min(values) -> float:
    """The least value in a window, a NaN counting as inf.

    A NaN should leave the verdict undecided instead; that change would
    flip verdicts of exponential families and is listed in ROADMAP.md.
    """
    return float(np.min(np.where(np.isnan(values), np.inf, values)))


def _liminf_minima(sample):
    """Window minima of x mu(x) / S(x)."""
    with np.errstate(over="ignore", invalid="ignore"):
        # group the large terms first: g and log S cancel to O(s) for
        # rapidly decaying profiles and would swallow s otherwise
        return [_window_min(np.exp(ss - (gs + ls))) for ss, gs, ls in sample]


def _ratio_minima(mu: EigenvalueFunction, sample, lam: float):
    """Window minima of |S(lam x) / S(x) - 1|."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = _log_S_windows(mu, [ss + math.log(lam) for ss, _, _ in sample])
        return [_window_min(np.abs(np.exp(lsl - ls) - 1.0))
                for lsl, (_, _, ls) in zip(shifted, sample)]


def _tail_criterion(mu: EigenvalueFunction, tc: TraceClassVerdict, lam: float | None,
                    samples: dict) -> TraceabilityVerdict:
    """The liminf criterion (lam None) or the ratio criterion at lam.

    Ratio windows end log lam below a trusted horizon, as S(lam x) must
    stay inside it.  samples maps a horizon T to its window sample, so
    criteria on the same T share one.
    """
    crit = CRIT_LIMINF if lam is None else CRIT_RATIO
    g = g_transform(mu)
    if g.finite_rank:
        return TraceabilityVerdict(False, crit, note="finite rank: singular traces vanish")
    try:
        tc.is_trace_class
    except UndecidedBranch as exc:
        return TraceabilityVerdict(None, crit, horizon_limited=True, note=str(exc))
    T = _HORIZON_LOG
    if g.horizon_t is not None:
        T = min(T, g.horizon_t - (0.0 if lam is None else math.log(lam)))
    if T < 4.0:
        return TraceabilityVerdict(None, crit, horizon_limited=True,
                                   note="horizon too short for dyadic windows")
    try:
        if T not in samples:
            try:
                samples[T] = _tail_sample(mu, g, T)
            except QuadratureUnconverged as exc:
                samples[T] = exc  # the other criterion fails on it too
        if isinstance(samples[T], QuadratureUnconverged):
            raise samples[T]
        if lam is None:
            minima = _liminf_minima(samples[T])
            evidence = {"window_minima": tuple(minima), "horizon_log": T, "theta": _THETA}
        else:
            minima = _ratio_minima(mu, samples[T], lam)
            evidence = {"window_minima": tuple(minima), "lambda": lam,
                        "horizon_log": T, "theta": _THETA}
    except QuadratureUnconverged as exc:
        # no trustworthy log S on the windows: say so instead of guessing
        return TraceabilityVerdict(None, crit, horizon_limited=True, note=str(exc))
    verdict, why = _limit_point_verdict(minima, _THETA)
    return TraceabilityVerdict(verdict, crit, evidence=evidence,
                               horizon_limited=g.horizon_t is not None, note=why)


# ---------------------------------------------------------------------------
# criterion 1: indices straddle 1


def traceable_by_indices(fn, cfg: ClassifyConfig | None = None,
                         report: MatuszewskaReport | None = None) -> TraceabilityVerdict:
    cfg = cfg or ClassifyConfig()
    g = as_g(fn)
    if g.finite_rank:
        return TraceabilityVerdict(False, CRIT_INDICES,
                                   note="finite rank: singular traces vanish")
    rep = report if report is not None else matuszewska(fn, cfg.index_config)
    dl, du = rep.delta_lower, rep.delta_upper
    ev = {"delta_lower": dl, "delta_upper": du, "mode": rep.mode}
    if rep.mode == "exact":
        return TraceabilityVerdict(dl <= 1.0 <= du, CRIT_INDICES, evidence=ev)
    band = _INDEX_BAND
    if dl <= 1.0 - band and du >= 1.0 + band:
        verdict = True
    elif dl >= 1.0 + band or du <= 1.0 - band:
        verdict = False
    else:
        verdict = None
    return TraceabilityVerdict(verdict, CRIT_INDICES, evidence=ev,
                               horizon_limited=rep.horizon_limited)


# ---------------------------------------------------------------------------
# criteria 2 and 3: liminf of x mu(x) / S(x), and 1 as a limit point of S(lam x)/S(x)


def traceable_by_liminf(fn) -> TraceabilityVerdict:
    mu = _as_mu(fn)
    return _tail_criterion(mu, is_trace_class(mu), None, {})


def traceable_by_ratio(fn, lam: float = 2.0) -> TraceabilityVerdict:
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    mu = _as_mu(fn)
    return _tail_criterion(mu, is_trace_class(mu), lam, {})


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class ClassificationReport:
    trace_class: TraceClassVerdict
    indices_report: MatuszewskaReport
    regular: bool | None
    delta: float | None
    by_indices: TraceabilityVerdict
    by_liminf: TraceabilityVerdict
    by_ratio: TraceabilityVerdict
    agreement: bool
    finite_rank: bool
    horizon_limited: bool
    config: ClassifyConfig

    @property
    def verdicts(self):
        return (self.by_indices, self.by_liminf, self.by_ratio)

    @property
    def traceable(self) -> bool | None:
        """Consensus of the decided criteria; None when nothing decided."""
        decided = {v.traceable for v in self.verdicts if v.traceable is not None}
        if not decided:
            return None
        if len(decided) > 1:
            return None
        return decided.pop()


def classify(fn, cfg: ClassifyConfig | None = None) -> ClassificationReport:
    """Run the trace class split, the index report and all three criteria."""
    cfg = cfg or ClassifyConfig()
    mu = _as_mu(fn)
    g = g_transform(mu)
    tc = is_trace_class(mu)
    rep = matuszewska(fn, cfg.index_config)
    regular, delta = _regularity(rep, cfg.regular_tol)
    v_idx = traceable_by_indices(fn, cfg, report=rep)
    samples = {}  # one window sample per distinct horizon
    v_lim = _tail_criterion(mu, tc, None, samples)
    v_rat = _tail_criterion(mu, tc, cfg.ratio_lambda, samples)
    decided = {v.traceable for v in (v_idx, v_lim, v_rat) if v.traceable is not None}
    return ClassificationReport(
        trace_class=tc,
        indices_report=rep,
        regular=regular,
        delta=delta,
        by_indices=v_idx,
        by_liminf=v_lim,
        by_ratio=v_rat,
        agreement=len(decided) <= 1,
        finite_rank=g.finite_rank,
        horizon_limited=any(v.horizon_limited for v in (v_idx, v_lim, v_rat)),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# the zero/infinite dichotomy


OUTCOME_INFINITE = "infinite"
OUTCOME_ZERO = "zero"


@dataclass
class DichotomyResult:
    outcome: str  # infinite | zero
    a_trace_class: bool
    ideal_decision: IdealDecision
    kernel_decision: IdealDecision
    note: str = ""


def dichotomy(A, B, cfg: ClassifyConfig | None = None) -> DichotomyResult:
    """Every singular trace on the ideal of B is infinite or zero on A.

    Preconditions: A is not singularly traceable and B is regular with
    index 1.  Then a non trace class A falls outside the ideal of B
    (infinite), while a trace class A falls into its kernel (zero); the
    membership decisions are cross checked against the order-theoretic
    module.
    """
    cfg = cfg or ClassifyConfig()
    mu_a = _as_mu(A)
    report_a = classify(mu_a, cfg)
    if report_a.traceable is not False:
        raise NotApplicable("A must be decisively not singularly traceable")
    regular, delta = is_regular(B, tol=cfg.regular_tol)
    if not regular or delta is None or abs(delta - 1.0) > cfg.regular_tol:
        raise NotApplicable("B must be regular with index 1")
    if not report_a.trace_class.decided:
        raise NotApplicable("trace class status of A undecided")

    ga, gb = as_g(A), as_g(B)
    ideal_dec = in_principal_ideal(ga, gb)
    kernel_dec = in_kernel(ga, gb)
    if report_a.trace_class.is_trace_class:
        outcome, want = OUTCOME_ZERO, kernel_dec.verdict == "member"
        note = "A is trace class, so A lies in the kernel of the ideal of B"
    else:
        outcome, want = OUTCOME_INFINITE, ideal_dec.verdict == "non_member"
        note = "A is not trace class, so A falls outside the ideal of B"
    if not want:
        raise NotApplicable(
            f"membership cross-check disagrees with the {outcome} verdict"
        )
    return DichotomyResult(outcome, report_a.trace_class.is_trace_class,
                           ideal_dec, kernel_dec, note)
