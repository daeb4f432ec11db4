"""The three equivalent traceability tests and their aggregation.

A compact-type decay profile admits a singular trace that is finite and
nonzero exactly when its asymptotics sit at the critical rate.  Three
equivalent detectors:

* indices: the growth indices straddle 1, delta_lower <= 1 <= delta_upper;
* liminf: liminf of x mu(x) / S(x) equals 0;
* ratio: 1 is a limit point of S(lam x) / S(x) for some (any) lam > 1.

For a growth profile g = p t + q log t + c + o(1) both limits are exact
(Karamata's theorem; Bingham, Goldie and Teugels, Regular Variation,
1.6): x mu(x)/S(x) tends to |1 - p| and S(lam x)/S(x) to lam^(1 - p),
and an exponential (slope inf) sends them to inf and 0.  So both
criteria say traceable exactly when the slope is 1, with that limit as
evidence.  The indices read the same profile: there the three criteria
are one reading of one profile on the family's trace_basis, and their
agreement confirms nothing.

Without a profile (staircases, samples without a tail model, minima with
such a side) the limit statements are detected numerically on dyadic
tail windows of the logarithmic coordinate s = log x: window j covers
[T 2^(-j-1), T 2^(-j)].  Positive evidence is a last window minimum m0
below theta, minima that shrink by a factor 0.8 or more from window to
window, and a limit that extrapolates to near 0: with m(T) ~ L + c/T,
Richardson's L ~ 2 m0 - m1 must be at most m0 / 4.  A hit below theta
alone is not enough: the limit can be nonzero yet sit below theta.
Stable minima at least 3 theta away from the target refute; a window
whose values hold a NaN decides nothing; everything else is honestly
undecided.

Both limit statements read the same log S: x mu(x)/S(x) is
exp(s - g(s) - log S(s)) and S(lam x)/S(x) is exp(log S(s + log lam) -
log S(s)).  The windows are contiguous, so they are sampled as one
ascending grid ss: g(ss) from one g.eval call, log S(ss) from one
log_S_grid call, which computes the prefix or tail integral once, and
the index at which each window starts.  On each step of a piecewise
constant g, S is affine in x: x mu/S increases from each knot, and
S(lam x)/S(x) is monotone between knots and knots - log lam.  At the
latter mu(lam x) drops, so the ratio's slope falls (up branch, ratio >= 1)
or rises (down, ratio <= 1): no minimum of |ratio - 1| lies there.  Such
a g is sampled at its knots and the window ends only, any other on 800
points per window and at, 1e-9 past and 1 past each jump.  Both criteria
score that sample, taking the window minima with one np.minimum.reduceat
at those starts; the ratio adds log S at ss + log lam from one more call.
classify shares the sample between them only without a trusted horizon or
with one at least horizon_log + log lam; a shorter h takes one per criterion,
up to min(h, horizon_log) and h - log lam.  log_S_grid decides the branch, so a
profile whose trace class status is undecided fails its sample, as does a
quadrature that does not converge, such as a tail still growing where the
march ends; the failure is kept, and both criteria report it as undecided.

Verdicts are three-valued (True / False / None) because horizon limited
data cannot settle a liminf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotApplicable, QuadratureUnconverged, UndecidedBranch
from .functions import EigenvalueFunction, GFunction, g_inverse, g_transform, knot_grid
from .ideals import IdealDecision, in_kernel, in_principal_ideal
from .indices import EstimatorConfig, MatuszewskaReport, _regularity, is_regular, matuszewska
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


# ---------------------------------------------------------------------------
# dyadic window machinery


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


def _tail_sample(mu: EigenvalueFunction, g: GFunction, T: float):
    """The dyadic windows below T as one ascending grid ss, log S(ss), g(ss)
    and the index at which each window starts: the sample both tail criteria
    read, at the points the module docstring names."""
    ends = (T * 2.0 ** -np.arange(_N_WINDOWS, -1.0, -1.0)).tolist()  # window j: [T/2^(j+1), T/2^j]
    if g.family.piecewise_constant:
        grids = [np.array(sorted({lo, hi, *g.knots_in(lo, hi)}))
                 for lo, hi in zip(ends[:-1], ends[1:])]
    else:
        grids = [knot_grid(lo, hi, _WINDOW_POINTS, g.knots_in(lo, hi), (0.0, 1e-9, 1.0))
                 for lo, hi in zip(ends[:-1], ends[1:])]
    ss = np.concatenate(grids)
    with np.errstate(over="ignore", invalid="ignore"):
        return ss, log_S_grid(mu, ss), g.eval(ss), np.cumsum([0] + [len(w) for w in grids])[:-1]


def _window_minima(mu: EigenvalueFunction, sample, lam: float | None) -> list:
    """Per window, nearest the horizon first, the least x mu(x) / S(x) (lam
    None) or |S(lam x) / S(x) - 1|; NaN for a window whose values hold one."""
    ss, ls, gs, starts = sample
    with np.errstate(over="ignore", invalid="ignore"):
        if lam is None:
            # group the large terms first: g and log S cancel to O(s) for
            # rapidly decaying profiles and would swallow s otherwise
            values = np.exp(ss - (gs + ls))
        else:
            values = np.abs(np.exp(log_S_grid(mu, ss + math.log(lam)) - ls) - 1.0)
    return np.minimum.reduceat(values, starts)[::-1].tolist()


def _exact_limit(slope: float, lam: float | None) -> float:
    """Karamata's limit of x mu(x) / S(x) (lam None) or S(lam x) / S(x) for a
    growth profile of this slope."""
    if slope == math.inf:
        return math.inf if lam is None else 0.0
    return abs(1.0 - slope) if lam is None else lam ** (1.0 - slope)


def _tail_criterion(mu: EigenvalueFunction, lam: float | None,
                    samples: dict) -> TraceabilityVerdict:
    """The liminf criterion (lam None) or the ratio criterion at lam.

    A family with a growth profile is decided by the exact limit.  Without
    one, ratio windows end log lam below a trusted horizon, as S(lam x)
    must stay inside it.  samples maps a horizon T to its window sample, or
    to the UndecidedBranch or QuadratureUnconverged that sampling raised,
    so criteria on the same T share one.
    """
    crit = CRIT_LIMINF if lam is None else CRIT_RATIO
    g = g_transform(mu)
    if g.finite_rank:
        return TraceabilityVerdict(False, crit, note="finite rank: singular traces vanish")
    lam_ev = {} if lam is None else {"lambda": lam}
    if (profile := g.profile) is not None:
        slope = profile.slope
        return TraceabilityVerdict(
            slope == 1.0, crit, evidence={"limit": _exact_limit(slope, lam), **lam_ev},
            note=f"exact limit of the growth profile (basis: {mu.family.trace_basis}); all "
                 "three criteria read this one profile, so they do not check each other")
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
            except (UndecidedBranch, QuadratureUnconverged) as exc:
                samples[T] = exc  # the other criterion fails on it too
        if isinstance(samples[T], Exception):
            raise samples[T]
        minima = _window_minima(mu, samples[T], lam)
    except (UndecidedBranch, QuadratureUnconverged) as exc:
        # no branch or no trustworthy log S on the windows: say so instead of guessing
        return TraceabilityVerdict(None, crit, horizon_limited=True, note=str(exc))
    evidence = {"window_minima": tuple(minima), **lam_ev, "horizon_log": T, "theta": _THETA}
    if any(map(math.isnan, minima)):
        verdict, why = None, "a window holds a NaN, which is no evidence"
    else:
        verdict, why = _limit_point_verdict(minima, _THETA)
    return TraceabilityVerdict(verdict, crit, evidence=evidence,
                               horizon_limited=g.horizon_t is not None, note=why)


# ---------------------------------------------------------------------------
# criterion 1: indices straddle 1


def traceable_by_indices(fn, cfg: ClassifyConfig | None = None,
                         report: MatuszewskaReport | None = None) -> TraceabilityVerdict:
    cfg = cfg or ClassifyConfig()
    rep = report if report is not None else matuszewska(fn, cfg.index_config)
    if rep.finite_rank:
        return TraceabilityVerdict(False, CRIT_INDICES,
                                   note="finite rank: singular traces vanish")
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
    return _tail_criterion(g_inverse(fn), None, {})


def traceable_by_ratio(fn, lam: float = 2.0) -> TraceabilityVerdict:
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    return _tail_criterion(g_inverse(fn), lam, {})


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
    finite_rank: bool
    config: ClassifyConfig

    @property
    def verdicts(self):
        return (self.by_indices, self.by_liminf, self.by_ratio)

    @property
    def _decided(self):
        return {v.traceable for v in self.verdicts if v.traceable is not None}

    @property
    def agreement(self) -> bool:
        """No two decided criteria disagree."""
        return len(self._decided) <= 1

    @property
    def horizon_limited(self) -> bool:
        return any(v.horizon_limited for v in self.verdicts)

    @property
    def traceable(self) -> bool | None:
        """Consensus of the decided criteria; None when none decide or they disagree."""
        decided = self._decided
        return decided.pop() if len(decided) == 1 else None


def classify(fn, cfg: ClassifyConfig | None = None) -> ClassificationReport:
    """Run the trace class split, the index report and all three criteria."""
    cfg = cfg or ClassifyConfig()
    mu = g_inverse(fn)
    rep = matuszewska(fn, cfg.index_config)
    regular, delta = _regularity(rep, cfg.regular_tol)
    samples = {}  # one window sample per distinct horizon
    return ClassificationReport(
        trace_class=is_trace_class(mu),
        indices_report=rep,
        regular=regular,
        delta=delta,
        by_indices=traceable_by_indices(fn, cfg, report=rep),
        by_liminf=_tail_criterion(mu, None, samples),
        by_ratio=_tail_criterion(mu, cfg.ratio_lambda, samples),
        finite_rank=mu.finite_rank,
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
    module.  Only their verdicts are read: with exact profiles on both
    sides those follow from the profile order, and no witness grid is
    built.
    """
    cfg = cfg or ClassifyConfig()
    report_a = classify(A, cfg)
    if report_a.traceable is not False:
        raise NotApplicable("A must be decisively not singularly traceable")
    regular, delta = is_regular(B, tol=cfg.regular_tol)
    if not regular or delta is None or abs(delta - 1.0) > cfg.regular_tol:
        raise NotApplicable("B must be regular with index 1")
    if not report_a.trace_class.decided:
        raise NotApplicable("trace class status of A undecided")

    ideal_dec = in_principal_ideal(A, B)
    kernel_dec = in_kernel(A, B)
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
