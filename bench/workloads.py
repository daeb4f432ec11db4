"""The two in-process workloads: jobs, their inputs and their checks.

A job is one call sequence a library user would make.  run() builds the
family objects and calls singtrace; it is what the benchmark times.
check() looks at the outputs and returns a list of faults, found against
oracle.py, never against a stored copy of earlier output.  Every round
of a run repeats the same jobs with fresh family objects, so a run's
share of failed jobs does not depend on its length.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import singtrace as st
from singtrace.functions import PowerLog
from singtrace.integral import log_S_grid

import oracle

N_STEPS = 40


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    # set for an operation that a known fault in the program makes fail
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# families from specs


def build(spec):
    """singtrace object for a spec (see oracle.py for the spec forms)."""
    kind = spec[0]
    if kind == "power_log":
        return st.power_log(scale=spec[1], p=spec[2], q=spec[3])
    if kind == "exponential":
        return st.exponential(spec[1])
    if kind == "pure_power":
        return st.pure_power(p=spec[1], scale=spec[2], cap=spec[3])
    if kind == "dilate":
        return st.dilate(build(spec[1]), spec[2])
    if kind == "shift":
        return st.shift(st.g_transform(build(spec[1])), spec[2], spec[3])
    if kind == "min":
        return st.pointwise_min(st.g_transform(build(spec[1])), st.g_transform(build(spec[2])))
    raise ValueError(kind)


def _verdict_faults(rep, spec):
    """Every decided criterion must give the verdict the parameters imply."""
    want = oracle.traceable(spec)
    faults = []
    for v in rep.verdicts:
        if v.traceable is not None and v.traceable != want:
            faults.append(f"{v.criterion} says {v.traceable}, expected {want}")
    if rep.traceable != want:
        faults.append(f"consensus {rep.traceable}, expected {want}")
    if not rep.agreement:
        faults.append("criteria disagree")
    want_tc = oracle.trace_class(spec)
    if rep.trace_class.decided and rep.trace_class.is_trace_class != want_tc:
        faults.append(f"trace class {rep.trace_class.verdict}, expected {want_tc}")
    return faults


def classify_job(kind, spec, make=None, known_fault=None):
    make = make or (lambda: build(spec))
    return Job(kind, lambda: st.classify(make()),
               lambda rep: _verdict_faults(rep, spec), known_fault)


# ---------------------------------------------------------------------------
# closed_form


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _staircase_job(variant, label, source, known_fault=None):
    def run():
        g_src = st.g_transform(build(source))
        s = (st.construct_vanisher if variant == "vanisher" else st.construct_dominator)(
            g_src, N_STEPS)
        ver = st.verify_construction(s)
        stair = s.g()
        # the vanisher swallows its source into its kernel; the dominator
        # keeps its source out of its ideal
        dec = (st.in_kernel(g_src, stair) if variant == "vanisher"
               else st.in_principal_ideal(g_src, stair))
        return s, ver, dec

    def check(out):
        s, ver, dec = out
        faults = oracle.staircase_gap_faults(variant, source, s.normalization_offset,
                                             list(s.breakpoints))
        if s.n_steps != N_STEPS:
            faults.append(f"{s.n_steps} steps, asked for {N_STEPS}")
        if not (ver.gap_margins[0] > 0 and ver.gap_margins[1] > 0):
            faults.append(f"verification margins {ver.gap_margins}")
        want = "member" if variant == "vanisher" else "non_member"
        if dec.verdict != want:
            faults.append(f"source membership {dec.verdict}, expected {want}")
        return faults

    return Job(f"{variant}:{label}", run, check, known_fault)


def _staircase_data(variant, line):
    s = (st.construct_vanisher if variant == "vanisher" else st.construct_dominator)(
        st.g_transform(build(line)), N_STEPS)
    fam = s.g().family
    return fam.breakpoints, fam.values, fam.horizon, fam.integrable


def _ideal_job(kind, a, b, make_a=None, mode="exact"):
    make_a = make_a or (lambda: build(a))

    def run():
        fa, fb = make_a(), build(b)
        return st.in_principal_ideal(fa, fb), st.in_kernel(fa, fb)

    def check(out):
        ideal, kernel = out
        faults = []
        for label, dec, want in (("ideal", ideal, oracle.ideal_member(a, b)),
                                 ("kernel", kernel, oracle.kernel_member(a, b))):
            verdict = "member" if want else "non_member"
            if dec.verdict != verdict:
                faults.append(f"{label} {dec.verdict}, expected {verdict}")
            if dec.mode != mode:
                faults.append(f"{label} decided in mode {dec.mode}, expected {mode}")
        return faults

    return Job(f"ideal_{mode}:{kind}", run, check)


def _sampled_power(p, scale, n=200, t_max=40.0):
    """Samples of scale (x+e)^-p on a log-spaced x grid, without a tail."""
    grid = tuple(math.exp(t_max * i / (n - 1)) for i in range(n))
    values = tuple(scale * (x + math.e) ** (-p) for x in grid)
    return grid, values


def _indices_job(spec):
    def run():
        return st.matuszewska(build(spec), mode="estimated")

    def check(rep):
        want = oracle.index(spec)
        faults = []
        if rep.mode != "estimated":
            faults.append(f"mode {rep.mode}")
        for name, got in (("delta_lower", rep.delta_lower), ("delta_upper", rep.delta_upper)):
            if not abs(got - want) <= 0.02:
                faults.append(f"{name} {got:.6g}, expected {want:.6g} within 0.02")
        return faults

    return Job(f"indices:{spec[0]}", run, check)


# a sampled profile whose tail has a closed form: SampledMu.g computes
# -log(mu(exp(t))), and exp overflows past t ~ 709, so g = inf there
FAULT_SAMPLED_TAIL = "sampled tail overflow: SampledMu.g is inf past t ~ 709"
FAULT_GRID = (0.0, 1.0, 2.0, 3.0)
FAULT_VALUES = (1.0, 0.5, 0.3, 0.2)


# verify_construction checks the dominator envelope g >= g_A^2 with an
# absolute slack of 1e-12, below one ulp of the squared values (~1e6); on
# about one source in 750 a condition grid point meets a breakpoint where
# the two sides round apart and the construction fails its own check.  The
# dominator sources are therefore fixed, with one failing source kept.
DOMINATOR_SOURCES = (("line", ("pure_power", 1.0, 1.0, 1.0)),
                     ("power_log_q0", ("power_log", 1.0, 1.2, 0.0)),
                     ("bisection", ("power_log", 1.0, 1.0, 1.0)))
DOMINATOR_FAULT_SOURCE = ("power_log", 1.8974, 1.2434, 0.0)
FAULT_DOMINATOR_ENVELOPE = "dominator fails its own envelope check by one ulp"


def closed_form(seed: int) -> list:
    """One round: classify, estimated indices, ideals and staircases, all closed form."""
    rng = random.Random(seed)
    u = lambda lo, hi: _u(rng, lo, hi)  # noqa: E731
    jobs = []

    # classify: power-logs with p = 1 (closed forms for q < 1, q = 1, q > 1)
    for q in (u(-0.8, 0.9), 1.0, u(1.2, 3.0)):
        jobs.append(classify_job("classify:power_log_p1", ("power_log", u(0.5, 2.0), 1.0, q)))
    # power-logs with q = 0 on both branches
    for p in (u(0.3, 0.9), u(1.2, 3.0)):
        jobs.append(classify_job("classify:power_log_q0", ("power_log", u(0.5, 2.0), p, 0.0)))
    jobs.append(classify_job("classify:exponential", ("exponential", u(0.5, 2.0))))
    jobs.append(classify_job("classify:pure_power", ("pure_power", 1.0, u(0.5, 2.0), u(0.5, 2.0))))
    jobs.append(classify_job("classify:pure_power", ("pure_power", u(1.3, 2.5), u(0.5, 2.0),
                                                     u(0.5, 2.0))))
    jobs.append(classify_job("classify:dilate", ("dilate", ("power_log", 1.0, 1.0, u(-0.5, 0.5)),
                                                 u(0.5, 4.0))))
    jobs.append(classify_job("classify:dilate", ("dilate", ("power_log", 1.0, u(1.2, 2.0), 0.0),
                                                 u(0.5, 4.0))))
    jobs.append(classify_job("classify:shift", ("shift", ("power_log", 1.0, 1.0, u(1.5, 2.5)),
                                                u(-2.0, 2.0), u(-1.0, 1.0))))
    jobs.append(classify_job("classify:shift", ("shift", ("exponential", u(0.5, 2.0)),
                                                u(-2.0, 2.0), u(-1.0, 1.0))))

    # finite rank: a step profile and a rearranged spectrum
    n = rng.randint(3, 6)
    bps = [0.0]
    for _ in range(n):
        bps.append(round(bps[-1] + rng.uniform(0.5, 2.0), 4))
    vals = sorted((u(0.1, 5.0) for _ in range(n)), reverse=True)
    jobs.append(classify_job("classify:step", ("finite_rank",),
                             make=lambda: st.step_mu(bps, vals)))
    pairs = tuple((u(0.0, 5.0), u(0.2, 3.0)) for _ in range(rng.randint(4, 8)))
    jobs.append(classify_job("classify:rearranged", ("finite_rank",),
                             make=lambda: st.rearrange(st.SpectralData(pairs))))

    # both staircases of a line, built once as inputs
    line = ("pure_power", 1.0, u(0.5, 2.0), 1.0)
    for variant in ("vanisher", "dominator"):
        bps_s, vals_s, horizon, integrable = _staircase_data(variant, line)
        jobs.append(classify_job(
            f"classify:{variant}_staircase", ("staircase", variant),
            make=lambda b=bps_s, v=vals_s, h=horizon, i=integrable:
                st.g_inverse(st.g_step(b, v, horizon=h, integrable=i))))

    # sampled profiles with a power-log tail: known to fail, inputs fixed
    for p in (2.0, 0.5):
        jobs.append(classify_job(
            "classify:sampled_tail", ("power_log", 1.0, p, 0.0),
            make=lambda p=p: st.sampled(FAULT_GRID, FAULT_VALUES, tail=PowerLog(p=p)),
            known_fault=FAULT_SAMPLED_TAIL))

    # estimated indices
    jobs.append(_indices_job(("power_log", u(0.5, 2.0), u(0.5, 3.0), 0.0)))
    jobs.append(_indices_job(("pure_power", u(0.5, 3.0), u(0.5, 2.0), u(0.5, 2.0))))
    jobs.append(_indices_job(("dilate", ("power_log", 1.0, u(0.5, 3.0), 0.0), u(0.5, 4.0))))

    # exact-profile ideal and kernel decisions
    p_lo, p_hi = u(0.5, 1.3), u(1.5, 2.5)
    q1, q2 = u(-0.4, 0.4), u(0.8, 2.0)
    jobs.append(_ideal_job("gt_p", ("power_log", u(0.5, 2.0), p_hi, q1),
                           ("power_log", u(0.5, 2.0), p_lo, q2)))
    jobs.append(_ideal_job("lt_p", ("power_log", u(0.5, 2.0), p_lo, q2),
                           ("power_log", u(0.5, 2.0), p_hi, q1)))
    jobs.append(_ideal_job("gt_q", ("power_log", u(0.5, 2.0), p_hi, q2),
                           ("power_log", u(0.5, 2.0), p_hi, q1)))
    jobs.append(_ideal_job("eq", ("power_log", u(0.5, 2.0), p_lo, q1),
                           ("power_log", u(0.5, 2.0), p_lo, q1)))
    jobs.append(_ideal_job("exp", ("exponential", u(0.5, 2.0)),
                           ("power_log", u(0.5, 2.0), p_hi, q2)))
    # horizon-only decisions: a sampled profile has no growth profile
    for label, pa, pb in (("above", u(1.5, 2.0), u(0.5, 1.0)),
                          ("below", u(0.5, 1.0), u(1.5, 2.0))):
        grid, values = _sampled_power(pa, u(0.5, 2.0))
        jobs.append(_ideal_job(label, ("power_log", 1.0, pa, 0.0),
                               ("power_log", u(0.5, 2.0), pb, 0.0),
                               make_a=lambda g=grid, v=values: st.sampled(g, v),
                               mode="horizon"))

    # staircases: analytic inverse (line, power-log q = 0) and bisection (p = 1, q != 0)
    sources = (("line", ("pure_power", 1.0, u(0.5, 2.0), 1.0)),
               ("power_log_q0", ("power_log", u(0.5, 2.0), u(0.8, 1.5), 0.0)),
               ("bisection", ("power_log", u(0.5, 2.0), 1.0, u(0.8, 1.2))))
    for label, source in sources:
        jobs.append(_staircase_job("vanisher", label, source))
    for label, source in DOMINATOR_SOURCES:
        jobs.append(_staircase_job("dominator", label, source))
    jobs.append(_staircase_job("dominator", "envelope_fault", DOMINATOR_FAULT_SOURCE,
                               known_fault=FAULT_DOMINATOR_ENVELOPE))

    rng.shuffle(jobs)  # interleave kinds so host drift hits them alike
    return jobs


def closed_form_warmup(jobs):
    for job in jobs:
        # a raising job is counted when it is timed, not here
        with contextlib.suppress(Exception):
            job.run()


# ---------------------------------------------------------------------------
# quadrature


def _log_S_faults(spec, s0, make):
    """log S at three points against an mpmath integral, within 1e-8 relative."""
    up = not oracle.trace_class(spec)
    ss = np.array([s0, s0 + 0.5, s0 + 1.0])
    got = log_S_grid(make(), ss)
    faults = []
    for s, val in zip(ss, got):
        ref = oracle.log_S(spec, float(s), up)
        if not abs(val - ref) <= 1e-8:
            faults.append(f"log S({s:.4g}) = {val!r}, mpmath gives {ref!r}")
    return faults


def _quad_classify_job(kind, spec, s0, known_fault=None):
    make = lambda: st.g_inverse(build(spec)) if spec[0] == "min" else build(spec)  # noqa: E731

    def check(rep):
        return _verdict_faults(rep, spec) + _log_S_faults(spec, s0, make)

    return Job(kind, lambda: st.classify(make()), check, known_fault)


def _dichotomy_job(a, s0):
    b = ("power_log", 1.0, 1.0, 0.0)

    def run():
        return st.dichotomy(build(a), build(b))

    def check(res):
        tc = oracle.trace_class(a)
        want = "zero" if tc else "infinite"
        faults = []
        if res.outcome != want:
            faults.append(f"outcome {res.outcome}, expected {want}")
        if res.a_trace_class != tc:
            faults.append(f"a_trace_class {res.a_trace_class}, expected {tc}")
        for label, dec, member in (("ideal", res.ideal_decision, oracle.ideal_member(a, b)),
                                   ("kernel", res.kernel_decision, oracle.kernel_member(a, b))):
            verdict = "member" if member else "non_member"
            if dec.verdict != verdict:
                faults.append(f"{label} {dec.verdict}, expected {verdict}")
        return faults + _log_S_faults(a, s0, lambda: build(a))

    return Job("dichotomy", run, check)


# near-critical power-logs (index 1/p = 1.02) are not traceable, yet their
# ratio and liminf quantities dip transiently towards the target: the first
# family must come out undecided on those criteria, never "true".  The second
# comes out "true" on the ratio criterion, all four window minima below theta.
NEAR_CRITICAL = ("power_log", 5.947, 0.9794, 3.543)
NEAR_CRITICAL_RATIO = ("power_log", 5.6913, 0.9839, 3.4463)
FAULT_NEAR_CRITICAL_RATIO = "ratio criterion says true for a near-critical power-log"


def quadrature(seed: int) -> list:
    """One round: classify of families whose S has no closed form, and a dichotomy."""
    rng = random.Random(seed)
    u = lambda lo, hi: _u(rng, lo, hi)  # noqa: E731
    s0 = lambda: u(10.0, 200.0)  # noqa: E731
    if seed % 2:
        dich_a = ("power_log", u(0.5, 2.0), u(1.3, 1.5), u(-0.6, -0.4))
    else:
        dich_a = ("power_log", u(0.5, 2.0), u(0.7, 0.8), u(0.6, 1.0))
    return [
        _quad_classify_job("classify:power_log_down",
                           ("power_log", u(0.5, 2.0), u(1.4, 1.6), u(0.3, 0.7)), s0()),
        _quad_classify_job("classify:near_critical", NEAR_CRITICAL, s0()),
        _quad_classify_job("classify:near_critical_ratio", NEAR_CRITICAL_RATIO, 100.0,
                           known_fault=FAULT_NEAR_CRITICAL_RATIO),
        _quad_classify_job("classify:pointwise_min",
                           ("min", ("power_log", 1.0, u(1.8, 2.2), u(0.3, 0.7)),
                            ("power_log", 1.0, 1.0, u(0.6, 0.9))), s0()),
        _quad_classify_job("classify:power_log_up",
                           ("power_log", u(0.5, 2.0), u(0.65, 0.75), u(0.3, 0.7)), s0()),
        _dichotomy_job(dich_a, s0()),
    ]


def quadrature_warmup(jobs):
    """Load the quadrature path without running a full classify."""
    st.classify(st.power_log(p=1.0))
    log_S_grid(st.power_log(p=1.5, q=0.5), np.array([1.0, 2.0, 3.0]))


WORKLOADS = {
    "closed_form": (closed_form, closed_form_warmup),
    "quadrature": (quadrature, quadrature_warmup),
}
