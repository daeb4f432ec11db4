"""The cli_cold workload: one fresh `python -m singtrace.cli` process per job.

Inputs are small files written from the seed into a work directory.  A
job is an argument list plus a check on (exit code, stdout, stderr).
Every job must leave no traceback on stderr, and its stdout must be
byte-identical to the first time the same command ran (the warm-up or
an earlier round), as the CLI promises reproducible reports.

This module does not import singtrace: the parent process of cli_cold
stays as light as the users' shell.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

N_STEPS = 40

# rearrange exits 0 on these spectra although their rows are not finite
FAULT_INF_ROW = "rearrange accepts an inf,1 row and reports mass inf with exit 0"
FAULT_NAN_ROW = "rearrange drops a nan,1 row without a word and exits 0"


@dataclass
class CliJob:
    kind: str
    argv: list
    # check(exit code, stdout, stderr) -> faults
    check: Callable[[int, str, str], list]
    known_fault: str | None = None
    # called with stdout after the job; feeds inputs to later jobs of the round
    after: Callable[[str], None] | None = None


def _json(out):
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON ({exc})"]


def _expect(rc_want, verify=None):
    """Check for exit code rc_want, then verify(report) on a JSON report."""

    def check(rc, out, err):
        if rc != rc_want:
            return [f"exit {rc}, expected {rc_want}: {err.strip()[:200]}"]
        if rc_want == 1:
            faults = [] if err.strip() else ["rejected without a message on stderr"]
            return faults + ([f"stdout not empty on rejection: {out[:80]!r}"] if out else [])
        report, faults = _json(out)
        if report is not None and verify is not None:
            faults += verify(report)
        return faults

    return check


def _verdicts(want: bool):
    word = "true" if want else "false"

    def verify(rep):
        faults = []
        for name, crit in rep["criteria"].items():
            if crit["traceable"] in ("true", "false") and crit["traceable"] != word:
                faults.append(f"{name} says {crit['traceable']}, expected {word}")
        if rep["traceable"] != word:
            faults.append(f"traceable {rep['traceable']}, expected {word}")
        return faults

    return verify


def _indices(p):
    def verify(rep):
        faults = [] if rep["mode"] == "estimated" else [f"mode {rep['mode']}"]
        for key in ("delta_lower", "delta_upper"):
            if not abs(rep[key] - 1.0 / p) <= 0.02:
                faults.append(f"{key} {rep[key]}, expected {1.0 / p:.6g} within 0.02")
        return faults

    return verify


def _membership(want: bool):
    def verify(rep):
        verdict = "member" if want else "non_member"
        return [] if rep["verdict"] == verdict else [f"verdict {rep['verdict']}, expected {verdict}"]

    return verify


def _staircase(variant, source):
    def verify(rep):
        stair = rep["staircase"]
        bps = stair["breakpoints"]
        n_want = N_STEPS if variant == "vanisher" else N_STEPS - 1
        faults = [] if len(bps) == n_want else [f"{len(bps)} breakpoints, expected {n_want}"]
        faults += oracle.staircase_gap_faults(variant, source, rep["normalization_offset"], bps)
        margins = rep["verification"]["gap_margins"]
        if not (margins[0] > 0 and margins[1] > 0):
            faults.append(f"verification margins {margins}")
        return faults

    return verify


def _rearranged(pairs):
    """Sort-descending rearrangement, merged equal values, zero values dropped."""
    items = sorted(((v, w) for v, w in pairs if v > 0), reverse=True)
    values, bps = [], [0.0]
    for v, w in items:
        if values and values[-1] == v:
            bps[-1] += w
        else:
            values.append(v)
            bps.append(bps[-1] + w)
    rank = math.fsum(w for v, w in items)
    mass = math.fsum(v * w for v, w in items)

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def verify(rep):
        prof = rep["profile"]
        faults = []
        if prof["values"] != values:
            faults.append(f"values {prof['values']}, expected {values}")
        if len(prof["breakpoints"]) != len(bps) or not all(
                close(a, b) for a, b in zip(prof["breakpoints"], bps)):
            faults.append(f"breakpoints {prof['breakpoints']}, expected {bps}")
        if not close(rep["rank"], rank):
            faults.append(f"rank {rep['rank']}, expected {rank}")
        if not close(rep["mass"], mass):
            faults.append(f"mass {rep['mass']}, expected {mass}")
        return faults

    return verify


def _dichotomy(a):
    want = "zero" if oracle.trace_class(a) else "infinite"

    def verify(rep):
        return [] if rep["outcome"] == want else [f"outcome {rep['outcome']}, expected {want}"]

    return verify


def _family(spec):
    if spec[0] == "power_log":
        return {"kind": "power_log", "scale": spec[1], "p": spec[2], "q": spec[3]}
    if spec[0] == "pure_power":
        return {"kind": "pure_power", "p": spec[1], "scale": spec[2], "cap": spec[3]}
    raise ValueError(spec[0])


def cli_jobs(seed: int, work: Path) -> list:
    """Write the inputs for one round into work and return its jobs."""
    rng = random.Random(seed)
    u = lambda lo, hi: round(rng.uniform(lo, hi), 4)  # noqa: E731

    def write(name, text):
        path = work / name
        path.write_text(text)
        return str(path)

    def family_file(name, spec):
        return write(name, json.dumps(_family(spec)))

    fmt = ["--format", "json"]
    jobs = []

    q = u(-0.8, 2.5)
    jobs.append(CliJob("classify_inline", ["classify", "--kind", "power_log", "--p", "1",
                                           "--q", str(q)] + fmt, _expect(0, _verdicts(True))))
    spec = ("power_log", u(0.5, 2.0), u(1.2, 3.0), 0.0)
    jobs.append(CliJob("classify_file", ["classify", family_file("classify.json", spec)] + fmt,
                       _expect(0, _verdicts(False))))
    p = u(0.5, 3.0)
    jobs.append(CliJob("indices", ["indices", "--kind", "power_log", "--p", str(p),
                                   "--horizon", "30", "--h-grid", "1,2,4"] + fmt,
                       _expect(0, _indices(p))))

    a = ("power_log", u(0.5, 2.0), u(0.5, 2.5), u(-0.4, 2.0))
    b = ("power_log", u(0.5, 2.0), u(0.5, 2.5), u(-0.4, 2.0))
    fa, fb = family_file("ideal_a.json", a), family_file("ideal_b.json", b)
    jobs.append(CliJob("ideal_check", ["ideal-check", fa, fb] + fmt,
                       _expect(0, _membership(oracle.ideal_member(a, b)))))
    jobs.append(CliJob("kernel_check", ["kernel-check", fb, fa] + fmt,
                       _expect(0, _membership(oracle.kernel_member(b, a)))))

    line = ("pure_power", 1.0, u(0.5, 2.0), 1.0)
    stair_path = work / "staircase.json"

    def keep_staircase(out):
        report, _ = _json(out)
        text = json.dumps(report["staircase"]) if report and "staircase" in report else "{}"
        stair_path.write_text(text)

    jobs.append(CliJob("construct_vanisher",
                       ["construct", "vanisher", family_file("line.json", line),
                        "--n-steps", str(N_STEPS)] + fmt,
                       _expect(0, _staircase("vanisher", line)), after=keep_staircase))
    # fixed: a seeded source would sometimes meet the envelope fault that
    # workloads.DOMINATOR_FAULT_SOURCE keeps in closed_form
    source = ("power_log", 1.0, 1.2, 0.0)
    jobs.append(CliJob("construct_dominator",
                       ["construct", "dominator", family_file("source.json", source),
                        "--n-steps", str(N_STEPS)] + fmt,
                       _expect(0, _staircase("dominator", source))))

    pairs = [(u(0.0, 5.0), u(0.2, 3.0)) for _ in range(rng.randint(4, 8))] + [(0.0, 1.0)]
    csv = write("spectrum.csv", "value,weight\n" + "".join(f"{v},{w}\n" for v, w in pairs))
    jobs.append(CliJob("rearrange", ["rearrange", csv] + fmt, _expect(0, _rearranged(pairs))))

    if seed % 2:
        dich = ("power_log", u(0.5, 2.0), u(1.3, 2.5), 0.0)
    else:
        dich = ("power_log", u(0.5, 2.0), u(0.4, 0.8), 0.0)
    jobs.append(CliJob("dichotomy", ["dichotomy", family_file("dich_a.json", dich),
                                     family_file("dich_b.json", ("power_log", 1.0, 1.0, 0.0))]
                       + fmt, _expect(0, _dichotomy(dich))))
    jobs.append(CliJob("classify_staircase", ["classify", str(stair_path)] + fmt,
                       _expect(0, _verdicts(True))))

    neg = write("negative.csv", f"{u(1.0, 5.0)},1\n{u(0.1, 0.9)},-{u(0.5, 2.0)}\n")
    jobs.append(CliJob("reject_negative_weight", ["rearrange", neg] + fmt, _expect(1)))

    inf_csv = write("inf_row.csv", "3,1\ninf,1\n1,2\n")
    jobs.append(CliJob("rearrange_inf_row", ["rearrange", inf_csv] + fmt, _expect(1),
                       known_fault=FAULT_INF_ROW))
    nan_csv = write("nan_row.csv", "3,1\nnan,1\n")
    jobs.append(CliJob("rearrange_nan_row", ["rearrange", nan_csv] + fmt, _expect(1),
                       known_fault=FAULT_NAN_ROW))
    return jobs
