#!/usr/bin/env python3
"""singtrace benchmark: one command, three workloads, every metric by name.

    python3 bench/run.py --workload closed_form|quadrature|cli_cold \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Load is a closed loop from one process with one worker thread: each job
starts when the previous one has ended, and cli_cold runs one child at
a time.  Jobs come in rounds, a fixed list made from the seed; rounds
repeat until S seconds have passed, always finishing the round.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 wraps singtrace's public functions (bench/tracer.py) and prints
the per-layer metrics.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the same result, with
per-kind timings, faults and (traced) span totals, goes to
bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS pools to one thread before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402

WORKLOADS = ("closed_form", "quadrature", "cli_cold")
SETUP_SAMPLES = 3
PROBE_SAMPLES = 3
TAIL_LADDER = (99, 95, 90, 75)
LAYERS = ("functions", "integral", "indices", "classify", "ideals", "staircase", "ingest",
          "cli")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# statistics


def percentile(xs, pct):
    """Linear interpolation between order statistics, as numpy's default."""
    xs = sorted(xs)
    k = (len(xs) - 1) * pct / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(xs):
    """(percentile, value): the highest of the ladder with >= 10 jobs beyond it.

    With fewer than 40 jobs no ladder step qualifies and the median stands in.
    """
    for pct in TAIL_LADDER:
        if len(xs) * (1 - pct / 100.0) >= 10:
            return pct, percentile(xs, pct)
    return 50, percentile(xs, 50)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# process helpers


def timed_child(cmd, ready_line=False):
    """Wall time of a child process, to a 'ready' line on stdout or to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=120)
            out = line + out
        else:
            out, err = proc.communicate(timeout=120)
            elapsed = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])} failed: {err.strip()[-500:]}")
    return elapsed, out


def interpreter_probes():
    """cli.interpreter_s (bare `python -c pass`) and cli.import_s (import singtrace.cli)."""
    interp = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_SAMPLES)]
    code = ("import time; t = time.perf_counter(); import singtrace.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(timed_child([sys.executable, "-c", code])[1])
               for _ in range(PROBE_SAMPLES)]
    return statistics.median(interp), statistics.median(imports)


# ---------------------------------------------------------------------------
# in-process workloads


def setup_inprocess(workload, seed):
    import singtrace
    import workloads

    if Path(singtrace.__file__).resolve().parent != (SRC / "singtrace").resolve():
        raise RuntimeError(f"singtrace imported from {singtrace.__file__}, not from {SRC}")
    make, warm = workloads.WORKLOADS[workload]
    jobs = make(seed)
    warm(jobs)
    return jobs


def probe_setup(workload, seed):
    """Child side of a set-up sample: set up, say ready, exit."""
    setup_inprocess(workload, seed)
    print("ready", flush=True)
    return 0


def run_round(jobs, records, tracer=None):
    clock = time.perf_counter
    for job in jobs:
        err = None
        t0 = clock()
        try:
            out = tracer.job(job.run) if tracer else job.run()
        except Exception as exc:  # a raising job is a failed job, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        if tracer:
            tracer.enabled = False  # checks call singtrace too; keep them out of the spans
        try:
            faults = [err] if err else job.check(out)
        except Exception as exc:
            faults = [f"check raised {type(exc).__name__}: {exc}"]
        if tracer:
            tracer.enabled = True
        records.append((job.kind, dt, faults, job.known_fault))


def run_inprocess(args):
    setups = [timed_child([sys.executable, str(HERE / "run.py"), "--probe-setup",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          ready_line=True)[0] for _ in range(SETUP_SAMPLES)]
    jobs = setup_inprocess(args.workload, args.seed)

    def untraced_round(records):
        run_round(jobs, records)

    def traced_round(records, keep_spans):
        tracer = tr.Tracer()
        tracer.record_spans = keep_spans
        tracer.install()
        try:
            run_round(jobs, records, tracer)
        finally:
            tracer.uninstall()
        return tracer.to_dict(), tracer.spans

    return measure(args, setups, untraced_round, untraced_round, traced_round,
                   resource.RUSAGE_SELF)


def repeat(seconds, one_round, min_rounds=1):
    """Whole rounds until `seconds` have passed and `min_rounds` are done."""
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < seconds:
        one_round(done == 0)
        done += 1


def measure(args, setups, untraced_round, reference_round, traced_round, rusage_who):
    """Untraced rounds for the end-to-end metrics, or traced ones for the per-layer metrics.

    untraced_round(records) and reference_round(records) run one round with
    tracing off: the first as users run it, the second as the traced round
    runs it minus the tracer.  traced_round(records, keep_spans) runs one
    traced round and returns its span totals and kept spans.  rusage_who
    names the processes whose peak RSS counts.
    """
    records = []
    if not args.trace:
        repeat(args.seconds, lambda first: untraced_round(records))
        peak_mb = resource.getrusage(rusage_who).ru_maxrss / 1024.0
        return end_to_end(records, setups, peak_mb), records, {}
    interp_s, import_s = interpreter_probes()
    reference = []
    reference_round(reference)
    snapshots, totals, spans = [], {}, []

    def one_round(first):
        round_totals, round_spans = traced_round(records, first)
        snapshots.append(tr.counts(round_totals))
        tr.merge(totals, round_totals)
        spans.extend(round_spans)

    repeat(args.seconds, one_round, min_rounds=2)
    extra = {"cli.interpreter_s": interp_s, "cli.import_s": import_s}
    return per_layer(records, reference, snapshots, totals, extra, args.workload), records, \
        {"totals": totals, "spans": spans}


# ---------------------------------------------------------------------------
# cli_cold


def run_cli_job(job, work, env, traced=None):
    """Run one CLI job; returns (seconds, exit code, stdout, stderr, trace).

    traced=None runs `python -m singtrace.cli`, as users do; traced runs go
    through bench/cli_child.py, with the tracer (True) or without it, as the
    reference for the tracing overhead (False).
    """
    trace_out = work / "trace.json"
    if traced is None:
        cmd = [sys.executable, "-m", "singtrace.cli"] + job.argv
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py")] + job.argv
    if traced:
        env = dict(env, BENCH_TRACE_OUT=str(trace_out))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    trace = None
    if traced and trace_out.exists():
        trace = json.loads(trace_out.read_text())
        trace_out.unlink()
    return dt, proc.returncode, proc.stdout, proc.stderr, trace


def cli_round(jobs, work, env, records, first_stdout, traced=None, traces=None):
    for job in jobs:
        dt, rc, out, err, trace = run_cli_job(job, work, env, traced)
        faults = []
        if "Traceback" in err:
            faults.append("traceback on stderr: " + err.strip().splitlines()[-1][:200])
        try:
            faults += job.check(rc, out, err)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            faults.append(f"report lacks an expected field ({type(exc).__name__}: {exc})")
        seen = first_stdout.setdefault(job.kind, out)
        if out != seen:
            faults.append("stdout differs from the first run of the same command")
        if job.after:
            job.after(out)
        records.append((job.kind, dt, faults, job.known_fault))
        if traces is not None:
            traces.append(trace)


def cli_setup(seed, work):
    """Inputs plus one untimed warm-up invocation (the round's first job)."""
    import cli_workload

    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    jobs = cli_workload.cli_jobs(seed, work)
    _, rc, out, err, _ = run_cli_job(jobs[0], work, child_env())
    elapsed = time.perf_counter() - t0
    if rc != 0 and not jobs[0].known_fault:
        raise RuntimeError(f"warm-up CLI run failed with exit {rc}: {err.strip()[-500:]}")
    return elapsed, jobs, out


def run_cli(args, work):
    setups = []
    for _ in range(SETUP_SAMPLES):
        elapsed, jobs, warm_out = cli_setup(args.seed, work)
        setups.append(elapsed)
    env = child_env()
    first_stdout = {jobs[0].kind: warm_out}

    def cli_jobs_round(records, traced=None, traces=None):
        cli_round(jobs, work, env, records, first_stdout, traced, traces)

    def traced_round(records, keep_spans):
        traces = []
        cli_jobs_round(records, True, traces)
        totals, spans = {}, []
        for i, trace in enumerate(traces):
            if trace is not None:
                tr.merge(totals, trace["stats"])
                if keep_spans:
                    spans.extend([i] + s[1:] for s in trace["spans"])
        return totals, spans

    return measure(args, setups, cli_jobs_round, lambda records: cli_jobs_round(records, False),
                   traced_round, resource.RUSAGE_CHILDREN)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records, setups, peak_mb):
    times = [dt for _, dt, _, _ in records]
    pct, tail_s = tail(times)
    return {
        "jobs_per_s": metric(len(times) / math.fsum(times), "1/s"),
        "job_p50_ms": metric(percentile(times, 50) * 1e3, "ms"),
        "job_tail_ms": metric(tail_s * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }, {"tail_percentile": pct, "setup_samples_s": setups}


def per_layer(records, untraced, snapshots, totals, extra, workload):
    n = len(records)

    def rec(name):
        return totals.get(name) or tr.empty()

    def per_call(name):
        r = rec(name)
        return r["incl_s"] / r["calls"] if r["calls"] else 0.0

    g, quad, grid = rec("functions.g_eval"), rec("integral.quad"), rec("integral.log_S_grid")
    construct = rec("staircase.construct")
    root = "cli.main" if workload == "cli_cold" else "job"
    job_s = rec(root)["incl_s"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, r in totals.items():
        layer = name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += r["self_s"]
    traced_round = math.fsum(dt for _, dt, _, _ in records) / len(snapshots)
    untraced_round = math.fsum(dt for _, dt, _, _ in untraced)
    untraced_job = untraced_round / len(untraced)
    m = {
        "functions.g_eval.calls_per_job": metric(g["calls"] / n, "count"),
        "functions.g_eval.points_per_job": metric(g["points"] / n, "count"),
        "functions.g_eval.s_per_job": metric(g["incl_s"] / n, "s"),
        "integral.quad.calls_per_job": metric(quad["calls"] / n, "count"),
        "integral.log_S_grid.quad_s_per_job": metric(grid["quad_path_s"] / n, "s"),
        "integral.log_S_grid.closed_s_per_job": metric(grid["closed_path_s"] / n, "s"),
        "integral.log_S_grid.calls_per_job": metric(grid["calls"] / n, "count"),
        "integral.log_S_grid.points_per_job": metric(grid["points"] / n, "count"),
        "integral.is_trace_class.calls_per_job":
            metric(rec("integral.is_trace_class")["calls"] / n, "count"),
        "integral.quad_path_share_pct":
            metric(100.0 * grid["quad_path_s"] / job_s if job_s else 0.0, "%"),
        "indices.matuszewska.calls_per_job":
            metric(rec("indices.matuszewska")["calls"] / n, "count"),
        "indices.matuszewska.s_per_job": metric(rec("indices.matuszewska")["incl_s"] / n, "s"),
        "indices.is_regular.calls_per_job":
            metric(rec("indices.is_regular")["calls"] / n, "count"),
        "classify.classify.s_per_job": metric(rec("classify.classify")["incl_s"] / n, "s"),
        "classify.indices.s_per_job": metric(rec("classify.indices")["incl_s"] / n, "s"),
        "classify.liminf.s_per_job": metric(rec("classify.liminf")["incl_s"] / n, "s"),
        "classify.ratio.s_per_job": metric(rec("classify.ratio")["incl_s"] / n, "s"),
        "ideals.in_principal_ideal.s_per_call": metric(per_call("ideals.in_principal_ideal"), "s"),
        "ideals.in_kernel.s_per_call": metric(per_call("ideals.in_kernel"), "s"),
        "ideals.horizon_decisions_per_job": metric(
            (rec("ideals.in_principal_ideal")["horizon_decisions"]
             + rec("ideals.in_kernel")["horizon_decisions"]) / n, "count"),
        "staircase.construct.s_per_call": metric(per_call("staircase.construct"), "s"),
        "staircase.construct.g_evals_per_call": metric(
            construct["desc"].get("functions.g_eval", 0) / construct["calls"]
            if construct["calls"] else 0.0, "count"),
        "staircase.verify.s_per_call": metric(per_call("staircase.verify"), "s"),
        "ingest.load_input.s_per_job": metric(rec("ingest.load_input")["incl_s"] / n, "s"),
        "ingest.family_to_dict.s_per_job": metric(rec("ingest.family_to_dict")["incl_s"] / n, "s"),
        "cli.import_s": metric(extra["cli.import_s"], "s"),
        "cli.main.s_per_job": metric(rec("cli.main")["incl_s"] / n, "s"),
        "cli.interpreter_s": metric(extra["cli.interpreter_s"], "s"),
        "cli.import_share_pct": metric(
            100.0 * extra["cli.import_s"] / untraced_job if workload == "cli_cold" else 0.0, "%"),
    }
    for layer, self_s in layer_self.items():
        m[f"{layer}.self_s_per_job"] = metric(self_s / n, "s")
    m["job.self_s_per_job"] = metric(rec("job")["self_s"] / n, "s")
    m["trace.overhead_pct"] = metric(100.0 * (traced_round / untraced_round - 1.0), "%")
    m["trace.counts_repeat"] = metric(int(all(s == snapshots[0] for s in snapshots)), "bool")
    return m, {"traced_rounds": len(snapshots), "traced_jobs": n}


# ---------------------------------------------------------------------------


def summarize(records):
    kinds = {}
    for kind, dt, faults, known in records:
        k = kinds.setdefault(kind, {"jobs": 0, "failed": 0, "times_s": [], "faults": []})
        k["jobs"] += 1
        k["times_s"].append(dt)
        if faults:
            k["failed"] += 1
            if len(k["faults"]) < 3:
                k["faults"].append({"faults": faults[:5], "known_fault": known})
    for k in kinds.values():
        ts = k.pop("times_s")
        k["median_ms"] = percentile(ts, 50) * 1e3
        k["max_ms"] = max(ts) * 1e3
    return kinds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "singtrace" / "__init__.py").is_file():
        print(f"error: no singtrace package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)

    work = HERE / f".work-{os.getpid()}"
    try:
        if args.workload == "cli_cold":
            (metrics, info), records, trace = run_cli(args, work)
        else:
            (metrics, info), records, trace = run_inprocess(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if {(d["name"], d["unit"]) for d in declared} != {(k, m["unit"]) for k, m in metrics.items()}:
        raise RuntimeError("metrics differ from those BENCHMARK.json declares")

    failed = [r for r in records if r[2]]
    unexpected = [r for r in failed if not r[3]]
    result = {"correct": not unexpected, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    for kind, _, faults, _ in unexpected[:5]:
        print(f"FAULT {kind}: {'; '.join(faults)[:300]}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "result": result, "info": info,
                               "python": sys.version.split()[0],
                               "kinds": summarize(records), **trace}, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(records)} jobs, {len(failed)} failed "
          f"({len(unexpected)} unexpected)")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
