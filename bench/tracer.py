"""Spans and counts at singtrace's module boundaries, from outside the program.

install() wraps the public functions of each module in every singtrace
namespace that binds them (classify binds its own log_S_grid,
matuszewska and is_regular; indices.is_regular calls indices.matuszewska;
the package attribute singtrace.classify is the function, so modules are
reached through sys.modules).  GFunction.eval is wrapped on the class.

Each wrapped call is a span with a parent.  Spans are aggregated per name
as they close: calls, points (array sizes), inclusive time counted once
per outermost call of that name, self time (inclusive minus the time of
child spans), and counts of descendant spans.  Full span records are kept
only while record_spans is set, and never for the two leaf kinds that
run hundreds of thousands of times per job (g evaluations and quad
calls), which are counted in their parents instead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute); the layer is the part before the dot
TARGETS = (
    ("integral.quad", "integral", "quad"),
    ("integral.log_S_grid", "integral", "log_S_grid"),
    ("integral.log_S", "integral", "log_S"),
    ("integral.is_trace_class", "integral", "is_trace_class"),
    ("indices.matuszewska", "indices", "matuszewska"),
    ("indices.is_regular", "indices", "is_regular"),
    ("classify.classify", "classify", "classify"),
    ("classify.indices", "classify", "traceable_by_indices"),
    ("classify.liminf", "classify", "traceable_by_liminf"),
    ("classify.ratio", "classify", "traceable_by_ratio"),
    ("classify.dichotomy", "classify", "dichotomy"),
    ("ideals.in_principal_ideal", "ideals", "in_principal_ideal"),
    ("ideals.in_kernel", "ideals", "in_kernel"),
    ("staircase.construct", "staircase", "construct_vanisher"),
    ("staircase.construct", "staircase", "construct_dominator"),
    ("staircase.verify", "staircase", "verify_construction"),
    ("ingest.load_input", "ingest", "load_input"),
    ("ingest.family_from_dict", "ingest", "family_from_dict"),
    ("ingest.family_to_dict", "ingest", "family_to_dict"),
)
G_EVAL = "functions.g_eval"
QUAD = "integral.quad"
LEAVES = (G_EVAL, QUAD)
DECISIONS = ("ideals.in_principal_ideal", "ideals.in_kernel")
# names whose points are the size of their first array argument after self/mu
POINTS_ARG = {G_EVAL: 1, "integral.log_S_grid": 1}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.record_spans = False
        self.stats = defaultdict(empty)  # span name -> totals, as empty() lays out
        self.spans = []
        self.job_id = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        points_arg = POINTS_ARG.get(name)
        keep = name not in LEAVES
        decisions = name in DECISIONS
        tracer = self
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            # frame: [start, time in child spans, descendant counts, span id]
            frame = [clock(), 0.0, None, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                tracer._close(name, frame, end, depth[name] == 0, keep)
                if points_arg is not None and len(args) > points_arg:
                    tracer.stats[name]["points"] += _size(args[points_arg])
            if decisions and getattr(result, "mode", None) == "horizon":
                tracer.stats[name]["horizon_decisions"] += 1
            return result

        return traced

    def _close(self, name, frame, end, outermost, keep):
        dur = end - frame[0]
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += dur - frame[1]
        if outermost:
            st["incl_s"] += dur
        desc = frame[2]
        if desc:
            st_desc = st["desc"]
            for k, v in desc.items():
                st_desc[k] = st_desc.get(k, 0) + v
        if name == "integral.log_S_grid":
            st["quad_path_s" if desc and desc.get(QUAD) else "closed_path_s"] += dur
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[1] += dur
            pdesc = parent[2]
            if pdesc is None:
                pdesc = parent[2] = defaultdict(int)
            pdesc[name] += 1
            if desc:
                for k, v in desc.items():
                    pdesc[k] += v
        if self.record_spans and keep:
            parent_id = stack[-1][3] if stack else None
            self.spans.append((self.job_id, frame[3], parent_id, name, frame[0], end))

    def job(self, fn, name="job"):
        """Run fn as the root span of one job."""
        frame = [time.perf_counter(), 0.0, None, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(name, frame, end, True, True)
            self.job_id += 1

    def install(self):
        """Wrap every target in every singtrace namespace that binds it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "singtrace" or n.startswith("singtrace."))]
        for name, mod_name, attr in TARGETS:
            home = sys.modules.get(f"singtrace.{mod_name}")
            if home is None or not hasattr(home, attr):
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        from singtrace.functions import GFunction

        orig_eval = GFunction.eval
        GFunction.eval = self.wrap(G_EVAL, orig_eval)
        self._restore.append((GFunction, "eval", orig_eval))
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def to_dict(self):
        """The totals per span name, as merge() and counts() read them."""
        return dict(self.stats)


def empty() -> dict:
    """Totals of one span name: calls, points, inclusive and self seconds,
    counts of descendant spans, log_S_grid time by path, and membership
    decisions settled on the horizon only."""
    return {"calls": 0, "points": 0, "incl_s": 0.0, "self_s": 0.0, "desc": {},
            "quad_path_s": 0.0, "closed_path_s": 0.0, "horizon_decisions": 0}


def merge(totals: dict, part: dict) -> None:
    """Add one to_dict() snapshot into another (rounds, CLI children)."""
    for name, rec in part.items():
        tot = totals.setdefault(name, empty())
        for key, val in rec.items():
            if key == "desc":
                for k, v in val.items():
                    tot["desc"][k] = tot["desc"].get(k, 0) + v
            else:
                tot[key] += val


def counts(totals: dict) -> dict:
    """The work counts of a to_dict() snapshot, without times: they must repeat exactly."""
    return {name: (r["calls"], r["points"], r["horizon_decisions"], r["desc"])
            for name, r in sorted(totals.items())}


def _size(x):
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1
