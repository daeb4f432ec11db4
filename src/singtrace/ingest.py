"""Reading and writing function-family descriptions.

The JSON schema uses a "kind" discriminator:

    {"kind": "power_log",  "scale": C, "p": p, "q": q}
    {"kind": "exponential","alpha": a}
    {"kind": "pure_power", "p": p, "scale": C, "cap": M}
    {"kind": "step",       "breakpoints": [...], "values": [...]}
    {"kind": "g_step",     "breakpoints": [...], "values": [...],
                           "tail": "hold"|"infinite", "horizon": t?}
    {"kind": "sampled",    "grid": [...], "values": [...], "tail": {...}|null}
    {"kind": "spectrum",   "pairs": [[value, weight], ...]}

"step" describes a decay profile in the x coordinate (one value per
bounded piece, zero afterwards); "g_step" describes a step function of
the logarithmic coordinate and is what staircase constructions
serialize to, since their breakpoints overflow any x-space encoding.
Spectra may alternatively arrive as two-column CSV (value, weight),
header optional.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

from .errors import SingTraceError
from .functions import (
    EigenvalueFunction,
    Exponential,
    Family,
    GFunction,
    GStep,
    PowerLog,
    PurePower,
    SampledMu,
    SpectralData,
    StepMu,
    g_step,
    g_transform,
    rearrange,
)


class ParseError(SingTraceError, ValueError):
    """Malformed family description or spectrum file."""


def _require(obj, key, kind):
    if key not in obj:
        raise ParseError(f"'{kind}' needs a '{key}' field")
    return obj[key]


def _plain_kind(cls, *required):
    """Reader and writer of a family whose fields are numbers or number lists;
    the fields named in required, and those without a default, must be given."""

    def read(obj, kind):
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in required or f.default is dataclasses.MISSING:
                raw = _require(obj, f.name, kind)
            else:
                raw = obj.get(f.name, f.default)
            kwargs[f.name] = tuple(float(x) for x in raw) if isinstance(raw, list) else float(raw)
        return EigenvalueFunction(cls(**kwargs))

    def write(fam):
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(fam).items()}

    return cls, read, write


def _read_g_step(obj, kind):
    values = [
        math.inf if v in ("inf", "Infinity", None) else float(v)
        for v in _require(obj, "values", kind)
    ]
    tail = obj.get("tail", "hold")
    if tail == "infinite" and not math.isinf(values[-1]):
        values.append(math.inf)
    horizon = obj.get("horizon")
    return g_step(
        tuple(float(b) for b in _require(obj, "breakpoints", kind)),
        tuple(values),
        horizon=None if horizon is None else float(horizon),
        integrable=obj.get("integrable"),
        label=str(obj.get("label", "")),
    )


def _write_g_step(fam):
    out = {
        "breakpoints": list(fam.breakpoints),
        "values": ["inf" if math.isinf(v) else v for v in fam.values],
        "tail": "infinite" if fam.finite_rank else "hold",
    }
    if fam.horizon is not None:
        out["horizon"] = fam.horizon
    if fam.integrable is not None:
        out["integrable"] = fam.integrable
    if fam.label:
        out["label"] = fam.label
    return out


def _read_sampled(obj, kind):
    tail_obj = obj.get("tail")
    tail = None
    if tail_obj is not None:
        tail_fn = family_from_dict(tail_obj)
        if not isinstance(tail_fn, EigenvalueFunction) or tail_fn.a or tail_fn.b:
            raise ParseError("sampled tail must be a plain mu-side family")
        tail = tail_fn.family
    grid = tuple(float(x) for x in _require(obj, "grid", kind))
    values = tuple(float(v) for v in _require(obj, "values", kind))
    return EigenvalueFunction(SampledMu(grid, values, tail))


def _write_sampled(fam):
    return {"grid": list(fam.grid), "values": list(fam.values),
            "tail": None if fam.tail is None else _family_dict(fam.tail)}


def _read_spectrum(obj, kind):
    return rearrange(SpectralData(_require(obj, "pairs", kind)))


# kind -> (family class, reader, writer); a spectrum is read into a step
# profile and written back as one, so it has no class or writer
_KINDS = {
    "power_log": _plain_kind(PowerLog),
    "exponential": _plain_kind(Exponential, "alpha"),
    "pure_power": _plain_kind(PurePower, "p"),
    "step": _plain_kind(StepMu),
    "g_step": (GStep, _read_g_step, _write_g_step),
    "sampled": (SampledMu, _read_sampled, _write_sampled),
    "spectrum": (None, _read_spectrum, None),
}
_KIND_OF = {cls: kind for kind, (cls, _, _) in _KINDS.items() if cls is not None}


def family_from_dict(obj) -> EigenvalueFunction | GFunction:
    if not isinstance(obj, dict):
        raise ParseError("family description must be a JSON object")
    kind = _require(obj, "kind", "family")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown family kind {kind!r}")
    try:
        return _KINDS[kind][1](obj, kind)
    except SingTraceError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad '{kind}' description: {exc}") from exc


def _family_dict(fam) -> dict:
    kind = _KIND_OF.get(type(fam))
    if kind is None:
        raise ParseError(f"cannot serialize family {type(fam).__name__}")
    return {"kind": kind, **_KINDS[kind][2](fam)}


def family_to_dict(fn) -> dict:
    """Serializable description of a view; staircases land in the g_step format."""
    g = g_transform(fn)
    out = _family_dict(g.family)
    if g.a or g.b:
        out.update(shift_a=g.a, shift_b=g.b)
    return out


def spectrum_from_csv(path) -> EigenvalueFunction:
    """Two columns value, weight; a non-numeric first row is a header."""
    pairs = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            if len(cells) != 2:
                raise ParseError(f"{path}:{row_no}: expected two columns, got {len(cells)}")
            try:
                v, w = float(cells[0]), float(cells[1])
            except ValueError:
                if row_no == 1:
                    continue  # header
                raise ParseError(f"{path}:{row_no}: non-numeric entry") from None
            pairs.append((v, w))
    return rearrange(SpectralData(tuple(pairs)))


def load_input(path) -> EigenvalueFunction | GFunction:
    """Family JSON or spectrum CSV, by extension."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"no such input file: {path}")
    if p.suffix.lower() == ".csv":
        return spectrum_from_csv(p)
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    fn = family_from_dict(obj)
    try:
        a, b = float(obj.get("shift_a", 0.0)), float(obj.get("shift_b", 0.0))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad shift_a/shift_b ({exc})") from exc
    Family.check_finite("shift_a and shift_b", a, b)
    return fn.shifted(a, b)
