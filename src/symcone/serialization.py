"""Canonical JSON and CSV forms for elements, sample batches, and reports.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, and containers keep insertion order, so any two runs that
produce equal values produce byte-identical files.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np

from .algebra import AlgebraDescriptor, Element, coordinate_names, descriptor_from_dict
from .distributions import SampleBatch

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Serialize to JSON with deterministic float formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, dict):
        items = ", ".join(
            f"{dumps_canonical(str(k))}: {dumps_canonical(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

def element_to_dict(x: Element) -> dict:
    d = x.algebra.to_dict()
    d["coords"] = [float(c) for c in x.coords]
    return d


def element_from_dict(d: dict) -> Element:
    alg = descriptor_from_dict(d)
    return Element(alg, np.asarray(d["coords"], dtype=float))


def element_to_csv_row(x: Element) -> str:
    alg = x.algebra
    cells = [alg.kind.value, str(alg.rank), str(alg.dim)]
    cells += [format(float(c), ".17g") for c in x.coords]
    return ",".join(cells)


def element_from_csv_row(row: str) -> Element:
    cells = row.strip().split(",")
    alg = descriptor_from_dict({"kind": cells[0], "rank": int(cells[1]), "dim": int(cells[2])})
    coords = np.array([float(c) for c in cells[3 : 3 + alg.dim]])
    return Element(alg, coords)


# ---------------------------------------------------------------------------
# Sample batches
# ---------------------------------------------------------------------------

def batch_metadata(batch: SampleBatch) -> dict:
    meta = {"schema_version": SCHEMA_VERSION}
    meta.update(batch.algebra.to_dict())
    meta["seed"] = batch.seed
    meta["method"] = batch.method
    meta["params"] = batch.params
    meta["n"] = batch.n
    meta["coordinates"] = coordinate_names(batch.algebra)
    if batch.mcmc is not None:
        meta["mcmc"] = batch.mcmc
    return meta


def batch_to_csv(batch: SampleBatch) -> str:
    """One sample per row, coordinates in canonical basis order."""
    alg = batch.algebra
    header = ["kind", "rank", "dim"] + coordinate_names(alg)
    lines = [",".join(header)]
    prefix = f"{alg.kind.value},{alg.rank},{alg.dim}"
    for row in batch.coords:
        lines.append(prefix + "," + ",".join(format(float(c), ".17g") for c in row))
    return "\n".join(lines) + "\n"


def batch_to_json(batch: SampleBatch) -> str:
    payload = batch_metadata(batch)
    payload["samples"] = [[float(c) for c in row] for row in batch.coords]
    return dumps_canonical(payload) + "\n"


def batch_coords_from_csv(text: str) -> tuple[AlgebraDescriptor, np.ndarray]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [element_from_csv_row(ln) for ln in lines[1:]]
    alg = rows[0].algebra
    return alg, np.stack([r.coords for r in rows])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def reports_to_json(reports: list) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "reports": [r.to_dict() for r in reports],
    }
    return dumps_canonical(payload) + "\n"


_REPORT_CSV_FIELDS = (
    "check",
    "kind",
    "rank",
    "dim",
    "trials",
    "max_residual",
    "mean_residual",
    "passed",
    "seed",
    "tolerance",
)


def reports_to_csv(reports: list) -> str:
    lines = [",".join(_REPORT_CSV_FIELDS)]
    for r in reports:
        d = r.to_dict()
        alg = d.get("algebra") or {}
        cells = []
        for name in _REPORT_CSV_FIELDS:
            if name in ("kind", "rank", "dim"):
                cells.append(str(alg.get(name, "")))
            else:
                v = d.get(name, "")
                if isinstance(v, bool):
                    cells.append("true" if v else "false")
                elif isinstance(v, float):
                    cells.append(format(v, ".17g"))
                else:
                    cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
