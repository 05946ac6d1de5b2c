"""Canonical JSON and CSV forms for elements, sample batches, and reports.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, and containers keep insertion order, so any two runs that
produce equal values produce byte-identical files.

JSON writes -0.0 as ``-0.0``: the shorter ``-0`` would read back as the
integer 0 and lose the sign.

Sample batches are written and read a block of rows at a time, not one
float per Python call.  The writers fill a ``%.17g`` row template for
``ROW_BLOCK`` rows in one ``%`` call; ``"%.17g" % x`` and
``format(x, ".17g")`` are the same routine, so the bytes are those of
:func:`format_float` for finite floats (a :class:`SampleBatch` holds no
others), once a JSON block that holds -0.0 has its ``-0`` cells rewritten.
The CSV reader checks the header and every row's ``kind,rank,dim`` prefix
and cell count with string operations, parses all coordinates with one
``numpy.loadtxt`` call and checks them with one ``isfinite``.  A malformed
file raises ``ValueError`` naming its 1-based file line; the line of an
unparsable or non-finite cell is looked up only on that error path.
Single elements go through the same row template and row check.
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
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "-0" would read back as the integer 0
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
    return _csv_row_template(x.algebra) % tuple(x.coords.tolist())


def element_from_csv_row(row: str) -> Element:
    alg, coords = _csv_coords([(1, row.strip())])
    return Element(alg, coords[0])


# ---------------------------------------------------------------------------
# Sample batches
# ---------------------------------------------------------------------------

# rows formatted in one % call; bounds the temporary tuple of floats
ROW_BLOCK = 4096


def _csv_prefix(alg: AlgebraDescriptor) -> str:
    return f"{alg.kind.value},{alg.rank},{alg.dim}"


def _csv_header(alg: AlgebraDescriptor) -> str:
    return ",".join(["kind", "rank", "dim"] + coordinate_names(alg))


def _csv_row_template(alg: AlgebraDescriptor) -> str:
    return _csv_prefix(alg) + ",%.17g" * alg.dim


def _format_rows(template: str, sep: str, coords: np.ndarray,
                 neg_zero: bool = False) -> list[str]:
    """Fill ``template`` once per row, rows ``sep``-joined, ROW_BLOCK rows per call.

    With ``neg_zero`` (JSON rows), a block holding -0.0 has each ``-0``
    cell rewritten as :func:`format_float` writes it, ``-0.0``.  In
    ``%.17g`` output a ``-0`` followed by ``,`` or ``]`` is only ever -0.0.
    """
    full = sep.join([template] * ROW_BLOCK)
    chunks = []
    for start in range(0, coords.shape[0], ROW_BLOCK):
        block = coords[start : start + ROW_BLOCK]
        filled = full if block.shape[0] == ROW_BLOCK else sep.join([template] * block.shape[0])
        text = filled % tuple(block.ravel().tolist())
        if neg_zero and np.any(np.signbit(block) & (block == 0.0)):
            text = text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
        chunks.append(text)
    return chunks


def _csv_coords(rows: list[tuple[int, str]]) -> tuple[AlgebraDescriptor, np.ndarray]:
    """Algebra and coordinates of numbered CSV rows, header excluded.

    The first row's ``kind,rank,dim`` prefix fixes the algebra.  Every row
    must carry that prefix and exactly ``3 + dim`` finite numbers.
    """
    line, first = rows[0]
    cells = first.split(",", 3)
    try:
        alg = descriptor_from_dict({"kind": cells[0], "rank": int(cells[1]),
                                    "dim": int(cells[2])})
    except (IndexError, ValueError) as exc:
        raise ValueError(f"line {line}: no valid kind,rank,dim prefix ({exc})") from None
    prefix = _csv_prefix(alg) + ","
    commas = 2 + alg.dim
    bad = next((r for r in rows if not r[1].startswith(prefix) or r[1].count(",") != commas),
               None)
    if bad is not None:
        line, row = bad
        if not row.startswith(prefix):
            raise ValueError(f"line {line}: prefix {','.join(row.split(',')[:3])!r} "
                             f"differs from {prefix[:-1]!r}")
        raise ValueError(f"line {line}: {row.count(',') + 1} cells, expected {3 + alg.dim}")
    texts = [row for _, row in rows]

    def parse(chunk):
        return np.loadtxt(chunk, delimiter=",", usecols=range(3, 3 + alg.dim), ndmin=2,
                          comments=None)

    try:
        coords = parse(texts)
    except ValueError:
        # numpy counts parsed rows, not file lines: bisect for the first bad row
        lo, hi = 0, len(texts)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(texts[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        line, row = rows[lo]
        raise ValueError(f"line {line}: a coordinate is not a number in {row!r}") from None
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        line, row = rows[int(np.argmin(finite))]
        raise ValueError(f"line {line}: coordinates must be finite, got {row!r}")
    return alg, coords


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
    rows = _format_rows(_csv_row_template(alg), "\n", batch.coords)
    return "\n".join([_csv_header(alg), *rows, ""])


def batch_to_json(batch: SampleBatch) -> str:
    """The :func:`batch_metadata` object plus a ``"samples"`` list of rows."""
    head = dumps_canonical(batch_metadata(batch))
    row = "[" + ", ".join(["%.17g"] * batch.algebra.dim) + "]"
    samples = ", ".join(_format_rows(row, ", ", batch.coords, neg_zero=True))
    return head[:-1] + ', "samples": [' + samples + "]}\n"


def batch_coords_from_csv(text: str) -> tuple[AlgebraDescriptor, np.ndarray]:
    """Algebra and (n, dim) coordinates of a CSV written by :func:`batch_to_csv`.

    Blank lines and CRLF line ends are accepted.  A file without sample
    rows, a header other than ``kind,rank,dim`` plus the coordinate names,
    and a row whose prefix or cell count differs from the first row's raise
    ``ValueError`` naming the line.
    """
    lines = [(k, ln) for k, ln in enumerate(map(str.strip, text.splitlines()), 1) if ln]
    if len(lines) < 2:
        raise ValueError("CSV has no sample rows")
    (line, header), rows = lines[0], lines[1:]
    alg, coords = _csv_coords(rows)
    expected = _csv_header(alg)
    if header != expected:
        raise ValueError(f"line {line}: header {header!r}, expected {expected!r}")
    return alg, coords


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
