"""Round trips and determinism of the JSON/CSV forms."""

import csv
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st
from hypothesis.extra import numpy as hyp_np

from symcone import algebra as ja
from symcone import distributions as dist
from symcone import serialization as ser


def test_float_formatting_round_trips():
    for x in (1.0 / 3.0, 1e-17, 123456.789, -0.1, 2.0, 5e300):
        assert float(ser.format_float(x)) == x


def test_canonical_dumps_basic():
    payload = {"a": 1, "b": [1.5, None, True], "c": "x\"y"}
    out = ser.dumps_canonical(payload)
    import json

    assert json.loads(out) == {"a": 1, "b": [1.5, None, True], "c": 'x"y'}


def test_canonical_dumps_escapes_control_characters():
    import json

    for text in ("a\nb\t\x00", "\x1f\r\x08\x0c", 'q"\\', "plain ascii", "caf\u00e9"):
        out = ser.dumps_canonical({"k": text})
        assert json.loads(out) == {"k": text}
    assert ser.dumps_canonical("a\nb\t\x00") == '"a\\nb\\t\\u0000"'
    # ordinary strings are written as before: only quote and backslash escaped
    assert ser.dumps_canonical('x"y\\z caf\u00e9') == '"x\\"y\\\\z caf\u00e9"'


def test_element_json_round_trip():
    for alg in (ja.sym_real(2), ja.herm_complex(2), ja.lorentz(3)):
        rng = np.random.default_rng(1)
        x = ja.random_element(alg, rng)
        back = ser.element_from_dict(ser.element_to_dict(x))
        assert back.algebra == alg
        assert np.array_equal(back.coords, x.coords)


def test_element_csv_round_trip():
    for alg in (ja.sym_real(3), ja.herm_complex(2), ja.lorentz(2)):
        rng = np.random.default_rng(2)
        x = ja.random_element(alg, rng)
        row = ser.element_to_csv_row(x)
        back = ser.element_from_csv_row(row)
        assert back.algebra == alg
        assert np.array_equal(back.coords, x.coords)


def test_batch_csv_round_trip():
    alg = ja.sym_real(2)
    batch = dist.sample_wishart(dist.WishartParams(2.0, ja.identity(alg)), 5, 20)
    text = ser.batch_to_csv(batch)
    header = text.splitlines()[0].split(",")
    assert header == ["kind", "rank", "dim", "d1", "d2", "s1_2"]
    alg_back, coords = ser.batch_coords_from_csv(text)
    assert alg_back == alg
    assert np.array_equal(coords, batch.coords)


def test_batch_metadata_fields(mcmc_settings):
    alg = ja.lorentz(2)
    mcmc_settings(BURN_IN=200, THIN=2, CHAINS=4)
    batch = dist.sample_wishart(dist.WishartParams(2.0, ja.identity(alg)), 5, 50)
    meta = ser.batch_metadata(batch)
    assert meta["schema_version"] == ser.SCHEMA_VERSION
    assert meta["kind"] == "lorentz"
    assert meta["method"] == "mcmc"
    assert meta["seed"] == 5
    assert meta["mcmc"]["acceptance_rate"] > 0
    assert meta["coordinates"] == ["x0", "x1", "x2"]


def test_reports_csv_shape():
    from symcone import verification as ver

    r = ver.check_hua(ja.sym_real(2), n=50, seed=0)
    text = ser.reports_to_csv([r])
    lines = text.strip().splitlines()
    assert lines[0].startswith("check,kind,rank,dim,")
    assert lines[1].startswith("hua-identity,sym-real,2,3,50,")


def test_reports_csv_error_cell_is_empty_or_quoted():
    from symcone import verification as ver

    r = ver.check_hua(ja.sym_real(2), n=50, seed=0)
    error = 'left the cone, at "x", twice'
    text = ser.reports_to_csv([r, replace(r, passed=False, error=error)])
    lines = text.splitlines()
    assert lines[0].endswith(",tolerance,error")
    assert lines[1].endswith(",1e-08,")
    assert lines[2].endswith(',1e-08,"left the cone, at ""x"", twice"')
    rows = list(csv.DictReader(text.splitlines()))
    assert [row["error"] for row in rows] == ["", error]


# ---------------------------------------------------------------------------
# Whole-batch serializers against the per-float reference
# ---------------------------------------------------------------------------

def _reference_batch_to_csv(batch):
    alg = batch.algebra
    header = ["kind", "rank", "dim"] + ja.coordinate_names(alg)
    lines = [",".join(header)]
    prefix = f"{alg.kind.value},{alg.rank},{alg.dim}"
    for row in batch.coords:
        lines.append(prefix + "," + ",".join(format(float(c), ".17g") for c in row))
    return "\n".join(lines) + "\n"


def _reference_batch_to_json(batch):
    payload = ser.batch_metadata(batch)
    payload["samples"] = [[float(c) for c in row] for row in batch.coords]
    return ser.dumps_canonical(payload) + "\n"


def _reference_element_from_csv_row(row):
    cells = row.strip().split(",")
    alg = ja.descriptor_from_dict({"kind": cells[0], "rank": int(cells[1]), "dim": int(cells[2])})
    return ja.Element(alg, np.array([float(c) for c in cells[3 : 3 + alg.dim]]))


def _reference_batch_coords_from_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [_reference_element_from_csv_row(ln) for ln in lines[1:]]
    return rows[0].algebra, np.stack([r.coords for r in rows])


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 2.2250738585072014e-308, 1.0, -1.0 / 3.0)


def _bit_pattern_coords(n, dim, seed):
    """Random IEEE bit patterns (non-finite ones replaced) plus the special values."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 2**64, size=(n, dim), dtype=np.uint64).view(np.float64)
    bad = ~np.isfinite(coords)
    coords[bad] = rng.standard_normal(int(bad.sum()))
    flat = coords.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size // 2, 4 * len(_SPECIAL_FLOATS)), replace=False)
    flat[picks] = np.resize(_SPECIAL_FLOATS, picks.size)
    return coords


_KINDS = [ja.sym_real(1), ja.sym_real(2), ja.sym_real(3), ja.herm_complex(2),
          ja.herm_complex(3), ja.lorentz(2), ja.lorentz(5)]


def _block_sizes(block):
    return [1, block - 1, block, block + 1, 2 * block + 7]


def _assert_same_text(got, want):
    # line by line, so that a failure prints one line, not a diff of megabytes
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"first difference on line {k + 1}"
    assert len(got_lines) == len(want_lines)


def _assert_matches_reference(alg, n):
    coords = _bit_pattern_coords(n, alg.dim, seed=n + 31 * alg.dim)
    batch = dist.SampleBatch(alg, {"p": 2.0}, coords, 7, "bartlett")
    csv_text = ser.batch_to_csv(batch)
    _assert_same_text(csv_text, _reference_batch_to_csv(batch))
    _assert_same_text(ser.batch_to_json(batch), _reference_batch_to_json(batch))
    alg_back, back = ser.batch_coords_from_csv(csv_text)
    ref_alg, ref = _reference_batch_coords_from_csv(csv_text)
    assert alg_back == ref_alg == alg
    assert back.shape == (n, alg.dim)
    assert back.tobytes() == ref.tobytes() == coords.tobytes()


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("alg", _KINDS, ids=lambda a: f"{a.kind.value}-{a.dim}")
def test_batch_serializers_match_per_float_reference(alg, index, monkeypatch):
    # a small block puts the same block boundaries within cheap sizes
    monkeypatch.setattr(ser, "ROW_BLOCK", 64)
    _assert_matches_reference(alg, _block_sizes(ser.ROW_BLOCK)[index])


@pytest.mark.parametrize("n", _block_sizes(ser.ROW_BLOCK))
def test_batch_serializers_match_reference_at_the_default_block(n):
    _assert_matches_reference(ja.sym_real(2), n)


def test_batch_json_reads_back_with_the_json_module():
    import json

    coords = _bit_pattern_coords(5, 3, seed=4)
    batch = dist.SampleBatch(ja.sym_real(2), {"p": 2.0}, coords, 7, "mcmc", {"thin": 2})
    payload = json.loads(ser.batch_to_json(batch))
    assert list(payload)[-2:] == ["mcmc", "samples"]
    # equal bits: -0.0 is written as "-0.0", which keeps its sign
    assert np.signbit(coords[coords == 0.0]).any()
    assert np.asarray(payload["samples"], dtype=float).tobytes() == coords.tobytes()


def test_empty_batch_writes_header_and_empty_samples():
    batch = dist.SampleBatch(ja.lorentz(2), {}, np.zeros((0, 3)), 1, "mcmc")
    assert ser.batch_to_csv(batch) == _reference_batch_to_csv(batch) == "kind,rank,dim,x0,x1,x2\n"
    assert ser.batch_to_json(batch) == _reference_batch_to_json(batch)


def test_element_csv_row_matches_reference():
    for alg in _KINDS:
        x = ja.Element(alg, _bit_pattern_coords(1, alg.dim, seed=alg.dim)[0])
        row = ser.element_to_csv_row(x)
        assert row == _reference_batch_to_csv(
            dist.SampleBatch(alg, {}, x.coords[None, :], 0, "")).splitlines()[1]
        assert ser.element_from_csv_row(row).coords.tobytes() == x.coords.tobytes()


# ---------------------------------------------------------------------------
# Malformed CSV input
# ---------------------------------------------------------------------------

def _sym_real_2_csv():
    coords = np.array([[2.0, 1.0, 0.5], [3.0, 4.0, -0.25], [1.5, 2.5, 0.125]])
    return ser.batch_to_csv(dist.SampleBatch(ja.sym_real(2), {}, coords, 0, "bartlett")), coords


def test_csv_reader_accepts_crlf_and_blank_lines():
    text, coords = _sym_real_2_csv()
    lines = text.splitlines()
    messy = "\r\n".join([lines[0], "", lines[1], lines[2], "", lines[3]]) + "\r\n\r\n"
    alg, back = ser.batch_coords_from_csv(messy)
    assert alg == ja.sym_real(2)
    assert np.array_equal(back, coords)


def test_csv_reader_rejects_a_row_of_another_algebra():
    text, _ = _sym_real_2_csv()
    lines = text.splitlines()
    lines[3] = "lorentz,2,3" + lines[3][len("sym-real,2,3"):]
    with pytest.raises(ValueError, match="line 4: prefix 'lorentz,2,3'"):
        ser.batch_coords_from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("d, field", [
    ({"kind": "sym-real", "rank": 2, "dim": 5, "coords": [1.0, 1.0, 0.0]}, "dim 5"),
    ({"kind": "lorentz", "rank": 7, "dim": 4, "coords": [2.0, 0.0, 0.0, 0.0]}, "rank 7"),
    ({"kind": "herm-complex", "rank": 2, "dim": 3, "coords": [1.0, 1.0, 0.0, 0.0]}, "dim 3"),
])
def test_element_reader_rejects_a_rank_or_dim_its_kind_contradicts(d, field):
    # the kind reads one of the two fields; the other was ignored
    with pytest.raises(ValueError, match=f"^{field} contradicts"):
        ser.element_from_dict(d)


@pytest.mark.parametrize("prefix, field", [("sym-real,2,5", "dim 5"), ("lorentz,7,3", "rank 7")])
def test_csv_reader_rejects_a_first_row_prefix_its_kind_contradicts(prefix, field):
    text, _ = _sym_real_2_csv()
    lines = text.splitlines()
    lines[1:] = [prefix + line[len("sym-real,2,3"):] for line in lines[1:]]
    with pytest.raises(ValueError, match=f"line 2: no valid kind,rank,dim prefix \\({field} "):
        ser.batch_coords_from_csv("\n".join(lines) + "\n")


def test_csv_reader_rejects_an_extra_cell():
    text, _ = _sym_real_2_csv()
    lines = text.splitlines()
    lines[2] += ",9.5"
    with pytest.raises(ValueError, match="line 3: 7 cells, expected 6"):
        ser.batch_coords_from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("header", ["kind,rank,dim,d1,s1_2,d2", "kind,rank,dim,a,b,c",
                                    "kind,rank,dim,d1,d2"])
def test_csv_reader_rejects_a_header_that_does_not_match(header):
    text, _ = _sym_real_2_csv()
    lines = text.splitlines()
    lines[0] = header
    with pytest.raises(ValueError, match="line 1: header"):
        ser.batch_coords_from_csv("\n".join(lines) + "\n")


def test_csv_reader_rejects_a_file_without_rows():
    with pytest.raises(ValueError, match="no sample rows"):
        ser.batch_coords_from_csv("kind,rank,dim,d1,d2,s1_2\n")


def _csv_with_row(cell, at):
    """A 40-row sym-real r=2 CSV with blank lines, ``cell`` in data row ``at``.

    Returns the text and the 1-based file line of that row.
    """
    coords = np.arange(120.0).reshape(40, 3) + 1.0
    lines = ser.batch_to_csv(dist.SampleBatch(ja.sym_real(2), {}, coords, 0, "bartlett"))
    lines = lines.splitlines()
    lines[1 + at] = lines[1 + at].rsplit(",", 1)[0] + "," + cell
    # a blank line after the header and one after data row 10
    lines = lines[:1] + [""] + lines[1:12] + ["  "] + lines[12:]
    return "\n".join(lines) + "\n", 1 + 1 + at + 1 + (at > 10)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("at", [0, 17, 39])
def test_csv_reader_rejects_non_finite_cells(cell, at):
    text, line = _csv_with_row(cell, at)
    with pytest.raises(ValueError, match=f"line {line}: coordinates must be finite"):
        ser.batch_coords_from_csv(text)


@pytest.mark.parametrize("cell", ["x", "", "1_0", "0x1p3"])
@pytest.mark.parametrize("at", [0, 10, 11, 39])
def test_csv_reader_names_the_file_line_of_an_unparsable_cell(cell, at):
    text, line = _csv_with_row(cell, at)
    with pytest.raises(ValueError, match=f"line {line}: a coordinate is not a number"):
        ser.batch_coords_from_csv(text)


def test_element_csv_row_rejects_non_finite_cells():
    with pytest.raises(ValueError, match="line 1: coordinates must be finite"):
        ser.element_from_csv_row("lorentz,2,3,1,inf,0")


def test_negative_zero_is_written_as_a_float():
    import json

    assert ser.format_float(-0.0) == "-0.0"
    assert ser.format_float(0.0) == "0"
    text = ser.dumps_canonical({"x": [-0.0, 0.0, -1e-300]})
    assert text == '{"x": [-0.0, 0, -1e-300]}'
    assert math.copysign(1.0, json.loads(text)["x"][0]) == -1.0


def test_batch_json_writes_negative_zero_only_where_it_is(monkeypatch):
    # -0.0 in the second block only; the first block's bytes must not change
    monkeypatch.setattr(ser, "ROW_BLOCK", 2)
    coords = np.array([[0.0, -0.5, 1e-5], [-1e-5, 2.0, 0.0],
                       [-0.0, -0.25, 3.0], [1.0, -0.0, -0.0]])
    batch = dist.SampleBatch(ja.sym_real(2), {}, coords, 0, "bartlett")
    text = ser.batch_to_json(batch)
    assert text.endswith('"samples": [[0, -0.5, 1.0000000000000001e-05], '
                         '[-1.0000000000000001e-05, 2, 0], [-0.0, -0.25, 3], '
                         '[1, -0.0, -0.0]]}\n')
    assert text == _reference_batch_to_json(batch)


# ---------------------------------------------------------------------------
# Round trips over arbitrary finite doubles (property-based)
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_finite = hyp_st.one_of(hyp_st.sampled_from(_EDGE_FLOATS),
                        hyp_st.floats(allow_nan=False, allow_infinity=False))


@hyp_st.composite
def _elements(draw):
    alg = draw(hyp_st.sampled_from(_KINDS))
    return ja.Element(alg, np.array(draw(hyp_st.lists(_finite, min_size=alg.dim,
                                                      max_size=alg.dim))))


@hyp_st.composite
def _batches(draw):
    alg = draw(hyp_st.sampled_from(_KINDS))
    coords = draw(hyp_np.arrays(np.float64, (draw(hyp_st.integers(1, 9)), alg.dim),
                                elements=_finite))
    return dist.SampleBatch(alg, {"p": draw(_finite)}, coords, 0, "bartlett")


@settings(max_examples=60)
@given(_elements())
def test_element_round_trips_keep_every_bit(x):
    import json

    back = ser.element_from_csv_row(ser.element_to_csv_row(x))
    assert back.algebra == x.algebra and back.coords.tobytes() == x.coords.tobytes()
    back = ser.element_from_dict(json.loads(ser.dumps_canonical(ser.element_to_dict(x))))
    assert back.algebra == x.algebra and back.coords.tobytes() == x.coords.tobytes()


@settings(max_examples=60)
@given(_batches(), hyp_st.integers(1, 4))
def test_batch_round_trips_keep_every_bit(batch, block):
    import json

    with mock.patch.object(ser, "ROW_BLOCK", block):
        csv_text = ser.batch_to_csv(batch)
        json_text = ser.batch_to_json(batch)
    alg, coords = ser.batch_coords_from_csv(csv_text)
    assert alg == batch.algebra and coords.tobytes() == batch.coords.tobytes()
    payload = json.loads(json_text)
    samples = np.asarray(payload["samples"], dtype=float).reshape(batch.coords.shape)
    assert samples.tobytes() == batch.coords.tobytes()
    assert math.copysign(1.0, payload["params"]["p"]) == math.copysign(1.0, batch.params["p"])
    assert json_text == _reference_batch_to_json(batch)
