"""Round trips and determinism of the JSON/CSV forms."""

import numpy as np

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


def test_batch_metadata_fields():
    alg = ja.lorentz(2)
    batch = dist.sample_wishart(
        dist.WishartParams(2.0, ja.identity(alg)), 5, 50,
        mcmc=dist.McmcConfig(burn_in=200, thin=2, chains=4),
    )
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
