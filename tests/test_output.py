"""Serialization primitives: CSV dialect and JSON documents."""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from msmlab.output import (
    SCHEMA_VERSION,
    csv_lines,
    fmt_float,
    json_document,
    write_csv,
    write_json,
)


class TestCsv:
    def test_crlf_line_endings_throughout(self):
        text = csv_lines(("a", "b"), [(1, 2), (3, 4)])
        assert text == "a,b\r\n1,2\r\n3,4\r\n"

    def test_float_cells_round_trip_exactly(self):
        values = [0.1, 1 / 3, 1e-300, -math.pi, 2**53 + 1.0]
        text = csv_lines(("x",), [(v,) for v in values])
        back = [float(line) for line in text.split("\r\n")[1:-1]]
        assert back == values

    def test_fmt_float_is_17g(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1.0) == "1"

    def test_special_cells(self):
        text = csv_lines(("x",), [(True,), (False,), (None,), ("plain",)])
        assert text.split("\r\n")[1:-1] == ["true", "false", "", "plain"]

    def test_quoting_matches_stdlib_reader(self):
        awkward = ['comma,inside', 'quote"inside', "newline\ninside", "cr\rinside"]
        text = csv_lines(("s",), [(s,) for s in awkward])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["s"]
        assert [row[0] for row in parsed[1:]] == awkward

    def test_write_csv_no_newline_translation(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ("a",), [(1,)])
        raw = path.read_bytes()
        assert raw == b"a\r\n1\r\n"
        assert b"\r\r" not in raw


class TestJson:
    def test_document_shape(self):
        doc = json.loads(json_document({"n": 4, "alpha": 0.5}, result=[1, 2]))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["config"] == {"n": 4, "alpha": 0.5}
        assert doc["result"] == [1, 2]

    def test_keys_sorted_and_trailing_newline(self):
        text = json_document({"b": 1, "a": 2}, z=0, m=1)
        assert text.endswith("\n")
        assert text.index('"config"') < text.index('"m"') < text.index('"schema_version"') < text.index('"z"')
        inner = json.loads(text)["config"]
        assert list(inner) == ["a", "b"]

    def test_non_finite_becomes_null(self):
        doc = json.loads(json_document({}, vals=[math.nan, math.inf, -math.inf, 1.5]))
        assert doc["vals"] == [None, None, None, 1.5]

    def test_numpy_float64_is_a_float(self):
        doc = json.loads(json_document({}, v=[np.float64(0.1), np.float64(math.nan)]))
        assert doc["v"] == [0.1, None]
        assert csv_lines(("x",), [(np.float64(0.1),)]) == "x\r\n0.10000000000000001\r\n"

    def test_write_json_round_trip(self, tmp_path):
        path = write_json(tmp_path / "d.json", {"seed": 3}, ok=True)
        doc = json.loads(path.read_text())
        assert doc["config"]["seed"] == 3
        assert doc["ok"] is True


class TestDeterminism:
    def test_same_rows_same_bytes(self, tmp_path):
        rows = [(k, math.sin(k)) for k in range(50)]
        a = write_csv(tmp_path / "a.csv", ("k", "v"), rows).read_bytes()
        b = write_csv(tmp_path / "b.csv", ("k", "v"), rows).read_bytes()
        assert a == b

    def test_rejects_nothing_silently(self):
        with pytest.raises(TypeError):
            csv_lines(("x",), [(object(),)])

    @pytest.mark.parametrize(
        "value",
        [complex(1.5, -2.5), np.arange(3.0), np.int64(3), np.bool_(True)],
        ids=["complex", "array", "int64", "bool_"],
    )
    def test_unwritten_types_raise(self, value):
        # no command writes these, so neither encoder has a form for them
        with pytest.raises(TypeError):
            csv_lines(("x",), [(value,)])
        with pytest.raises(TypeError):
            json_document({}, v=value)
