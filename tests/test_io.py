"""Coefficient file format and JSON document round trips."""

import os
import re
import shutil
import tempfile
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spharcp.errors import ParseError
from spharcp.io import (
    COEFF_HEADER,
    load_json,
    read_coefficients,
    read_result,
    read_truth,
    truth_to_scenario,
    write_coefficients,
    write_result,
    write_truth,
)
from spharcp.bench import make_scenario
from spharcp.simulate import simulate
from spharcp.types import CoefficientSeries

from conftest import fifo_fed, random_series


class TestCoefficientFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        series = random_series(n=6, L=2, seed=1)
        meta = {"scenario": "custom", "seed": 1, "n": 6, "L": 2}
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_coefficients(path_a, series, meta)
        parsed, parsed_meta = read_coefficients(path_a)
        write_coefficients(path_b, parsed, parsed_meta)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_values_round_trip_exactly(self, tmp_path):
        series = random_series(n=5, L=3, seed=2)
        path = tmp_path / "c.csv"
        write_coefficients(path, series)
        parsed, meta = read_coefficients(path)
        assert meta is None
        assert np.array_equal(parsed.data, series.data)

    def test_row_count(self, tmp_path):
        series = random_series(n=5, L=1, seed=3)
        path = tmp_path / "d.csv"
        write_coefficients(path, series)
        rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == COEFF_HEADER
        assert len(rows) - 1 == 5 * 1 * 1

    def test_accepts_external_file_without_config(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("t,ell,m,value\n1,0,0,1.5\n2,0,0,-0.25\n")
        series, meta = read_coefficients(path)
        assert meta is None
        assert series.n == 2 and series.L == 1
        assert series.data[0, 0] == 1.5

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ell,m,value\n1,0,0,1.5\n2,0,zero,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            read_coefficients(path)

    def test_truncated_grid_rejected(self, tmp_path):
        path = tmp_path / "trunc.csv"
        path.write_text("t,ell,m,value\n1,1,-1,0.1\n1,1,0,0.2\n1,1,1,0.3\n")
        # L = 2 implies 4 slots per timestamp; the (1, 0, 0) row is missing
        with pytest.raises(ParseError):
            read_coefficients(path)

    def test_duplicate_slot_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,ell,m,value\n1,0,0,0.1\n1,0,0,0.2\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_coefficients(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,0,0,0.1\n")
        with pytest.raises(ParseError, match="header"):
            read_coefficients(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_coefficients(tmp_path / "nope.csv")

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "oor.csv"
        path.write_text("t,ell,m,value\n1,0,1,0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_coefficients(path)


class TestReaderContract:
    """What the reader accepts and how it reports a bad file."""

    @staticmethod
    def _read(tmp_path, text, name="f.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return read_coefficients(path)

    def test_bad_row_line_counts_config_comment(self, tmp_path):
        text = '# spharcp-config {"seed": 1}\nt,ell,m,value\n1,0,0,1.5\n2,0,x,0.5\n'
        with pytest.raises(ParseError, match=r"^line 4: "):
            self._read(tmp_path, text)

    def test_bad_row_line_counts_other_comment(self, tmp_path):
        text = "# made elsewhere\nt,ell,m,value\n1,0,0,1.5\n2,0,0,0.5x\n"
        with pytest.raises(ParseError, match=r"^line 4: "):
            self._read(tmp_path, text)

    def test_bad_row_line_counts_blank_lines(self, tmp_path):
        text = "t,ell,m,value\n1,0,0,1.5\n\n\n2,0,0,oops\n"
        with pytest.raises(ParseError, match=r"^line 5: "):
            self._read(tmp_path, text)

    @pytest.mark.parametrize("row", ["2,0,0", "2,0,0,0.5,7"])
    def test_wrong_field_count_reports_line(self, tmp_path, row):
        text = f"t,ell,m,value\n1,0,0,1.5\n\n{row}\n3,0,0,1.0\n"
        with pytest.raises(ParseError, match=r"^line 4: "):
            self._read(tmp_path, text)

    def test_float_in_integer_field_reports_line(self, tmp_path):
        text = "t,ell,m,value\n1,0,0,1.5\n2.0,0,0,0.5\n"
        with pytest.raises(ParseError, match=r"^line 3: "):
            self._read(tmp_path, text)

    def test_out_of_range_after_blank_line_reports_line(self, tmp_path):
        text = "t,ell,m,value\n1,0,0,1.5\n\n2,1,2,0.5\n"
        with pytest.raises(ParseError, match=r"^line 4: .*out of range"):
            self._read(tmp_path, text)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["1,0,0,1.0", "2,0,-1,1.0", "3,0,0,1.0", "4,0,0,x"], 3),
            (["1,0,0,1.0", "2,0,0,x", "3,0,0,1.0", "4,0,-1,1.0"], 3),
        ],
    )
    def test_first_bad_row_wins_whatever_its_fault(self, tmp_path, rows, line):
        text = "t,ell,m,value\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match=rf"^line {line}: "):
            self._read(tmp_path, text)

    def test_crlf_file_parses_to_same_array(self, tmp_path):
        series = random_series(n=4, L=2, seed=5)
        meta = {"scenario": "custom", "seed": 5}
        path = tmp_path / "lf.csv"
        write_coefficients(path, series, meta)
        crlf = path.read_bytes().replace(b"\n", b"\r\n")
        parsed, parsed_meta = self._read(tmp_path, crlf.decode(), "crlf.csv")
        assert parsed_meta == meta
        assert np.array_equal(parsed.data, series.data)

    def test_rows_in_any_order_give_the_sorted_array(self, tmp_path):
        series = random_series(n=5, L=3, seed=6)
        path = tmp_path / "sorted.csv"
        write_coefficients(path, series)
        header, *rows = path.read_text().splitlines()
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        assert shuffled != rows
        parsed, _ = self._read(tmp_path, "\n".join([header, *shuffled]) + "\n", "shuffled.csv")
        assert np.array_equal(parsed.data, series.data)

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
    def test_header_without_rows(self, tmp_path, body):
        with pytest.raises(ParseError, match="no coefficient rows found"):
            self._read(tmp_path, "t,ell,m,value\n" + body)

    def test_duplicate_names_first_repeated_record(self, tmp_path):
        rows = ["1,0,0,1.0", "1,1,-1,1.0", "1,1,0,1.0", "1,1,1,1.0",
                "1,1,0,2.0", "1,0,0,2.0", "1,1,-1,2.0"]
        text = "t,ell,m,value\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match=r"duplicate record for \(t=1, ell=1, m=0\)"):
            self._read(tmp_path, text)

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            self._read(tmp_path, "t,ell,m,value\n1,0,0,nan\n")

    @pytest.mark.parametrize("row", ["1000000000000000,0,0,1.0", "1,1000000000,0,1.0"],
                             ids=["huge-t", "huge-ell"])
    def test_huge_index_is_an_incomplete_grid_without_allocating_it(self, tmp_path, row):
        # the grid's size is checked against the row count before any
        # (n, L*L) array is sized: 10^15 rows or 10^18 slots per row
        with pytest.raises(ParseError, match="^incomplete coefficient grid"):
            self._read(tmp_path, f"t,ell,m,value\n{row}\n")

    def test_undecodable_file_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"t,ell,m,value\n1,0,0,1.5\n2,0,0,\xff\n")
        with pytest.raises(ParseError, match=r"^line 3: "):
            read_coefficients(path)


def _bitwise_equal(a, b) -> bool:
    # -0.0 and 0.0 are told apart
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestReadAcrossNumpyBuffers:
    """A file of 10^5 rows spans many of numpy's read buffers when its rows
    are parsed from the path."""

    META = {"scenario": "custom", "seed": 29}

    @pytest.fixture(scope="class")
    def series(self):
        return random_series(n=6250, L=4, seed=29)

    @staticmethod
    def _write(path, series, meta, newline, bad_row=None) -> int:
        """Write ``series`` to ``path``; ``bad_row`` replaces the row 5 lines
        from the end. Returns that row's 1-based line number."""
        write_coefficients(path, series, meta)
        lines = path.read_bytes().split(b"\n")
        assert len(lines) > 100_000
        at = len(lines) - 5
        if bad_row is not None:
            lines[at] = bad_row
        path.write_bytes(newline.join(lines))
        return at + 1

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("with_meta", [True, False], ids=["config", "no-config"])
    def test_parses_bitwise(self, tmp_path, series, newline, with_meta):
        meta = self.META if with_meta else None
        self._write(tmp_path / "big.csv", series, meta, newline)
        parsed, parsed_meta = read_coefficients(tmp_path / "big.csv")
        assert parsed_meta == meta
        assert _bitwise_equal(parsed.data, series.data)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "bad_row, message",
        [(b"6250,1,x,0.5", "expected 4 comma-separated fields"),
         (b"6250,1,0,\xff", "is not UTF-8 text")],
        ids=["malformed", "not-utf8"],
    )
    def test_bad_row_near_the_end_reports_its_line(
        self, tmp_path, series, newline, bad_row, message
    ):
        line = self._write(tmp_path / "big.csv", series, self.META, newline, bad_row)
        with pytest.raises(ParseError, match=rf"^line {line}: .*{message}"):
            read_coefficients(tmp_path / "big.csv")


class TestInputsReadThroughTheHandle:
    """Inputs that numpy's path opener would read wrongly parse like the
    plain ``.csv`` copy."""

    META = {"scenario": "custom", "seed": 8}

    @pytest.fixture
    def plain(self, tmp_path):
        # more rows than a pipe buffer holds
        series = random_series(n=200, L=4, seed=8)
        path = tmp_path / "plain.csv"
        write_coefficients(path, series, self.META)
        return path, series

    @staticmethod
    def _same(parsed, series):
        assert parsed[1] == TestInputsReadThroughTheHandle.META
        assert _bitwise_equal(parsed[0].data, series.data)

    @staticmethod
    def _read_fifo(tmp_path, data: bytes):
        """``read_coefficients`` of ``data`` written to a FIFO by a writer thread."""
        with fifo_fed(tmp_path / "series.fifo", data) as fifo:
            return read_coefficients(fifo)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo(self, tmp_path, plain):
        path, series = plain
        self._same(self._read_fifo(tmp_path, path.read_bytes()), series)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize(
        "rows, message",
        [(b"2,0,x,1\n", r"^line 3: expected 4 comma-separated fields"),
         (b"2,0,0,\xff\n", r"^line 3: .*series\.fifo is not UTF-8 text")],
        ids=["malformed", "not-utf8"],
    )
    def test_bad_row_through_a_fifo(self, tmp_path, rows, message):
        # a FIFO is copied to a regular file first, so a bad byte names its line too
        with pytest.raises(ParseError, match=message):
            self._read_fifo(tmp_path, b"t,ell,m,value\n1,0,0,1.5\n" + rows)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize(
        "newline, after_header", [(b"\r", b""), (b"\r\n", b"\r\n")], ids=["cr", "crlf-blank"]
    )
    def test_other_line_ends_from_a_file_and_a_fifo(self, tmp_path, plain, newline, after_header):
        # the header is read in text mode, so any newline convention ends it
        path, series = plain
        header = COEFF_HEADER.encode() + newline
        data = path.read_bytes().replace(b"\n", newline).replace(header, header + after_header)
        (tmp_path / "ends.csv").write_bytes(data)
        self._same(read_coefficients(tmp_path / "ends.csv"), series)
        self._same(self._read_fifo(tmp_path, data), series)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize(
        "row, message",
        [(b"", None), (b"201,0,x,1\n", "expected 4 comma-separated fields"),
         (b"201,0,0,\xff\n", "is not UTF-8 text")],
        ids=["parses", "malformed", "not-utf8"],
    )
    def test_no_temporary_file_outlives_a_fifo_read(
        self, tmp_path, plain, monkeypatch, row, message
    ):
        path, series = plain
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        made = []
        mkdtemp = tempfile.mkdtemp

        def recorded_mkdtemp(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recorded_mkdtemp)
        data = path.read_bytes() + row
        if message is None:
            self._same(self._read_fifo(tmp_path, data), series)
        else:
            line = data.count(b"\n")
            with pytest.raises(ParseError, match=rf"^line {line}: .*{message}"):
                self._read_fifo(tmp_path, data)
        # the FIFO was copied into a directory under tmp, and that is gone
        assert len(made) == 1 and os.path.dirname(made[0]) == str(tmp)
        assert os.listdir(tmp) == []

    @pytest.mark.parametrize("name", ["series.csv.gz", "series.bz2", "series.xz", "series.lzma"])
    def test_plain_text_under_a_compression_suffix(self, tmp_path, plain, name):
        path, series = plain
        shutil.copyfile(path, tmp_path / name)
        self._same(read_coefficients(tmp_path / name), series)

    def test_bytes_path(self, plain):
        path, series = plain
        self._same(read_coefficients(os.fsencode(path)), series)

    def test_link_to_a_compression_suffix(self, tmp_path, plain):
        # numpy would open the resolved name, so its suffix is the one that counts
        path, series = plain
        shutil.copyfile(path, tmp_path / "series.gz")
        (tmp_path / "link.csv").symlink_to(tmp_path / "series.gz")
        self._same(read_coefficients(tmp_path / "link.csv"), series)

    def test_relative_name_that_reads_as_a_url(self, tmp_path, plain, monkeypatch):
        # "http://host/series.csv" names the local file http:/host/series.csv
        path, series = plain
        (tmp_path / "http:" / "host").mkdir(parents=True)
        shutil.copyfile(path, tmp_path / "http:" / "host" / "series.csv")
        monkeypatch.chdir(tmp_path)

        def no_network(*args, **kwargs):
            raise AssertionError("a local file was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        self._same(read_coefficients("http://host/series.csv"), series)


# Bytes the earlier per-row writer produced for FIXED_SERIES and FIXED_META: values across
# repr's exponent switches, a signed zero and the smallest subnormal.
FIXED_SERIES = CoefficientSeries(
    n=2,
    L=2,
    data=np.array(
        [
            [0.1, -0.0, 5e-324, 1e16],
            [1e-05, -2.5e-300, 123456789.125, 9999999999999998.0],
        ]
    ),
)
FIXED_META = {"scenario": "custom", "seed": 7, "note": "fixed"}
FIXED_BYTES = (
    b'# spharcp-config {"note": "fixed", "scenario": "custom", "seed": 7}\n'
    b"t,ell,m,value\n"
    b"1,0,0,0.1\n"
    b"1,1,-1,-0.0\n"
    b"1,1,0,5e-324\n"
    b"1,1,1,1e+16\n"
    b"2,0,0,1e-05\n"
    b"2,1,-1,-2.5e-300\n"
    b"2,1,0,123456789.125\n"
    b"2,1,1,9999999999999998.0\n"
)


def test_writer_bytes_match_the_recorded_format(tmp_path):
    path = tmp_path / "fixed.csv"
    write_coefficients(path, FIXED_SERIES, FIXED_META)
    assert path.read_bytes() == FIXED_BYTES
    write_coefficients(path, FIXED_SERIES)
    assert path.read_bytes() == FIXED_BYTES.split(b"\n", 1)[1]


_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-06,
    1.0000000000000002e-05, 1e16, 9999999999999998.0, 1.0000000000000002e16,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
]
_finite = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _series_and_meta(draw):
    n = draw(st.integers(1, 4))
    L = draw(st.integers(1, 3))
    values = draw(st.lists(_finite, min_size=n * L * L, max_size=n * L * L))
    meta = draw(st.none() | st.just({"scenario": "custom", "n": n, "L": L}))
    return CoefficientSeries(n=n, L=L, data=np.array(values).reshape(n, L * L)), meta


@settings(max_examples=60, deadline=None)
@given(_series_and_meta())
def test_write_read_rewrite_is_exact(case):
    series, meta = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_coefficients(first, series, meta)
        parsed, parsed_meta = read_coefficients(first)
        write_coefficients(second, parsed, parsed_meta)
        assert second.read_bytes() == first.read_bytes()
    assert parsed_meta == meta
    assert (parsed.n, parsed.L) == (series.n, series.L)
    # bitwise, so -0.0 and 0.0 are told apart
    assert np.array_equal(parsed.data.view(np.int64), series.data.view(np.int64))


class TestTruthDocument:
    def test_truth_round_trip_rebuilds_scenario(self, tmp_path):
        spec = make_scenario("table1-balanced", q=8, d=2, seed=11)
        path = tmp_path / "truth.json"
        write_truth(path, spec, scenario_meta={"scenario": "table1-balanced"})
        doc = read_truth(path)
        rebuilt = truth_to_scenario(doc)
        assert rebuilt.partition.change_points == spec.partition.change_points
        assert np.array_equal(
            rebuilt.segments[0].coeffs.phi, spec.segments[0].coeffs.phi
        )
        assert np.array_equal(
            rebuilt.segments[1].noise_spectrum, spec.segments[1].noise_spectrum
        )
        # the rebuilt scenario simulates to the identical series
        assert np.array_equal(simulate(rebuilt).data, simulate(spec).data)

    def test_truth_round_trip_is_byte_identical(self, tmp_path):
        # every real array is read back from JSON lists, int entries included
        doc = {
            "n": 40, "L": 2, "p": 1, "change_points": [20], "burn_in": 10, "seed": 3,
            "segments": [
                {"phi": [[0.5], [-0.25]], "noise_spectrum": [1, 0.5],
                 "intercept": [1.5, 0, -2, 3]},
                {"phi": [[-0.5], [0]], "noise_spectrum": [1.0, 2.0], "intercept": None},
            ],
        }
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_truth(first, truth_to_scenario(doc))
        write_truth(second, truth_to_scenario(read_truth(first)))
        assert first.read_bytes() == second.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "other"}')
        with pytest.raises(ParseError):
            read_truth(path)


class TestJsonDocuments:
    """Every JSON document is read by ``load_json``, once, as bytes."""

    @pytest.fixture
    def documents(self, tmp_path):
        """A truth and a result document, by reader, with the key each one must keep."""
        paths = {name: tmp_path / f"{name}.json" for name in ("truth", "result")}
        write_truth(paths["truth"], make_scenario("table1-balanced", q=8, d=2, seed=1))
        write_result(paths["result"], {"n": 200, "change_points": [100]})
        return [
            (read_truth, paths["truth"], ("change_points", [100])),
            (read_result, paths["result"], ("change_points", [100])),
        ]

    def test_bytes_path(self, documents):
        for reader, path, (key, value) in documents:
            assert reader(os.fsencode(path)) == reader(path)
            assert reader(os.fsencode(path))[key] == value

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_document_through_a_fifo(self, tmp_path, documents):
        reader, path, _ = documents[1]
        with fifo_fed(tmp_path / "result.fifo", path.read_bytes()) as fifo:
            assert reader(fifo) == reader(path)

    def test_unreadable_and_invalid_json_name_the_path(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(ParseError, match=rf"^cannot read {re.escape(str(path))}: "):
            load_json(path)
        path.write_text("[1,")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: invalid JSON: "):
            load_json(path)
        path.write_text("[1, 2]")
        assert load_json(os.fsencode(path)) == [1, 2]
