"""File formats: coefficient tables, truth sidecars, result and metrics documents.

The coefficient format is plain comma-separated text with one record per
line (``t,ell,m,value``, 1-based t, written sorted by key, read in any
order) behind an optional single-line config comment, so files are
language-neutral and diff-able. Everything else is JSON with a ``kind``
tag and an embedded copy of the configuration that produced the file.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from spharcp.errors import ConfigError, ParseError
from spharcp.simulate import ScenarioSpec
from spharcp.types import (
    ArCoefficients,
    CoefficientSeries,
    DetectorConfig,
    Partition,
    SegmentSpec,
    slot_index,
)

CONFIG_PREFIX = "# spharcp-config "
COEFF_HEADER = "t,ell,m,value"


def _dumps_config(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@contextmanager
def _writing(path):
    """``path`` opened for writing UTF-8 text; an ``OSError`` while opening
    or writing it is a ``ConfigError`` naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_coefficients(path, series: CoefficientSeries, meta: dict | None = None) -> None:
    """Write a coefficient series, optionally embedding a config comment.

    One ``%r`` row template covers every (ell, m) slot of a timestamp, so
    each timestamp is a single string format of its row; ``%r`` of a
    Python float is the shortest round-trip decimal.
    """
    slots = [f",{ell},{m},%r\n" for ell in range(series.L) for m in range(-ell, ell + 1)]
    with _writing(path) as fh:
        if meta is not None:
            fh.write(CONFIG_PREFIX + _dumps_config(meta) + "\n")
        fh.write(COEFF_HEADER + "\n")
        for t, row in enumerate(series.data, start=1):
            prefix = str(t)
            fh.write((prefix + prefix.join(slots)) % tuple(row.tolist()))


_ROW_DTYPE = np.dtype([("t", np.int64), ("ell", np.int64), ("m", np.int64), ("value", np.float64)])


class _IndexOutOfRange(ValueError):
    """A row that parses but names no (t, ell, m) slot."""

    def __init__(self, row):
        super().__init__(f"index (t={row['t']}, ell={row['ell']}, m={row['m']}) out of range")


def _parse_rows(source, skiprows: int = 0) -> np.ndarray:
    """Parse ``t,ell,m,value`` rows from a path or a list of lines.

    The first ``skiprows`` lines and blank lines are skipped. Raises
    ValueError for a row that is not three integers and a float, or whose
    index is out of range. Every row is checked on its own, so a set of
    lines fails exactly when one of its lines fails alone.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(
            source, delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1,
            skiprows=skiprows, encoding="utf-8",
        )
    ell, m = rows["ell"], rows["m"]
    bad = (rows["t"] < 1) | (ell < 0) | (m < -ell) | (m > ell)
    if bad.any():
        raise _IndexOutOfRange(rows[np.argmax(bad)])
    return rows


def _bad_row_error(lines: list[str], first_lineno: int) -> ParseError:
    """Name the first of ``lines`` that ``_parse_rows`` rejects, by halving.

    ``lines`` must contain a bad row; ``first_lineno`` is the 1-based line
    number of ``lines[0]`` in the file.
    """
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    try:
        _parse_rows(lines[lo:hi])
    except _IndexOutOfRange as exc:
        return ParseError(f"line {first_lineno + lo}: {exc}")
    except ValueError:
        pass
    return ParseError(
        f"line {first_lineno + lo}: expected 4 comma-separated fields, three integers "
        f"t,ell,m and a float value; got {lines[lo].rstrip()!r}"
    )


def _decode(raw: bytes, path) -> str:
    """``raw``, read from ``path``, as UTF-8 text; a bad byte is a ParseError naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # lines end as in text mode: LF, CRLF or CR
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"line {line}: {path} is not UTF-8 text: {exc.reason}") from exc


@contextmanager
def _regular_file(path):
    """The name of a regular file holding the bytes of ``path``, for ``np.loadtxt``.

    numpy reads a ``str`` path in chunks, but its path opener
    (``np.lib._datasource``) decompresses by suffix and fetches URLs, and a
    stream cannot be opened twice. A regular file under a ``str`` name is
    named by its resolved path (never a URL) unless that ends in a suffix
    numpy decompresses; any other input is copied byte for byte into a
    temporary directory, removed on exit.
    """
    with open(path, "rb") as fh:
        if isinstance(fh.name, str) and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            name = os.path.realpath(fh.name)
            if not name.endswith((".gz", ".bz2", ".xz", ".lzma")):
                yield name
                return
        with tempfile.TemporaryDirectory() as tmp:
            name = os.path.join(tmp, "rows.csv")
            with open(name, "wb") as copy:
                shutil.copyfileobj(fh, copy)
            yield name


def read_coefficients(path) -> tuple[CoefficientSeries, dict | None]:
    """Parse a coefficient file; returns the series and the embedded config, if any.

    Accepts externally produced files without the config comment, rows in
    any order, blank lines and CRLF or CR line ends. A regular file is read
    by its path: the config comment and the header in text mode, the rows
    by numpy, in chunks. A pipe, a FIFO, a bytes name or a name ending in
    ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` (plain text all the same) is
    first copied to a temporary file under ``TMPDIR``, which needs as much
    free space as the input. Raises ParseError with the offending line
    number for malformed rows and every undecodable byte, and for
    structurally incomplete files (missing or duplicate slots).
    """
    try:
        with _regular_file(path) as name, open(name, encoding="utf-8") as fh:
            try:
                meta = None
                line = fh.readline()
                lineno = 1
                if line.startswith("#"):
                    if line.startswith(CONFIG_PREFIX):
                        try:
                            meta = json.loads(line[len(CONFIG_PREFIX) :])
                        except json.JSONDecodeError as exc:
                            raise ParseError(f"line 1: bad config comment: {exc}") from exc
                    line = fh.readline()
                    lineno = 2
                if line.rstrip("\n") != COEFF_HEADER:
                    raise ParseError(f"line {lineno}: expected header {COEFF_HEADER!r}")
                try:
                    rows = _parse_rows(name, lineno)
                except ValueError as exc:
                    # numpy's reader reads past the header on its own handle
                    raise _bad_row_error(fh.readlines(), lineno + 1) from exc
            except UnicodeDecodeError as exc:
                # the codec saw one chunk: the line is counted in the whole file
                _decode(Path(name).read_bytes(), path)
                raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

    if rows.size == 0:
        raise ParseError("no coefficient rows found")
    n = int(rows["t"].max())
    L = int(rows["ell"].max()) + 1
    # checked before any (n, L*L) array is sized, so a huge index cannot
    # ask for one; with no duplicates, enough rows then fill every slot
    if rows.size < n * L * L:
        raise ParseError("incomplete coefficient grid: some (t, ell, m) slots missing")
    # row t-1, column slot_index(ell, m), of the flat (n, L*L) array
    slot = (rows["t"] - 1) * (L * L) + slot_index(rows["ell"], rows["m"])
    if (np.bincount(slot, minlength=n * L * L) > 1).any():
        order = np.argsort(slot, kind="stable")
        ranked = slot[order]
        row = rows[order[1:][ranked[1:] == ranked[:-1]].min()]
        raise ParseError(f"duplicate record for (t={row['t']}, ell={row['ell']}, m={row['m']})")
    data = np.empty(n * L * L)
    data[slot] = rows["value"]
    try:
        series = CoefficientSeries(n=n, L=L, data=data.reshape(n, L * L))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return series, meta


def _segment_to_json(seg: SegmentSpec) -> dict:
    return {
        "phi": seg.coeffs.phi.tolist(),
        "noise_spectrum": seg.noise_spectrum.tolist(),
        "intercept": None if seg.intercept is None else seg.intercept.tolist(),
    }


def _segments_from_json(segments, p: int) -> tuple[SegmentSpec, ...]:
    """The segment models of a truth document or a custom scenario config:
    a list of objects that each carry ``phi`` and ``noise_spectrum``, else a
    ``ConfigError`` naming ``segments``."""
    if not isinstance(segments, list):
        raise ConfigError(f"segments must be a list of objects, got {segments!r}")
    for obj in segments:
        if not (isinstance(obj, dict) and "phi" in obj and "noise_spectrum" in obj):
            raise ConfigError(
                f"segments entries must be objects with phi and noise_spectrum, got {obj!r}"
            )
    return tuple(
        SegmentSpec(
            coeffs=ArCoefficients(p=p, phi=obj["phi"]),
            noise_spectrum=obj["noise_spectrum"],
            intercept=obj.get("intercept"),
        )
        for obj in segments
    )


def write_truth(path, spec: ScenarioSpec, scenario_meta: dict | None = None) -> None:
    """Write the true partition and segment models of a simulated series."""
    doc = {
        "n": spec.n,
        "L": spec.L,
        "p": spec.p,
        "change_points": list(spec.partition.change_points),
        "segments": [_segment_to_json(seg) for seg in spec.segments],
        "burn_in": spec.burn_in,
        "seed": spec.seed,
        "junction": spec.junction,
        "scenario": scenario_meta,
    }
    _write_json(path, "spharcp-truth", doc)


def _write_json(path, kind: str, doc: dict) -> None:
    with _writing(path) as fh:
        fh.write(json.dumps({"kind": kind, **doc}, indent=2, sort_keys=True) + "\n")


def load_json(path):
    """The JSON value in ``path``, read once as bytes through ``open``, so a
    ``str``, ``bytes`` or path-like name, a pipe and a FIFO all work. A
    file that cannot be read, a byte that is not UTF-8 (named by its line)
    and invalid JSON are each a ``ParseError`` naming ``path``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(_decode(raw, path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _read_json(path, expected_kind: str, required: tuple[str, ...] = ()) -> dict:
    doc = load_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != expected_kind:
        raise ParseError(f"{path}: not a {expected_kind} document")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ParseError(f"{path}: {expected_kind} document lacks {', '.join(missing)}")
    return doc


def _check_partition(path, doc: dict) -> dict:
    """``doc`` once its ``n`` and ``change_points`` form a ``Partition``.

    ``Partition`` holds the rules (integers, change points a list inside
    (1, n), strictly increasing); a breach is a ``ParseError`` naming the
    file and the field at fault.
    """
    n, cps = doc["n"], doc["change_points"]
    try:
        Partition(n=n)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        Partition(n=n, change_points=cps)
    except ValueError as exc:
        raise ParseError(f"{path}: change_points {cps!r}: {exc}") from exc
    return doc


def read_truth(path) -> dict:
    doc = _read_json(
        path, "spharcp-truth", ("n", "L", "p", "change_points", "segments", "burn_in", "seed")
    )
    return _check_partition(path, doc)


def truth_to_scenario(doc: dict) -> ScenarioSpec:
    """Rebuild the full scenario from a truth document or a custom scenario config.

    ``change_points`` defaults to none and ``junction`` to "continue".
    Each field is checked by the type that uses it (``Partition``,
    ``ArCoefficients``, ``SegmentSpec``, ``ScenarioSpec``): a float, a
    string or a bool where an integer belongs, or a string, a bool or null
    in a real array, is a ``ConfigError`` naming the field.
    """
    return ScenarioSpec(
        n=doc["n"],
        L=doc["L"],
        p=doc["p"],
        partition=Partition(n=doc["n"], change_points=doc.get("change_points", ())),
        segments=_segments_from_json(doc["segments"], doc["p"]),
        burn_in=doc["burn_in"],
        seed=doc["seed"],
        junction=doc.get("junction", "continue"),
    )


def detector_config_to_json(config: DetectorConfig) -> dict:
    lam = config.lam_per_ell
    return {
        "p": config.p,
        "L": config.L,
        "lambda": float(lam[0]) if np.all(lam == lam[0]) else lam.tolist(),
        "gamma": config.gamma,
        "delta": config.delta,
    }


def write_result(path, doc: dict) -> None:
    _write_json(path, "spharcp-result", doc)


def read_result(path) -> dict:
    return _check_partition(path, _read_json(path, "spharcp-result", ("n", "change_points")))


def write_metrics(path, doc: dict) -> None:
    _write_json(path, "spharcp-metrics", doc)


def record_to_json(record) -> dict:
    return {
        "scenario": record.scenario,
        "seed": record.seed,
        "n": record.n,
        "true_change_points": list(record.true_cps),
        "estimated_change_points": list(record.est_cps),
        "k_hat": record.k_hat,
        "hausdorff_scaled": record.hausdorff,
        "assigned": [list(g) for g in record.assigned],
        "runtime_seconds": record.runtime,
    }


def write_bench_records(path, config: dict, grouped_records: dict) -> None:
    """Per-replicate records of a bench run, grouped by (lambda, gamma)."""
    doc = {
        "config": config,
        "runs": [
            {
                "lambda": lam,
                "gamma": gamma,
                "records": [record_to_json(r) for r in records],
            }
            for (lam, gamma), records in grouped_records.items()
        ],
    }
    _write_json(path, "spharcp-bench", doc)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _write_csv(path, config: dict, header, rows) -> None:
    """A bench table: the config comment, the ``header`` line, then one
    line of ``_csv_cell`` cells per row."""
    lines = [CONFIG_PREFIX + _dumps_config(config), ",".join(header)]
    lines += [",".join(_csv_cell(cell) for cell in row) for row in rows]
    with _writing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_aggregate_csv(path, config: dict, rows: list[dict]) -> None:
    """Plot-ready aggregate table, one row per detector setting.

    ``rows`` is non-empty and every row has the same keys in the same
    order; the first row's keys are the header.
    """
    _write_csv(path, config, rows[0], (row.values() for row in rows))


def write_locations_csv(path, config: dict, grouped_records: dict) -> None:
    """Estimated change point locations of a bench run, one row per location."""
    rows = (
        (lam, gamma, idx, rec.seed, rec.k_hat, eta, eta / rec.n)
        for (lam, gamma), records in grouped_records.items()
        for idx, rec in enumerate(records)
        for eta in rec.est_cps
    )
    header = ("lambda", "gamma", "replicate", "seed", "k_hat", "eta_hat", "rho_hat")
    _write_csv(path, config, header, rows)
