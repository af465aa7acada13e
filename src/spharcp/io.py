"""File formats: coefficient tables, truth sidecars, result and metrics documents.

The coefficient format is plain comma-separated text with one record per
line (``t,ell,m,value``, 1-based t, rows sorted by key) behind an
optional single-line config comment, so files are language-neutral and
diff-able. Everything else is JSON with a ``kind`` tag and an embedded
copy of the configuration that produced the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from spharcp.errors import ParseError
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


def write_coefficients(path, series: CoefficientSeries, meta: dict | None = None) -> None:
    """Write a coefficient series, optionally embedding a config comment."""
    lines = []
    if meta is not None:
        lines.append(CONFIG_PREFIX + _dumps_config(meta))
    lines.append(COEFF_HEADER)
    for t in range(1, series.n + 1):
        row = series.data[t - 1]
        for ell in range(series.L):
            for m in range(-ell, ell + 1):
                # repr of a Python float is the shortest round-trip decimal
                lines.append(f"{t},{ell},{m},{float(row[slot_index(ell, m)])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_coefficients(path) -> tuple[CoefficientSeries, dict | None]:
    """Parse a coefficient file; returns the series and the embedded config, if any.

    Accepts externally produced files without the config comment. Raises
    ParseError with the offending line number for malformed rows, and
    for structurally incomplete files (missing or duplicate slots).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    meta = None
    pos = 0
    if pos < len(lines) and lines[pos].startswith("#"):
        if lines[pos].startswith(CONFIG_PREFIX):
            try:
                meta = json.loads(lines[pos][len(CONFIG_PREFIX) :])
            except json.JSONDecodeError as exc:
                raise ParseError(f"line 1: bad config comment: {exc}") from exc
        pos += 1
    if pos >= len(lines) or lines[pos] != COEFF_HEADER:
        raise ParseError(f"line {pos + 1}: expected header {COEFF_HEADER!r}")
    pos += 1

    records: list[tuple[int, int, int, float]] = []
    for lineno in range(pos, len(lines)):
        line = lines[lineno]
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"line {lineno + 1}: expected 4 comma-separated fields")
        try:
            t, ell, m = int(parts[0]), int(parts[1]), int(parts[2])
            value = float(parts[3])
        except ValueError as exc:
            raise ParseError(f"line {lineno + 1}: {exc}") from exc
        if t < 1 or ell < 0 or not -ell <= m <= ell:
            raise ParseError(f"line {lineno + 1}: index (t={t}, ell={ell}, m={m}) out of range")
        records.append((t, ell, m, value))

    if not records:
        raise ParseError("no coefficient rows found")
    n = max(r[0] for r in records)
    L = max(r[1] for r in records) + 1
    data = np.empty((n, L * L))
    seen = np.zeros((n, L * L), dtype=bool)
    for t, ell, m, value in records:
        col = slot_index(ell, m)
        if seen[t - 1, col]:
            raise ParseError(f"duplicate record for (t={t}, ell={ell}, m={m})")
        seen[t - 1, col] = True
        data[t - 1, col] = value
    if not seen.all():
        raise ParseError("incomplete coefficient grid: some (t, ell, m) slots missing")
    try:
        series = CoefficientSeries(n=n, L=L, data=data)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return series, meta


def _segment_to_json(seg: SegmentSpec) -> dict:
    return {
        "phi": seg.coeffs.phi.tolist(),
        "noise_spectrum": seg.noise_spectrum.tolist(),
        "intercept": None if seg.intercept is None else seg.intercept.tolist(),
    }


def _segment_from_json(obj: dict, p: int) -> SegmentSpec:
    return SegmentSpec(
        coeffs=ArCoefficients(p=p, phi=np.asarray(obj["phi"], dtype=float)),
        noise_spectrum=np.asarray(obj["noise_spectrum"], dtype=float),
        intercept=None
        if obj.get("intercept") is None
        else np.asarray(obj["intercept"], dtype=float),
    )


def write_truth(path, spec: ScenarioSpec, scenario_meta: dict | None = None) -> None:
    """Write the true partition and segment models of a simulated series."""
    doc = {
        "kind": "spharcp-truth",
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
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path, expected_kind: str, required: tuple[str, ...] = ()) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != expected_kind:
        raise ParseError(f"{path}: not a {expected_kind} document")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ParseError(f"{path}: {expected_kind} document lacks {', '.join(missing)}")
    return doc


def read_truth(path) -> dict:
    return _read_json(
        path, "spharcp-truth", ("n", "L", "p", "change_points", "segments", "burn_in", "seed")
    )


def truth_to_scenario(doc: dict) -> ScenarioSpec:
    """Rebuild the full scenario from a truth document or a custom scenario config.

    ``change_points`` defaults to none and ``junction`` to "continue".
    """
    p = int(doc["p"])
    return ScenarioSpec(
        n=int(doc["n"]),
        L=int(doc["L"]),
        p=p,
        partition=Partition(n=int(doc["n"]), change_points=tuple(doc.get("change_points", ()))),
        segments=tuple(_segment_from_json(seg, p) for seg in doc["segments"]),
        burn_in=int(doc["burn_in"]),
        seed=int(doc["seed"]),
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
        "cd_tol": config.cd_tol,
        "cd_max_iter": config.cd_max_iter,
    }


def write_result(path, doc: dict) -> None:
    doc = {"kind": "spharcp-result", **doc}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_result(path) -> dict:
    return _read_json(path, "spharcp-result", ("n", "change_points"))


def write_metrics(path, doc: dict) -> None:
    doc = {"kind": "spharcp-metrics", **doc}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_metrics(path) -> dict:
    return _read_json(path, "spharcp-metrics")


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
        "kind": "spharcp-bench",
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
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_bench_records(path) -> dict:
    return _read_json(path, "spharcp-bench")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def write_aggregate_csv(path, config: dict, rows: list[dict]) -> None:
    """Plot-ready aggregate table, one row per detector setting."""
    header = [
        "scenario",
        "lambda",
        "gamma",
        "delta",
        "reps",
        "mean_D",
        "sd_D",
        "rho_mean_1",
        "rho_sd_1",
        "rho_mean_2",
        "rho_sd_2",
        "khat_hist",
    ]
    lines = [CONFIG_PREFIX + _dumps_config(config), ",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in header))
    Path(path).write_text("\n".join(lines) + "\n")


def write_locations_csv(path, config: dict, grouped_records: dict) -> None:
    """Estimated change point locations behind the tuning-sweep histograms."""
    lines = [
        CONFIG_PREFIX + _dumps_config(config),
        "lambda,gamma,replicate,seed,k_hat,eta_hat,rho_hat",
    ]
    for (lam, gamma), records in grouped_records.items():
        for idx, rec in enumerate(records):
            for eta in rec.est_cps:
                lines.append(
                    f"{_csv_cell(lam)},{_csv_cell(gamma)},{idx},{rec.seed},"
                    f"{rec.k_hat},{eta},{_csv_cell(eta / rec.n)}"
                )
    Path(path).write_text("\n".join(lines) + "\n")
