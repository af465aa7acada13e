"""Command line surface: simulate, detect, bench, and eval subcommands.

Exit codes: 0 success, 2 configuration error, 3 parse error,
4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from spharcp import io as sio
from spharcp.bench import (
    DEFAULT_GRID,
    DEFAULT_GRIDS,
    SCENARIO_IDS,
    SCENARIO_L,
    make_scenario,
    run_grid,
)
from spharcp.diagnostics import theory_tuning_bounds
from spharcp.errors import ConfigError, DegenerateFitError, ParseError
from spharcp.estimate import fit_segment_with_intercept, mean_surface
from spharcp.evaluate import aggregate, assign_and_average, assign_to_truth, hausdorff_scaled
from spharcp.segment import detect
from spharcp.simulate import DEFAULT_BURN_IN, simulate
from spharcp.types import ArCoefficients, DetectorConfig, SegmentSpec


def _parse_lambda(text: str) -> float | tuple[float, ...]:
    """Parse --lambda: a scalar, or a comma list giving one value per multipole."""
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --lambda value {text!r}: {exc}") from exc
    return parts[0] if len(parts) == 1 else tuple(parts)


def _load_scenario_config(path) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(sio._decode(raw, path))
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict) or "scenario" not in cfg:
        raise ConfigError(f"{path}: expected an object with a 'scenario' key")
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_scenario_config(args.config)
    scenario_id = cfg["scenario"]
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    burn_in = cfg.get("burn_in", DEFAULT_BURN_IN)
    junction = cfg.get("junction", "continue")
    meta = {"scenario": scenario_id, "seed": seed, "burn_in": burn_in, "junction": junction}
    # the types check every field; q and d (echoed as a float) shape named scenarios only
    try:
        if scenario_id == "custom":
            spec = sio.truth_to_scenario({**cfg, **meta})
        else:
            q, d = cfg.get("q", 8), cfg.get("d", 2)
            spec = make_scenario(scenario_id, q, d, seed, burn_in, junction)
            meta.update(q=q, d=float(d))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc

    series = simulate(spec)
    meta.update(n=spec.n, L=spec.L, p=spec.p)
    out = Path(args.out)
    sio.write_coefficients(out, series, meta)
    truth_path = args.truth_out or out.with_suffix(".truth.json")
    try:
        sio.write_truth(truth_path, spec, scenario_meta=meta)
    except ConfigError:
        # no coefficient file without its truth sidecar
        out.unlink()
        raise
    print(f"wrote {out} and {truth_path}")
    return 0


def _detector_from_args(args, series_L: int) -> DetectorConfig:
    return DetectorConfig(
        p=args.p,
        L=args.L if args.L is not None else series_L,
        lam=args.lam,
        gamma=args.gamma,
        delta=args.delta,
    )


def _fitted_segment_specs(result) -> tuple[list[SegmentSpec] | None, str | None]:
    """Segment specs from fitted coefficients and residual variances.

    Returns (None, reason) when no valid spec can be formed: a residual
    variance vanished, or a fitted coefficient vector is non-causal.
    """
    specs = []
    for fit in result.fits:
        widths = 2 * np.arange(result.config.L) + 1
        noise = fit.rss / (fit.n_eff * widths)
        if (noise <= 0).any():
            return None, "residual variance vanished on a segment"
        try:
            specs.append(
                SegmentSpec(
                    coeffs=ArCoefficients(p=result.config.p, phi=fit.phi),
                    noise_spectrum=noise,
                )
            )
        except ValueError as exc:
            return None, str(exc)
    return specs, None


def cmd_detect(args) -> int:
    series, _ = sio.read_coefficients(args.infile)
    config = _detector_from_args(args, series.L)
    result = detect(series, config)

    segments_json = []
    for fit in result.fits:
        seg = {
            "start": fit.interval[0],
            "end": fit.interval[1],
            "n_eff": fit.n_eff,
            "loss": fit.loss,
            "phi": fit.phi.tolist(),
            "rss": fit.rss.tolist(),
        }
        if args.intercept:
            s, e = fit.interval
            seg_fit = fit_segment_with_intercept(series, s, e, config.p, config.L)
            seg["intercept"] = seg_fit.mu.tolist()
            seg["mean_surface"] = mean_surface(seg_fit.mu, seg_fit.coeffs).tolist()
            seg["phi_with_intercept"] = seg_fit.coeffs.phi.tolist()
        segments_json.append(seg)

    diagnostics: dict = {"jumps": list(result.jumps)}
    if args.theory_bounds:
        specs, note = _fitted_segment_specs(result)
        bounds = None
        if specs is not None:
            try:
                tb = theory_tuning_bounds(specs, config.lam_per_ell, config.p)
                bounds = {
                    "alpha": tb.alpha.tolist(),
                    "C_L": tb.C_L,
                    "kappa_L": tb.kappa_L,
                }
            except ValueError as exc:
                note = str(exc)
        diagnostics["theory_bounds"] = bounds
        if note:
            diagnostics["theory_bounds_note"] = note

    sio.write_result(
        args.out,
        {
            "n": series.n,
            "L": series.L,
            "config": sio.detector_config_to_json(config),
            "change_points": list(result.change_points),
            "objective": result.objective,
            "warning": result.warning,
            "segments": segments_json,
            "diagnostics": diagnostics,
        },
    )
    print(
        f"detected {len(result.change_points)} change point(s) at "
        f"{list(result.change_points)}; wrote {args.out}"
    )
    return 0


def _summary_row(scenario: str, lam, gamma, delta, records) -> dict:
    """One row of ``aggregate.csv``: its keys, in order, are the file's columns."""
    summary = aggregate(records)
    row = {
        "scenario": scenario,
        "lambda": lam,
        "gamma": gamma,
        "delta": delta,
        "reps": summary.n_records,
        "mean_D": summary.mean_hausdorff,
        "sd_D": summary.sd_hausdorff,
    }
    for idx in range(2):
        mean = summary.rho_mean[idx] if idx < len(summary.rho_mean) else None
        sd = summary.rho_sd[idx] if idx < len(summary.rho_sd) else None
        row[f"rho_mean_{idx + 1}"] = mean
        row[f"rho_sd_{idx + 1}"] = sd
    row["khat_hist"] = ";".join(f"{k}:{v}" for k, v in summary.khat_hist.items())
    return row


def cmd_bench(args) -> int:
    out_dir = Path(args.out)
    started = time.perf_counter()

    default_lams, default_gammas = DEFAULT_GRIDS.get(args.scenario, DEFAULT_GRID)
    lams = tuple(args.lam or default_lams)
    gammas = tuple(args.gamma or default_gammas)
    config_echo = {
        "scenario": args.scenario,
        "q": args.q,
        "d": args.d,
        "reps": args.reps,
        "base_seed": args.seed,
        "delta": args.delta,
        "threads": args.threads,
        "lambda": [lam if np.ndim(lam) == 0 else list(lam) for lam in lams],
        "gamma": list(gammas),
    }
    config = DetectorConfig(p=1, L=SCENARIO_L, delta=args.delta)
    grouped = run_grid(
        args.scenario, args.q, args.d, args.reps, args.seed, config, lams, gammas, args.threads
    )
    rows = [
        _summary_row(args.scenario, lam, gamma, args.delta, records)
        for (lam, gamma), records in grouped.items()
    ]

    # Created only now, so a rejected setting leaves no directory behind.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    sio.write_locations_csv(out_dir / "locations.csv", config_echo, grouped)
    sio.write_bench_records(out_dir / "records.json", config_echo, grouped)
    sio.write_aggregate_csv(out_dir / "aggregate.csv", config_echo, rows)
    elapsed = time.perf_counter() - started
    for row in rows:
        print(
            f"{row['scenario']} lambda={row['lambda']} gamma={row['gamma']}: "
            f"mean_D={row['mean_D']:.4f} sd_D={row['sd_D']:.4f} "
            f"khat={row['khat_hist']}"
        )
    print(f"wrote records.json, aggregate.csv and locations.csv to {out_dir} ({elapsed:.1f}s)")
    return 0


def cmd_eval(args) -> int:
    result = sio.read_result(args.infile)
    truth = sio.read_truth(args.truth)
    if result["n"] != truth["n"]:
        raise ConfigError(
            f"series length mismatch: result n={result['n']}, truth n={truth['n']}"
        )
    n = truth["n"]
    est = tuple(result["change_points"])
    true_cps = tuple(truth["change_points"])
    doc: dict = {
        "n": n,
        "true_change_points": list(true_cps),
        "estimated_change_points": list(est),
        "hausdorff_scaled": hausdorff_scaled(est, true_cps, n),
    }
    if len(true_cps) in (1, 2):
        doc["assigned"] = [list(g) for g in assign_to_truth(est, true_cps)]
        doc["rho_mean"] = list(assign_and_average(est, true_cps, n))
    sio.write_metrics(args.out, doc)
    print(f"D = {doc['hausdorff_scaled']:.6f}; wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spharcp",
        description="Change point detection for spherical autoregressive coefficient series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic coefficient series")
    p_sim.add_argument("--config", required=True, help="scenario config JSON")
    p_sim.add_argument("--out", required=True, help="coefficient file to write")
    p_sim.add_argument("--truth-out", default=None, help="truth sidecar path")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="detect change points in a coefficient file")
    p_det.add_argument("--in", dest="infile", required=True, help="coefficient file")
    p_det.add_argument("--out", required=True, help="result JSON to write")
    p_det.add_argument("--p", type=int, default=1, help="AR order, 1..5 (default 1)")
    p_det.add_argument("--L", type=int, default=None, help="multipoles to use (default: all)")
    p_det.add_argument(
        "--lambda", dest="lam", type=_parse_lambda, default=0.0,
        help="L1 penalty: scalar or comma list per multipole",
    )
    p_det.add_argument("--gamma", type=float, default=0.0, help="segment penalty")
    p_det.add_argument("--delta", type=int, default=5, help="min segment length (default 5)")
    p_det.add_argument(
        "--intercept", action="store_true",
        help="fit per-segment intercepts and emit mean surfaces",
    )
    p_det.add_argument(
        "--theory-bounds", action="store_true",
        help="report tuning diagnostics computed from the fitted segments",
    )
    p_det.set_defaults(func=cmd_detect)

    p_bench = sub.add_parser("bench", help="replicated benchmark of a named scenario")
    p_bench.add_argument("scenario", choices=SCENARIO_IDS)
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--reps", type=int, default=30, help="replicates (default 30)")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--q", type=int, default=8, help="sparsity level (default 8)")
    p_bench.add_argument("--d", type=float, default=2.0, help="decay parameter (default 2)")
    p_bench.add_argument(
        "--lambda", dest="lam", type=_parse_lambda, action="append", default=None,
        help="a grid lambda: scalar or comma list per multipole; repeat for more "
        "(default 0; tuning-grid 0, 1)",
    )
    p_bench.add_argument(
        "--gamma", type=float, action="append", default=None,
        help="a grid gamma; repeat for more (default 300; tuning-grid 100, 200, 300)",
    )
    p_bench.add_argument("--delta", type=int, default=5)
    p_bench.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default: CPU count)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_eval = sub.add_parser("eval", help="score a detection result against the truth")
    p_eval.add_argument("--in", dest="infile", required=True, help="result JSON")
    p_eval.add_argument("--truth", required=True, help="truth sidecar JSON")
    p_eval.add_argument("--out", required=True, help="metrics JSON to write")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
