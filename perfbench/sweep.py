"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads paper-replicates --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --record seed-commit

For every workload and end-to-end metric it prints the median of the
runs, the quartile distance as a share of the median, and the metric's
bound from ``BENCHMARK.json``; counters of the traced runs must agree
exactly between two runs of the same seed. With ``--record LABEL`` it
also makes one traced run per workload and appends the medians and the
per-layer numbers as a point to ``trajectory.json``. Runs are serial.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
COUNTERS = ("simulate.values", "io.file_mb", "estimate.fit_calls",
            "segment.dp_lookups", "segment.cache_hit_ratio")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.record, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}")
        entry = {"end_to_end": {}, "run_wall_s": statistics.median(walls)}
        for name, bound in bounds.items():
            med, share = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if share < bound / 3 else ("  (above bound/3)" if share <= bound else "  (ABOVE BOUND)")
            print(f"  {name:12s} median {med:.6g}  iqr/median {share:.4f}  bound {bound}{flag}")
            entry["end_to_end"][name] = {"median": med, "iqr_share": share,
                                         "unit": runs[0]["metrics"][name]["unit"]}
        if args.record:
            first, second = (run_once(spec, workload, seeds[0], 1) for _ in range(2))
            same = all(first["metrics"][c] == second["metrics"][c] for c in COUNTERS)
            ok &= same and first["correct"] and second["correct"]
            print(f"  traced: counters repeat exactly: {same}")
            entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
        point["workloads"][workload] = entry
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
