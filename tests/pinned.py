"""Record the pinned detection outputs that ``test_pinned.py`` checks.

    PYTHONPATH=src python3 tests/pinned.py

Runs ``detect_grid`` on the three paper scenarios over a few seeds, AR
orders and (lambda, gamma) settings, and one small ``spharcp bench``
grid, and stores what ``outputs`` returns in ``data/pinned.json``. Each
lambda is its own ``detect_grid`` call, so lambda = 0 takes the solve's
unpenalized path and lambda = 0.5 the penalized one. Record the file
again only for a change that is meant to alter detection results, and
say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from spharcp.bench import make_scenario
from spharcp.cli import main as cli_main
from spharcp.segment import detect_grid
from spharcp.simulate import simulate
from spharcp.types import DetectorConfig

PINNED_PATH = Path(__file__).resolve().parent / "data" / "pinned.json"

SCENARIOS = ("table1-balanced", "table1-unbalanced", "epidemic")
# (seed, p): seeds 1 and 2 at p = 1, 2; seed 1 at p = 3, whose penalized
# solve enumerates 8 sign vectors and costs as much as the rest together
RUNS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
LAMBDAS = (0.0, 0.5)
GAMMAS = (100.0, 300.0)
BENCH_ARGS = ("bench", "tuning-grid", "--reps", "3", "--threads", "1")


def detect_outputs() -> dict:
    """Change points and objective of every pinned detection, by key."""
    out = {}
    for scenario in SCENARIOS:
        for seed, p in RUNS:
            series = simulate(make_scenario(scenario, 8, 2.0, seed))
            config = DetectorConfig(p=p, L=series.L, delta=5)
            for lam in LAMBDAS:
                for gamma, result in zip(GAMMAS, detect_grid(series, config, (lam,), GAMMAS)):
                    out[f"{scenario}/seed={seed}/p={p}/lambda={lam}/gamma={gamma}"] = {
                        "change_points": list(result.change_points),
                        "objective": result.objective,
                    }
    return out


def bench_locations() -> list[str]:
    """The ``locations.csv`` lines of a small bench grid, below the config echo."""
    with tempfile.TemporaryDirectory() as tmp:
        if cli_main([*BENCH_ARGS, "--out", tmp]) != 0:
            raise RuntimeError("bench run failed")
        return (Path(tmp) / "locations.csv").read_text().splitlines()[1:]


def outputs() -> dict:
    return {"detect": detect_outputs(), "locations_csv": bench_locations()}


def main() -> int:
    PINNED_PATH.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
