"""Detection outputs pinned in ``data/pinned.json`` (recorded by ``pinned.py``).

Change points and bench locations must match exactly; objectives to a
relative 1e-12, so a numpy or Python version that sums in another order
still passes while a changed decision does not.
"""

import json

import pytest

from pinned import PINNED_PATH, outputs


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return outputs()


def test_detect_grid_outputs_match_the_pinned_file(pinned, current):
    assert sorted(current["detect"]) == sorted(pinned["detect"])
    for key, want in pinned["detect"].items():
        got = current["detect"][key]
        assert got["change_points"] == want["change_points"], key
        assert got["objective"] == pytest.approx(want["objective"], rel=1e-12), key


def test_bench_locations_match_the_pinned_file(pinned, current):
    assert current["locations_csv"] == pinned["locations_csv"]
