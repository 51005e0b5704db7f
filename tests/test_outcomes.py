"""The outcome contract on a grid of noise levels, runs 0-9 per cell.

Every run must end in exactly one of three ways: a separation within its
stated uncertainty, a fringe-order flag, or a QolcrError that names the
cause. Each cell changes one noise setting of the default config: cs is
`noise.coincidence_scale` (default 300), ss is `noise.singles_scale`
(default 5000). A run is

- within: |error| <= 2 x its stated uncertainty;
- loose: unflagged, outside 2 sigma, and |error| <= 5 nm;
- silent: unflagged and |error| > 5 nm, the outcome the contract forbids.

A second grid runs the stacked sample, three surfaces at 9.886, 120 and
290.114 um with r = 0.6, 0.5 and 0.6, and scores each of its three
separations as above; a failed run counts once.

A check that fails today is a strict xfail naming the roadmap item that
should fix it; the change that makes it pass removes the marker, so the
grid only moves forward. `pytest -s tests/test_outcomes.py` prints the
per-cell counts.
"""

from __future__ import annotations

import copy
import functools
import itertools

import pytest

from qolcr.config import DEFAULT_CONFIG, parse_config
from qolcr.errors import QolcrError
from qolcr.experiments import run_pipeline

CELLS = {
    "default": {},
    "cs30": {"coincidence_scale": 30.0},
    "cs10": {"coincidence_scale": 10.0},
    "cs5": {"coincidence_scale": 5.0},
    "cs3": {"coincidence_scale": 3.0},
    "ss500": {"singles_scale": 500.0},
    "ss250": {"singles_scale": 250.0},
    "ss100": {"singles_scale": 100.0},
}
RUNS = range(10)
SILENT_ERROR = 5e-9
# the stacked sample, written out here rather than read from a benchmark input
STACK = [{"reflectivity": 0.6, "position_um": 9.886},
         {"reflectivity": 0.5, "position_um": 120.0},
         {"reflectivity": 0.6, "position_um": 290.114}]


@functools.cache
def outcomes(cell: str, stacked: bool = False) -> dict:
    """Run indices by outcome, one entry per separation: silent ones with their
    error in nm, failed runs with their message. Any exception other than a
    QolcrError propagates."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["noise"].update(CELLS[cell])
    if stacked:
        raw["sample"]["surfaces"] = STACK
        raw["pipeline"]["expected_peaks"] = 3
    config = parse_config(raw)
    truths = sorted(b - a for a, b in itertools.combinations(config.sample.positions, 2))
    got = {"within": [], "loose": [], "silent": [], "flagged": [], "failed": []}
    for run in RUNS:
        try:
            peaks = run_pipeline(config, run_index=run).peaks
        except QolcrError as exc:
            got["failed"].append((run, str(exc)))
            continue
        for peak, truth in zip(peaks, truths, strict=True):
            error = peak.separation - truth
            if peak.outlier_flag:
                got["flagged"].append(run)
            elif abs(error) <= 2.0 * peak.uncertainty:
                got["within"].append(run)
            elif abs(error) <= SILENT_ERROR:
                got["loose"].append(run)
            else:
                got["silent"].append((run, round(float(error) * 1e9, 1)))
    print(f"{cell}{' stacked' if stacked else ''}: "
          + ", ".join(f"{k} {len(v)}" for k, v in got.items())
          + (f"; silent (run, nm) {got['silent']}" if got["silent"] else ""))
    return got


def _xfail(cell: str, reason: str):
    # raises: any other exception, such as one that is not a QolcrError, fails the cell
    return pytest.param(cell, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                      reason=reason))


@pytest.mark.parametrize("cell", [
    "default",
    "cs30",
    _xfail("cs10", "item 10: run 2 is misordered by a fringe at the envelope vertex"),
    _xfail("cs5", "item 2: calibration noise is left out of the stated uncertainty"),
    _xfail("cs3", "item 3: carrier phase slips carry into the calibration"),
    "ss500",
    "ss250",
    "ss100",
])
def test_no_silent_run_and_every_failure_is_a_qolcr_error(cell):
    assert outcomes(cell)["silent"] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: the stated uncertainty is the envelope fit's "
                          "residual sigma, not an error estimate")
def test_default_cell_is_within_two_sigma():
    assert len(outcomes("default")["within"]) >= 9


def test_ss250_cell_has_no_failed_run():
    # at a twentieth of the default singles counts every run still finds its
    # zero-lag half-width and a concave envelope vertex: the resampler passes
    # too little sample-to-sample counting noise to swamp either
    assert outcomes("ss250")["failed"] == []


@pytest.mark.parametrize("cell", [
    "default",
    "cs30",
    _xfail("cs10", "item 12: run 9's 6.1 nm error is left out of the stated uncertainty"),
    _xfail("cs5", "items 10 and 3: runs 1, 2 and 6 misorder by a fringe at the envelope "
                  "vertex, and a calibration slip moves a stacked peak by half a fringe "
                  "(run 3's 5.1 nm error is item 12's)"),
])
def test_stacked_sample_has_no_silent_peak(cell):
    assert outcomes(cell, stacked=True)["silent"] == []
