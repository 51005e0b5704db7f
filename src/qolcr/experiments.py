"""Scripted studies: full pipeline runs, repeatability, linearity.

Each run re-synthesizes a scan with per-run seeds derived from the master
seed, pushes it through carrier calibration and autocorrelation peak
estimation, and records one separation. Runs flagged as fringe-ambiguity
outliers are excluded from the spread statistics but kept in the ledger;
a forced-ambiguity list exists to exercise exactly that bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qolcr.calibration import (
    CalibratedRecord,
    CalibrationMap,
    build_calibration,
    extract_phase,
    extract_tpi,
    resample_intensity,
)
from qolcr.config import RunConfig
from qolcr.errors import ConfigError, PipelineQualityError, QolcrError
from qolcr.measure import MeasurementReport, autocorrelate, estimate_separations
from qolcr.scan import ScanTrace, simulate_scan


def synthesize(config: RunConfig, run_index: int = 0) -> ScanTrace:
    """One seeded scan synthesis for the given run index."""
    return simulate_scan(config.sample, config.spectrum, config.pump, config.stage,
                         config.noise, config.scan_range, *config.seeds_for_run(run_index))


def calibrate_trace(config: RunConfig, trace: ScanTrace) -> tuple[CalibrationMap, CalibratedRecord]:
    """Carrier calibration and resampling; the record carries the run's provenance."""
    # nested: the carrier and its phase are freed before resampling's temporaries
    calibration = build_calibration(
        extract_phase(extract_tpi(trace, config.pipeline.bandpass)), trace.reported_d, config.pump)
    record = resample_intensity(trace, calibration, grid_step=config.pipeline.grid_step)
    record.metadata, record.quality = {**trace.metadata}, {**calibration.quality, **record.quality}
    return calibration, record


def measure_record(config: RunConfig, record: CalibratedRecord,
                   refinement_offset: float = 0.0) -> MeasurementReport:
    """Autocorrelation and cluster refinement; the report carries the record's provenance."""
    report = estimate_separations(autocorrelate(record), config.pipeline.expected_peaks,
                                  refinement_offset=refinement_offset)
    report.metadata, report.quality = {**record.metadata}, {**record.quality, **report.quality}
    return report


def run_pipeline(config: RunConfig, run_index: int = 0,
                 refinement_offset: float = 0.0) -> MeasurementReport:
    """Synthesis through measurement for one seeded run."""
    trace = synthesize(config, run_index)
    _, record = calibrate_trace(config, trace)
    return measure_record(config, record, refinement_offset=refinement_offset)


def _record_outcome(entry: dict, config: RunConfig, run_index: int,
                    refinement_offset: float = 0.0) -> dict:
    """Add the run's separation and fringe-order flag, or its error, to entry; return it."""
    try:
        report = run_pipeline(config, run_index=run_index, refinement_offset=refinement_offset)
    except QolcrError as exc:
        entry["error"] = str(exc)
    else:
        peak = report.peaks[0]
        entry["separation_m"] = peak.separation
        entry["outlier"] = bool(peak.outlier_flag)
    return entry


@dataclass
class RepeatabilityResult:
    """Separation statistics over repeated seeded runs of one configuration."""

    seed_ledger: list        # per-run dict: seeds, then separation and flag, or error

    @property
    def n_runs(self) -> int:
        return len(self.seed_ledger)

    @property
    def estimates(self) -> list:
        """Separations of the included (non-flagged) runs, m."""
        return [e["separation_m"] for e in self.seed_ledger if e.get("outlier") is False]

    @property
    def outlier_count(self) -> int:
        return sum(e.get("outlier") is True for e in self.seed_ledger)

    @property
    def failures(self) -> list:
        return [e for e in self.seed_ledger if "error" in e]

    @property
    def included_count(self) -> int:
        return len(self.estimates)

    @property
    def std_dev(self) -> float | None:
        """Sample (n-1) standard deviation over the estimates, m; None below two."""
        estimates = self.estimates
        return float(np.std(estimates, ddof=1)) if len(estimates) >= 2 else None

    def to_dict(self) -> dict:
        """Results document: the ledger and its summary, where a statistic
        is None when too few runs are included to compute it."""
        estimates = self.estimates
        return {
            "seed_ledger": list(self.seed_ledger),
            "summary": {
                "n_runs": self.n_runs,
                "included_count": len(estimates),
                "outlier_count": self.outlier_count,
                "failure_count": len(self.failures),
                "mean_m": float(np.mean(estimates)) if estimates else None,
                "std_dev_m": self.std_dev,
                "min_m": min(estimates, default=None),
                "max_m": max(estimates, default=None),
                "std_convention": "sample (n-1)",
            },
        }


def repeatability_experiment(config: RunConfig, n_runs: int,
                             force_ambiguity_runs=()) -> RepeatabilityResult:
    """Repeat the full pipeline n_runs times with independent seeds.

    Runs listed in force_ambiguity_runs get their carrier-refinement seed
    shifted by one fringe (lambda0 / 2 of lag), reproducing the one-wavelength
    misidentification; they come back flagged and are excluded from the
    spread. A pipeline failure is recorded for its run, not raised.
    """
    if n_runs < 2:
        raise ConfigError("repeatability needs at least 2 runs")
    if config.pipeline.expected_peaks != 1:
        raise ConfigError("pipeline.expected_peaks must be 1: each run repeats one separation")
    forced = {int(i) for i in force_ambiguity_runs}
    bad = {i for i in forced if not 0 <= i < n_runs}
    if bad:
        raise ConfigError(f"forced-ambiguity run index {sorted(bad)[0]} out of range")
    one_fringe = config.spectrum.center_wavelength / 2.0

    ledger = []
    for i in range(n_runs):
        stage_seed, noise_seed = config.seeds_for_run(i)
        entry = {
            "run": i,
            "stage_seed": stage_seed,
            "noise_seed": noise_seed,
            "forced_ambiguity": i in forced,
        }
        ledger.append(_record_outcome(entry, config, i, one_fringe if i in forced else 0.0))
    return RepeatabilityResult(seed_ledger=ledger)


@dataclass
class LinearityResult:
    """Measured separations against commanded sub-fringe surface shifts."""

    step_size: float
    ledger: list     # per step: commanded position, then separation, flag and deviation, or error

    @property
    def commanded_positions(self) -> list:
        """Commanded first-surface positions, m."""
        return [e["commanded_position_m"] for e in self.ledger]

    @property
    def measured_separations(self) -> list:
        """One per step, m (nan where the step failed)."""
        return [e.get("separation_m", math.nan) for e in self.ledger]

    @property
    def deviations(self) -> list:
        """Unflagged separations minus the unit-slope line through the first, m; else nan."""
        return [e.get("deviation_m", math.nan) for e in self.ledger]

    @property
    def failures(self) -> list:
        return [e for e in self.ledger if "error" in e]

    @property
    def max_abs_deviation(self) -> float:
        return max(abs(e["deviation_m"]) for e in self.ledger if "deviation_m" in e)

    def to_dict(self) -> dict:
        return {
            "step_size_m": self.step_size,
            "ledger": list(self.ledger),
            "max_abs_deviation_m": self.max_abs_deviation,
        }


def linearity_experiment(config: RunConfig, step: float, n_steps: int) -> LinearityResult:
    """Shift the first surface by k * step per run and track the separation.

    The first surface moves toward the second, so the set separation
    decreases by exactly step per shift; deviations compare each unflagged
    separation to the unit-slope line through the first, so at least two
    steps must succeed unflagged. A flagged step keeps only its separation.
    """
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"linearity step must be finite and positive, got {step!r} m")
    if n_steps < 2:
        raise ConfigError("linearity needs at least 2 steps")
    if config.pipeline.expected_peaks != 1:
        raise ConfigError("pipeline.expected_peaks must be 1: each step tracks one separation")
    travel = (n_steps - 1) * step
    gap = config.sample.min_gap()
    if travel >= gap / 2.0:
        raise ConfigError(
            f"total shift {travel * 1e6:.3f} um would close more than half "
            f"the smallest surface gap of {gap * 1e6:.3f} um"
        )

    ledger = []
    for k in range(n_steps):
        sample = config.sample.shifted(0, k * step)
        entry = {"step": k, "commanded_position_m": sample.surfaces[0].position}
        ledger.append(_record_outcome(entry, config.with_sample(sample), k))

    measured = [e for e in ledger if e.get("outlier") is False]
    if len(measured) < 2:
        raise PipelineQualityError(
            f"{len(measured)} of {n_steps} linearity steps succeeded unflagged; "
            "a deviation from the unit-slope line needs at least 2")
    base_k, baseline = measured[0]["step"], measured[0]["separation_m"]
    for e in measured:
        e["deviation_m"] = e["separation_m"] - (baseline - (e["step"] - base_k) * step)
    return LinearityResult(step_size=step, ledger=ledger)
