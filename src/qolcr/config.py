"""Run configuration: JSON schema, validation, and seed derivation.

Configuration files use instrument-friendly units (nm, um, Hz); everything
is converted to SI on load and kept in SI from then on. Validation errors
name the offending field. The effective configuration (defaults filled in)
is kept as a plain dict so it can be embedded verbatim in output headers
and reloaded for byte-identical reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from qolcr.errors import ConfigError
from qolcr.model import BandpassSpec, NoiseModel, PumpReference, Sample, Spectrum, StageModel

DEFAULT_CONFIG = {
    "sample": {
        "surfaces": [
            {"reflectivity": 0.6, "position_um": 9.886},
            {"reflectivity": 0.6, "position_um": 290.114},
        ],
    },
    "spectrum": {
        "center_wavelength_nm": 810.0,
        "bandwidth_fwhm_nm": 30.0,
    },
    "pump": {"wavelength_nm": 405.0},
    "stage": {
        "velocity_nm_per_s": 500.0,
        "sample_rate_hz": 100.0,
        "scale_error": 1.0e-3,
        "periodic_amplitude_nm": 100.0,
        "periodic_period_um": 50.0,
        "periodic_phase_rad": 0.0,
        "drift_step_nm": 0.2,
        "drift_smoothing_samples": 1500,
    },
    "noise": {
        "enabled": True,
        "singles_scale": 5000.0,
        "coincidence_scale": 300.0,
        "background": 20.0,
    },
    "scan": {"start_um": 0.0, "stop_um": 300.0},
    "pipeline": {
        "filter_relative_bandwidth": 0.2,
        "filter_num_taps": 2001,
        "grid_step_nm": None,
        "expected_peaks": 1,
    },
    "seeds": {"master": 20260814},
}

# fields of earlier versions, read and dropped so their configs and table headers still load
_RETIRED_FIELDS = {"spectrum": {"total_power"}, "pipeline": {"phase_method"}}


@dataclass(frozen=True)
class PipelineParams:
    """Processing knobs carried alongside the physical configuration."""

    bandpass: BandpassSpec       # the carrier filter, built from the filter_* keys
    grid_step: float | None
    expected_peaks: int


@dataclass
class RunConfig:
    """Validated configuration for one simulated measurement run."""

    sample: Sample
    spectrum: Spectrum
    pump: PumpReference
    stage: StageModel
    noise: NoiseModel
    scan_range: tuple[float, float]
    pipeline: PipelineParams
    master_seed: int
    effective: dict              # fully explicit config dict (file units)

    def seeds_for_run(self, run_index: int) -> tuple[int, int]:
        """Two independent 32-bit seeds (stage walk, counting noise)."""
        seq = np.random.SeedSequence([int(self.master_seed), int(run_index)])
        stage_seed, noise_seed = (int(v) for v in seq.generate_state(2))
        return stage_seed, noise_seed

    def with_sample(self, sample: Sample) -> "RunConfig":
        cfg = replace(self, sample=sample)
        eff = json.loads(json.dumps(self.effective))
        eff["sample"]["surfaces"] = [
            {"reflectivity": s.reflectivity, "position_um": s.position * 1e6}
            for s in sample.surfaces
        ]
        cfg.effective = eff
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.effective, sort_keys=True)


def _section(raw: dict, name: str, defaults: dict) -> dict:
    got = raw.get(name, {})
    if got is None:
        raise ConfigError(f"section '{name}' must be an object, not null")
    if not isinstance(got, dict):
        raise ConfigError(f"section '{name}' must be an object")
    got = {k: v for k, v in got.items() if k not in _RETIRED_FIELDS.get(name, ())}
    unknown = set(got) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown field '{sorted(unknown)[0]}' in section '{name}'"
        )
    merged = dict(defaults)
    merged.update(got)
    return merged


def _number(section: dict, section_name: str, key: str, *,
            positive=False, nonnegative=False, allow_none=False):
    value = section.get(key)
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{section_name}.{key} is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section_name}.{key} must be a number")
    try:
        value = float(value)
    except OverflowError:    # a JSON integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{section_name}.{key} must be a finite number")
    if positive and value <= 0:
        raise ConfigError(f"{section_name}.{key} must be positive")
    if nonnegative and value < 0:
        raise ConfigError(f"{section_name}.{key} must not be negative")
    return value


def _integer(section: dict, section_name: str, key: str, *, minimum=None):
    value = section.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section_name}.{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{section_name}.{key} must be at least {minimum}")
    return int(value)


def parse_config(raw: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(raw) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown top-level section '{sorted(unknown)[0]}'")

    sample_raw = _section(raw, "sample", DEFAULT_CONFIG["sample"])
    surfaces = sample_raw["surfaces"]
    if not isinstance(surfaces, list) or not surfaces:
        raise ConfigError("sample.surfaces must be a non-empty list")
    pairs = []
    for i, entry in enumerate(surfaces):
        if not isinstance(entry, dict) or set(entry) != {"reflectivity", "position_um"}:
            raise ConfigError(
                f"sample.surfaces[{i}] must have exactly the fields "
                "'reflectivity' and 'position_um'"
            )
        r = _number(entry, f"sample.surfaces[{i}]", "reflectivity", positive=True)
        if r > 1.0:
            raise ConfigError(f"sample.surfaces[{i}].reflectivity must be at most 1")
        z = _number(entry, f"sample.surfaces[{i}]", "position_um", positive=True)
        pairs.append((r, z * 1e-6))
    try:
        sample = Sample.from_pairs(pairs)
    except ValueError as exc:
        raise ConfigError(f"sample.surfaces: {exc}") from exc

    spec_raw = _section(raw, "spectrum", DEFAULT_CONFIG["spectrum"])
    spectrum = Spectrum.from_wavelength(
        _number(spec_raw, "spectrum", "center_wavelength_nm", positive=True) * 1e-9,
        _number(spec_raw, "spectrum", "bandwidth_fwhm_nm", positive=True) * 1e-9)

    pump_raw = _section(raw, "pump", DEFAULT_CONFIG["pump"])
    pump = PumpReference(
        _number(pump_raw, "pump", "wavelength_nm", positive=True) * 1e-9)
    try:
        pump.check_degenerate(spectrum)
    except ValueError as exc:
        raise ConfigError(f"pump.wavelength_nm: {exc}") from exc

    stage_raw = _section(raw, "stage", DEFAULT_CONFIG["stage"])
    try:
        stage = StageModel(
            velocity=_number(stage_raw, "stage", "velocity_nm_per_s", positive=True) * 1e-9,
            sample_rate=_number(stage_raw, "stage", "sample_rate_hz", positive=True),
            scale_error=_number(stage_raw, "stage", "scale_error"),
            periodic_amplitude=_number(
                stage_raw, "stage", "periodic_amplitude_nm", nonnegative=True) * 1e-9,
            periodic_period=_number(
                stage_raw, "stage", "periodic_period_um", positive=True) * 1e-6,
            periodic_phase=_number(stage_raw, "stage", "periodic_phase_rad"),
            drift_step=_number(stage_raw, "stage", "drift_step_nm", nonnegative=True) * 1e-9,
            drift_smoothing=_integer(stage_raw, "stage", "drift_smoothing_samples", minimum=1),
        )
    except ValueError as exc:  # the fields read above leave only scale_error to refuse
        raise ConfigError(f"stage.{exc}") from exc

    noise_raw = _section(raw, "noise", DEFAULT_CONFIG["noise"])
    enabled = noise_raw["enabled"]
    if not isinstance(enabled, bool):
        raise ConfigError("noise.enabled must be true or false")
    noise = NoiseModel(
        singles_scale=_number(noise_raw, "noise", "singles_scale", positive=True),
        coincidence_scale=_number(noise_raw, "noise", "coincidence_scale", positive=True),
        background=_number(noise_raw, "noise", "background", nonnegative=True),
        poisson_enabled=enabled,
    )

    scan_raw = _section(raw, "scan", DEFAULT_CONFIG["scan"])
    start = _number(scan_raw, "scan", "start_um", nonnegative=True) * 1e-6
    stop = _number(scan_raw, "scan", "stop_um", positive=True) * 1e-6
    if stop <= start:
        raise ConfigError("scan.stop_um must exceed scan.start_um")
    z = sample.positions
    if z.min() <= start or z.max() >= stop:
        raise ConfigError(
            "scan range must cover every sample surface; "
            f"surfaces span [{z.min() * 1e6:.3f}, {z.max() * 1e6:.3f}] um"
        )

    pipe_raw = _section(raw, "pipeline", DEFAULT_CONFIG["pipeline"])
    grid_step_nm = _number(pipe_raw, "pipeline", "grid_step_nm",
                           positive=True, allow_none=True)
    bandwidth = _number(pipe_raw, "pipeline", "filter_relative_bandwidth")
    num_taps = _integer(pipe_raw, "pipeline", "filter_num_taps")
    try:
        bandpass = BandpassSpec.for_pump(pump, bandwidth, num_taps)
    except ConfigError as exc:
        raise ConfigError(f"pipeline.filter_{exc}") from exc
    pipeline = PipelineParams(
        bandpass=bandpass,
        grid_step=None if grid_step_nm is None else grid_step_nm * 1e-9,
        expected_peaks=_integer(pipe_raw, "pipeline", "expected_peaks", minimum=1),
    )

    seeds_raw = _section(raw, "seeds", DEFAULT_CONFIG["seeds"])
    master = _integer(seeds_raw, "seeds", "master", minimum=0)

    effective = {
        "sample": {"surfaces": [dict(entry) for entry in surfaces]},
        "spectrum": spec_raw,
        "pump": pump_raw,
        "stage": stage_raw,
        "noise": noise_raw,
        "scan": scan_raw,
        "pipeline": pipe_raw,
        "seeds": seeds_raw,
    }
    return RunConfig(
        sample=sample, spectrum=spectrum, pump=pump, stage=stage, noise=noise,
        scan_range=(start, stop), pipeline=pipeline, master_seed=master,
        effective=effective,
    )


def load_config(path) -> RunConfig:
    """Parse and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)


def default_config() -> RunConfig:
    return parse_config(json.loads(json.dumps(DEFAULT_CONFIG)))
