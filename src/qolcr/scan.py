"""Synthesis of reference-arm scans: stage trajectory, rates, counting noise.

The reference mirror is driven at constant commanded velocity and both
detector channels are binned at a fixed rate, so the reported position grid
is uniform with spacing velocity / sample_rate. The true mirror position
deviates from the report through a scale error, a lead-screw-like periodic
term, and a smoothed random walk; all three act on the distance traveled
since the scan start.

Count rates are kept strictly nonnegative by sitting the interference terms
on a baseline with headroom; clamping is never applied, a configuration
that would go negative is rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.ndimage import uniform_filter1d

from qolcr.errors import SynthesisError
from qolcr.model import (
    SPEED_OF_LIGHT,
    PumpReference,
    Sample,
    Spectrum,
    coherence_envelope,
    response_function,
)

# baselines sit this factor above the worst-case interference swing
BASELINE_HEADROOM = 1.2

# relative amplitudes of the pairwise HOM envelopes and of the
# single-photon packets in the coincidence rate
HOM_AMPLITUDE = 1.0
FRINGE_AMPLITUDE = 2.0

# reject samples whose surfaces sit closer than this many packet widths
MIN_GAP_COHERENCE_LENGTHS = 3.0

# required clearance between the outermost surfaces and the scan ends
MIN_MARGIN_COHERENCE_LENGTHS = 1.0

# surface terms (envelopes, fringes, HOM dips) are evaluated only this many coherence
# lengths around their centers, bit for bit as on the full grid: a dropped tail is at most
# exp(-4 ln2 * 36) ~ 5e-44 of its peak, below half an ulp of every partial intensity sum
# (>= baseline / 6 by the 1.2 headroom); hom and packet start from zero, so a tail moves
# them only below 2**53 * 5e-44 ~ 4e-28 of the peak, where they vanish against the baseline.
SUPPORT_COHERENCE_LENGTHS = 6.0


@dataclass(frozen=True)
class StageModel:
    """Commanded motion plus deterministic and stochastic position errors."""

    velocity: float              # commanded speed, m/s
    sample_rate: float           # detector binning rate, Hz
    scale_error: float = 0.0     # fractional scale error of the drive
    periodic_amplitude: float = 0.0   # lead-screw wobble amplitude, m
    periodic_period: float = 50e-6    # lead-screw wobble period, m
    periodic_phase: float = 0.0       # wobble phase at the scan start, rad
    drift_step: float = 0.0      # random-walk step per sample, m
    drift_smoothing: int = 1500  # boxcar length applied to the walk, samples
    seed: int | None = None      # RNG seed for the walk

    def __post_init__(self):
        if self.velocity <= 0 or self.sample_rate <= 0:
            raise ValueError("stage velocity and sample rate must be positive")
        if self.periodic_period <= 0:
            raise ValueError("periodic_period must be positive")
        if self.drift_step < 0 or self.drift_smoothing < 1:
            raise ValueError("drift parameters out of range")

    @property
    def spacing(self) -> float:
        """Reported grid spacing in meters."""
        return self.velocity / self.sample_rate

    def reported_grid(self, n_samples: int, start: float = 0.0) -> np.ndarray:
        return start + self.spacing * np.arange(n_samples)


def true_positions(stage: StageModel, n_samples: int, start: float = 0.0) -> np.ndarray:
    """Actual mirror positions for an n-sample scan beginning at `start`.

    With all error terms zero this returns the reported grid exactly.
    Raises SynthesisError if the distorted trajectory is not strictly
    increasing (the pipeline assumes no stage reversals).
    """
    positions = _seed_free_trajectory(replace(stage, seed=None), n_samples)
    if stage.drift_step > 0.0:
        rng = np.random.default_rng(stage.seed)
        walk = np.cumsum(rng.normal(0.0, stage.drift_step, n_samples))
        walk = uniform_filter1d(walk, size=stage.drift_smoothing, mode="nearest")
        positions = positions + (walk - walk[0])
    positions = start + positions
    if np.any(np.diff(positions) <= 0.0):
        raise SynthesisError(
            "stage error model produced a non-monotone trajectory; "
            "reduce the periodic amplitude or drift step"
        )
    return positions


@functools.lru_cache(maxsize=8)
def _seed_free_trajectory(stage: StageModel, n_samples: int) -> np.ndarray:
    """true_positions' scale term plus lead-screw sine, cached read-only per seed-free stage."""
    traveled = stage.spacing * np.arange(n_samples)
    positions = traveled * (1.0 + stage.scale_error)
    if stage.periodic_amplitude != 0.0:
        positions = positions + stage.periodic_amplitude * np.sin(
            2.0 * math.pi * traveled / stage.periodic_period + stage.periodic_phase
        )
    positions.flags.writeable = False  # shared by every run of this stage
    return positions


@dataclass(frozen=True)
class NoiseModel:
    """Counting statistics of the two detector channels."""

    singles_scale: float        # mean intensity counts per bin at the fringe-free baseline
    coincidence_scale: float    # mean coincidence counts per bin at the baseline
    background: float = 0.0     # uncorrelated counts per bin added to both channels
    poisson_enabled: bool = True
    seed: int | None = None

    def __post_init__(self):
        if self.singles_scale <= 0 or self.coincidence_scale <= 0:
            raise ValueError("count scales must be positive")
        if self.background < 0:
            raise ValueError("background must be nonnegative")


def intensity_baseline(sample: Sample, spectrum: Spectrum) -> float:
    """Constant pedestal of the intensity channel.

    Sized with headroom over the worst case |sum_j r_j f| <= f(0) sum_j r_j
    so the modeled rate can never go negative.
    """
    peak = response_function(spectrum, 0.0)
    return BASELINE_HEADROOM * peak * float(np.sum(sample.reflectivities))


def _ascending(d) -> np.ndarray:
    """d as a 1-D float array; a scalar becomes one sample."""
    grid = np.asarray(d, dtype=float).reshape(-1)
    if np.ndim(d) > 1 or not np.all(np.isfinite(grid)) or np.any(grid[1:] < grid[:-1]):
        raise ValueError("d must be a finite scalar or an ascending 1-D array of positions")
    return grid


def _support(tau: np.ndarray, center: float, half: float) -> slice:
    return slice(*np.searchsorted(tau, (center - half, center + half)))


def _delays(sample: Sample, spectrum: Spectrum, d):
    """tau = 2 d / c (d ascending) and per surface its support slice, x = tau[sl] - tau_j, s(x)."""
    tau = 2.0 * d / SPEED_OF_LIGHT
    half = SUPPORT_COHERENCE_LENGTHS * spectrum.coherence_time
    slices = [_support(tau, tau_j, half) for tau_j in sample.delays]
    shifted = [(sl, tau[sl] - tau_j) for sl, tau_j in zip(slices, sample.delays)]
    return tau, [(sl, x, coherence_envelope(spectrum, x)) for sl, x in shifted]


def intensity_rate(sample: Sample, spectrum: Spectrum, d):
    """Interferogram I0 + sum_j r_j f(2 d / c - tau_j), model units, at a scalar or ascending d."""
    rate = _intensity_rate(sample, spectrum, *_delays(sample, spectrum, _ascending(d)))
    return rate.reshape(np.shape(d))


def _intensity_rate(sample: Sample, spectrum: Spectrum, tau, surfaces):
    rate = np.full(tau.shape, intensity_baseline(sample, spectrum))
    for r, (sl, x, env) in zip(sample.reflectivities, surfaces):
        rate[sl] += r * response_function(spectrum, x, env)
    return rate


def tpi_constant(sample: Sample, spectrum: Spectrum) -> complex:
    """Constant two-photon-interference amplitude S0 sum_j r_j^2 e^{-2i omega0 tau_j}.

    Every surface contributes with twice its phase at the center frequency
    and the summed amplitude does not depend on the scan position, which is
    what makes the coincidence carrier usable over the full scan.
    """
    taus = sample.delays
    refl = sample.reflectivities
    phases = np.exp(-2j * spectrum.center_frequency * taus)
    return complex(spectrum.total_power * np.sum(refl ** 2 * phases))


def coincidence_baseline(sample: Sample, spectrum: Spectrum) -> float:
    """Constant pedestal M0 of the coincidence channel.

    Sized with headroom over the worst-case swing of the HOM envelopes,
    the single-photon packets and the pair carrier, so the modeled rate
    can never go negative.
    """
    refl = sample.reflectivities
    env_peak = spectrum.total_power / (2.0 * math.pi)  # |s(0)|
    cross = float(sum(
        refl[i] * refl[j]
        for i in range(len(refl)) for j in range(i + 1, len(refl))
    ))
    swing = (
        2.0 * HOM_AMPLITUDE * env_peak * cross
        + 4.0 * FRINGE_AMPLITUDE * env_peak * float(np.sum(refl))
        + 2.0 * abs(tpi_constant(sample, spectrum))
    )
    return BASELINE_HEADROOM * swing


def coincidence_components(sample: Sample, spectrum: Spectrum, pump: PumpReference, d):
    """The three position-dependent coincidence terms, separately, in model units.

    Returns a dict with keys 'hom', 'fringes', 'pair_carrier'; the total rate is
    coincidence_baseline plus their sum. The pair carrier is evaluated against the pump
    frequency, which for exact degeneracy equals the 2 omega0 form bit for bit. d is a
    scalar or an ascending 1-D array; anything else raises ValueError.
    """
    parts = _coincidence_components(sample, spectrum, pump,
                                    *_delays(sample, spectrum, _ascending(d)))
    return {name: part.reshape(np.shape(d)) for name, part in parts.items()}


def _coincidence_components(sample: Sample, spectrum: Spectrum, pump: PumpReference,
                            tau, surfaces):
    taus = sample.delays
    refl = sample.reflectivities
    env_scale = spectrum.total_power / (2.0 * math.pi)
    sig = spectrum.sigma
    half = 0.5 * SUPPORT_COHERENCE_LENGTHS * spectrum.coherence_time  # doubled HOM argument

    hom = np.zeros(tau.shape)
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            center = taus[i] + taus[j]
            sl = _support(tau, 0.5 * center, half)
            hom[sl] += refl[i] * refl[j] * np.exp(-0.5 * (sig * (2.0 * tau[sl] - center)) ** 2)
    hom = 2.0 * HOM_AMPLITUDE * env_scale * hom

    packet = np.zeros(tau.shape)
    for r, (sl, _, env) in zip(refl, surfaces):
        packet[sl] += r * env
    fringes, done = np.zeros(tau.shape), 0
    for sl, _, _ in surfaces:  # the supports ascend with the surfaces: form each sample once
        sl, done = slice(max(sl.start, done), sl.stop), sl.stop
        fringes[sl] = 4.0 * FRINGE_AMPLITUDE * (
            packet[sl] * np.cos(spectrum.center_frequency * tau[sl]))

    pair_carrier = 2.0 * np.real(
        tpi_constant(sample, spectrum) * np.exp(-1j * pump.angular_frequency * tau)
    )
    return {"hom": hom, "fringes": fringes, "pair_carrier": pair_carrier}


@dataclass
class ScanTruth:
    """Noise-free ground truth retained alongside a synthesized trace."""

    true_d: np.ndarray
    intensity_rate: np.ndarray       # expected counts per bin
    coincidence_rate: np.ndarray     # expected counts per bin
    pair_carrier: np.ndarray         # pair-interference part, counts per bin


@dataclass
class ScanTrace:
    """One synthesized scan: reported positions and both count channels."""

    reported_d: np.ndarray
    intensity: np.ndarray
    coincidence: np.ndarray
    spacing: float
    metadata: dict = field(default_factory=dict)
    truth: ScanTruth | None = None

    def __post_init__(self):
        n = len(self.reported_d)
        if len(self.intensity) != n or len(self.coincidence) != n:
            raise ValueError("trace channels must share one length")

    @property
    def n_samples(self) -> int:
        return len(self.reported_d)


def scan_sample_count(stage: StageModel, scan_range: tuple[float, float]) -> int:
    start, stop = scan_range
    if stop <= start:
        raise SynthesisError("scan range must have stop > start")
    return int(round((stop - start) / stage.spacing))


def simulate_scan(sample: Sample, spectrum: Spectrum, pump: PumpReference,
                  stage: StageModel, noise: NoiseModel,
                  scan_range: tuple[float, float]) -> ScanTrace:
    """Synthesize one scan over [start, stop) of the reported axis.

    Expected per-bin counts are evaluated at the true mirror positions and,
    when noise.poisson_enabled, each bin is an independent Poisson draw.
    """
    pump.check_degenerate(spectrum)
    start, stop = scan_range
    n = scan_sample_count(stage, scan_range)
    if n < 16:
        raise SynthesisError(f"scan of {n} samples is too short to process")

    margin = MIN_MARGIN_COHERENCE_LENGTHS * spectrum.coherence_length
    z = sample.positions
    if z.min() - start < margin or (stop - stage.spacing) - z.max() < margin:
        raise SynthesisError(
            "scan range must cover every surface with at least "
            f"{MIN_MARGIN_COHERENCE_LENGTHS:g} coherence length of margin; "
            f"got [{start!r}, {stop!r}) for surfaces at {z.tolist()}"
        )
    if sample.min_gap() < MIN_GAP_COHERENCE_LENGTHS * spectrum.coherence_length:
        raise SynthesisError(
            "adjacent surfaces closer than the minimum resolvable gap of "
            f"{MIN_GAP_COHERENCE_LENGTHS:g} coherence lengths"
        )

    reported = stage.reported_grid(n, start)
    true_d = true_positions(stage, n, start)

    tau, surfaces = _delays(sample, spectrum, true_d)
    rate_i = _intensity_rate(sample, spectrum, tau, surfaces)
    parts = _coincidence_components(sample, spectrum, pump, tau, surfaces)
    baseline_m = coincidence_baseline(sample, spectrum)
    rate_m = baseline_m + parts["hom"] + parts["fringes"] + parts["pair_carrier"]
    # model units to counts per bin: each pedestal becomes its channel's scale
    expected_i = (noise.singles_scale * rate_i / intensity_baseline(sample, spectrum)
                  + noise.background)
    expected_m = noise.coincidence_scale * rate_m / baseline_m + noise.background
    if expected_i.min() < 0.0 or expected_m.min() < 0.0:
        raise SynthesisError("expected counts went negative; baseline headroom violated")

    if noise.poisson_enabled:
        rng = np.random.default_rng(noise.seed)
        intensity = rng.poisson(expected_i).astype(float)
        coincidence = rng.poisson(expected_m).astype(float)
    else:
        intensity = expected_i.copy()
        coincidence = expected_m.copy()

    metadata = {
        "n_samples": n,
        "scan_start": start,
        "scan_stop": stop,
        "spacing": stage.spacing,
        "velocity": stage.velocity,
        "sample_rate": stage.sample_rate,
        "poisson": bool(noise.poisson_enabled),
        "stage_seed": stage.seed,
        "noise_seed": noise.seed,
    }
    return ScanTrace(
        reported_d=reported,
        intensity=intensity,
        coincidence=coincidence,
        spacing=stage.spacing,
        metadata=metadata,
        truth=ScanTruth(
            true_d=true_d,
            intensity_rate=expected_i,
            coincidence_rate=expected_m,
            pair_carrier=noise.coincidence_scale * parts["pair_carrier"] / baseline_m,
        ),
    )
