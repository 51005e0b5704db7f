"""Self-calibration of the scan axis from the coincidence carrier.

The pair-interference term of the coincidence channel oscillates at
2 / lambda_p cycles per meter of true mirror travel with an amplitude that
does not depend on the scan position. Band-passing the coincidence trace
around that frequency, taking the analytic-signal phase, and scaling the
unwrapped phase by lambda_p / (4 pi) therefore reproduces the true position
axis up to an additive constant, which is anchored at the scan midpoint.

All filtering is zero-phase: the band-pass is a symmetric (linear-phase)
FIR applied with its group delay compensated, and samples inside half a
filter length of either end are flagged invalid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import ifft, irfft, next_fast_len, rfft
from scipy.interpolate import CubicSpline
from scipy.signal import firwin, freqz

from qolcr.errors import CalibrationQualityError, ConfigError
from qolcr.model import BandpassSpec, PumpReference
from qolcr.scan import ScanTrace

# realized-response requirements checked after every design
PASSBAND_RIPPLE = 0.01       # relative gain error allowed on the carrier
DC_LEAKAGE = 1e-4            # maximum gain at zero frequency
STOPBAND_DB = 40.0           # required attenuation one octave below center

_KAISER_BETA = 8.96          # ~90 dB design

# phase samples below this fraction of the median carrier amplitude are
# masked; more than MAX_BAD_FRACTION of masked filter-valid samples fails
AMPLITUDE_FLOOR_RATIO = 0.2
MAX_BAD_FRACTION = 0.10

# knots per end over which the calibration map fits its extrapolation slope
EDGE_FIT_KNOTS = 2000


@functools.lru_cache(maxsize=8)
def design_bandpass(spec: BandpassSpec, sample_spacing: float) -> np.ndarray:
    """Kaiser-window linear-phase FIR for the given spacing of the d' grid.

    Validates the realized response: unit gain at the center within 1%,
    DC leakage at most 1e-4, and at least 40 dB of attenuation one octave
    below the center (where the classical lambda0 / 2 fringes sit).
    """
    if sample_spacing <= 0:
        raise ConfigError("sample spacing must be positive")
    fs = 1.0 / sample_spacing
    f1, f2 = spec.band_edges
    if f2 >= fs / 2:
        raise ConfigError(
            f"band edge {f2:.4g} cyc/m reaches Nyquist {fs / 2:.4g}; "
            "spacing too coarse for the requested band"
        )
    taps = firwin(spec.num_taps, [f1, f2], window=("kaiser", _KAISER_BETA),
                  pass_zero=False, fs=fs)

    probe = np.array([0.0, spec.center_frequency / 2.0, spec.center_frequency])
    _, resp = freqz(taps, worN=probe, fs=fs)
    gain = np.abs(resp)
    if abs(gain[2] - 1.0) > PASSBAND_RIPPLE:
        raise ConfigError(
            f"filter of {spec.num_taps} taps misses unit gain at the center "
            f"(got {gain[2]:.4f}); increase num_taps"
        )
    if gain[0] > DC_LEAKAGE:
        raise ConfigError(
            f"filter DC leakage {gain[0]:.2e} exceeds {DC_LEAKAGE:.0e}; "
            "increase num_taps"
        )
    if gain[1] > 10 ** (-STOPBAND_DB / 20.0):
        raise ConfigError(
            f"filter leaves only {-20 * math.log10(max(gain[1], 1e-300)):.1f} dB "
            f"at half the center frequency, need {STOPBAND_DB:.0f} dB; "
            "increase num_taps or widen the transition"
        )
    taps.flags.writeable = False  # cached per (spec, spacing), shared by every caller
    return taps


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(taps: bytes, nfft: int) -> np.ndarray:
    """rfft of the float64 taps zero-padded to nfft, read-only and cached."""
    spectrum = rfft(np.frombuffer(taps), nfft)
    spectrum.flags.writeable = False  # shared by every run with these taps and length
    return spectrum


def zero_phase_apply(taps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply a symmetric FIR with its group delay removed.

    The len(values) central samples of the full convolution (one real FFT
    pair, kernel spectrum cached per taps and FFT length) center the odd,
    symmetric kernel on each sample: the zero-phase response of a
    linear-phase filter away from the edges.
    """
    if len(taps) % 2 == 0:
        raise ConfigError("zero-phase application requires an odd tap count")
    n, m = len(values), len(taps)
    nfft = next_fast_len(n + m - 1, real=True)
    kernel = _kernel_spectrum(np.asarray(taps, dtype=float).tobytes(), nfft)
    start = (m - 1) // 2
    return irfft(rfft(values, nfft) * kernel, nfft)[start:start + n]


@dataclass
class FilteredCarrier:
    """Band-passed coincidence trace with its edge-validity mask."""

    values: np.ndarray
    valid: np.ndarray            # False within half a filter length of the ends
    reported_d: np.ndarray


def extract_tpi(trace: ScanTrace, spec: BandpassSpec) -> FilteredCarrier:
    """Isolate the pair-interference carrier from the coincidence channel.

    The channel mean is removed before filtering to keep the edge ramp of
    the convolution small; the pedestal carries no carrier information.
    """
    taps = design_bandpass(spec, trace.spacing)
    n = trace.n_samples
    half = (len(taps) - 1) // 2
    if n <= 2 * half:
        raise CalibrationQualityError(
            f"trace of {n} samples shorter than the filter "
            f"edge exclusion of 2 x {half}"
        )
    x = trace.coincidence - trace.coincidence.mean()
    filtered = zero_phase_apply(taps, x)
    valid = np.zeros(n, dtype=bool)
    valid[half:n - half] = True
    return FilteredCarrier(values=filtered, valid=valid, reported_d=trace.reported_d)


def analytic_from_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """Analytic signal x + i H[x] of a length-n real x whose rfft is `half`.

    Doubles the positive-frequency bins (DC and Nyquist kept) and zeroes the
    negative ones before one inverse FFT (Marple, IEEE TSP 47(9), 1999).
    """
    weighted = np.zeros(n, dtype=complex)
    weighted[: len(half)] = half
    weighted[1: (n + 1) // 2] *= 2.0
    return ifft(weighted, overwrite_x=True)


def _unwrap(phase: np.ndarray) -> np.ndarray:
    """np.unwrap(phase) bit for bit, folding only the steps that are not
    |step| < pi (NaN included): a finely sampled carrier wraps at few steps."""
    step = np.diff(phase)
    wraps = np.flatnonzero(~(np.abs(step) < math.pi))
    jump = step[wraps]
    folded = np.mod(jump + math.pi, 2.0 * math.pi) - math.pi
    np.copyto(folded, math.pi, where=(folded == -math.pi) & (jump > 0))
    correction = np.zeros_like(step)
    correction[wraps] = folded - jump
    return np.concatenate((phase[:1], phase[1:] + np.cumsum(correction)))


@dataclass
class PhaseTrace:
    """Unwrapped carrier phase with amplitude and a quality mask."""

    unwrapped_phase: np.ndarray
    amplitude: np.ndarray
    quality_mask: np.ndarray     # True where the phase is trustworthy; False in the filter edges
    reported_d: np.ndarray


def extract_phase(carrier: FilteredCarrier, method: str = "analytic") -> PhaseTrace:
    """Per-sample carrier phase, unwrapped so adjacent steps stay in (-pi, pi].

    method 'analytic' builds the quadrature by one-sided spectral selection
    (analytic signal); 'crossings' localizes carrier zero crossings and
    interpolates phase between them, as an independent cross-check.
    Samples with amplitude below AMPLITUDE_FLOOR_RATIO times the median are
    masked; more than MAX_BAD_FRACTION of masked valid samples is an error.
    """
    if method == "analytic":
        analytic = analytic_from_spectrum(rfft(carrier.values), len(carrier.values))
        amplitude = np.abs(analytic)
        phase = _unwrap(np.angle(analytic))
    elif method == "crossings":
        phase, amplitude = _phase_from_crossings(carrier)
    else:
        raise ConfigError(f"unknown phase extraction method {method!r}")

    mask = carrier.valid.copy()
    inside = amplitude[carrier.valid]
    floor = AMPLITUDE_FLOOR_RATIO * float(np.median(inside))
    mask &= amplitude >= floor
    bad = 1.0 - mask[carrier.valid].mean()
    if bad > MAX_BAD_FRACTION:
        raise CalibrationQualityError(
            f"carrier amplitude below floor over {bad:.1%} of the scan "
            f"(allowed {MAX_BAD_FRACTION:.0%}); weak pair-interference signal"
        )
    return PhaseTrace(unwrapped_phase=phase, amplitude=amplitude, quality_mask=mask,
                      reported_d=carrier.reported_d)


def _phase_from_crossings(carrier: FilteredCarrier):
    """Phase by zero-crossing interpolation; amplitude from extrema blocks."""
    x = carrier.values
    signs = np.sign(x)
    signs[signs == 0] = 1
    idx = np.nonzero(np.diff(signs) != 0)[0]
    if len(idx) < 8:
        raise CalibrationQualityError("too few carrier zero crossings to track phase")
    frac = x[idx] / (x[idx] - x[idx + 1])
    pos = idx + frac                       # crossing position in samples
    # ascending carrier phase passes pi/2 + k pi at successive crossings;
    # the first crossing's absolute multiple is irrelevant (anchored later)
    phase_at = 0.5 * math.pi + math.pi * np.arange(len(pos))
    k = np.arange(len(x), dtype=float)
    phase = np.interp(k, pos, phase_at)
    # linear extension beyond the first/last crossing
    head = k < pos[0]
    tail = k > pos[-1]
    slope0 = math.pi / (pos[1] - pos[0])
    slope1 = math.pi / (pos[-1] - pos[-2])
    phase[head] = phase_at[0] + (k[head] - pos[0]) * slope0
    phase[tail] = phase_at[-1] + (k[tail] - pos[-1]) * slope1
    # block amplitude: peak |x| over block k, from the last sample before
    # crossing k to the first after crossing k+1 (x[idx[k]:idx[k+1] + 2]);
    # the reduceat segments stop at idx[k+1], so its two samples are added
    amp_pos = 0.5 * (pos[:-1] + pos[1:])
    mag = np.abs(x)
    ends = idx[1:]
    amp_val = np.maximum.reduceat(mag[:ends[-1]], idx[:-1])
    np.maximum(amp_val, mag[ends], out=amp_val)
    np.maximum(amp_val, mag[ends + 1], out=amp_val)
    amplitude = np.interp(k, amp_pos, amp_val)
    return phase, amplitude


@dataclass
class CalibrationMap:
    """Monotone map from reported to calibrated positions.

    Knots cover the filter-valid part of the scan; evaluation interpolates
    linearly between knots and extrapolates linearly outside them with end
    slopes fitted over EDGE_FIT_KNOTS knots (single-pair slopes would
    inherit too much phase noise).
    """

    reported: np.ndarray
    calibrated: np.ndarray
    quality: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.reported) != len(self.calibrated):
            raise ConfigError("calibration knot arrays must match in length")
        if len(self.reported) < 4:
            raise ConfigError("calibration map needs at least 4 knots")
        if np.any(np.diff(self.reported) <= 0):
            raise CalibrationQualityError("reported knot positions not strictly increasing")
        if np.any(np.diff(self.calibrated) <= 0):
            raise CalibrationQualityError(
                "calibrated positions not strictly increasing; "
                "phase extraction failed or the stage reversed"
            )
        self._lo_slope = self._end_slope(0)
        self._hi_slope = self._end_slope(-1)

    def _end_slope(self, which: int) -> float:
        n = min(EDGE_FIT_KNOTS, len(self.reported) // 4)
        n = max(n, 2)
        sel = slice(0, n) if which == 0 else slice(-n, None)
        x = self.reported[sel]
        y = self.calibrated[sel]
        slope = float(np.polyfit(x, y, 1)[0])
        if slope <= 0:
            raise CalibrationQualityError("calibration end slope not positive")
        return slope

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.reported[0]), float(self.reported[-1])

    def __call__(self, positions):
        x = np.asarray(positions, dtype=float)
        y = np.interp(x, self.reported, self.calibrated)
        lo, hi = self.domain
        below = x < lo
        above = x > hi
        if below.any():
            y[below] = self.calibrated[0] + (x[below] - lo) * self._lo_slope
        if above.any():
            y[above] = self.calibrated[-1] + (x[above] - hi) * self._hi_slope
        return y

    def correction(self):
        """Knot-wise calibrated minus reported, the Fig-style correction curve."""
        return self.calibrated - self.reported


def build_calibration(phase: PhaseTrace, pump: PumpReference) -> CalibrationMap:
    """Scale the unwrapped phase to positions and anchor at the scan midpoint.

    One full carrier period corresponds to lambda_p / 2 of travel, so
    d = phi * lambda_p / (4 pi) + anchor with the anchor chosen to make the
    calibrated and reported scales agree at the midpoint sample.
    """
    mask = phase.quality_mask
    idx = np.nonzero(mask)[0]
    if len(idx) < 16:
        raise CalibrationQualityError("too few valid phase samples to calibrate")
    scale = pump.wavelength / (4.0 * math.pi)
    phi = phase.unwrapped_phase[idx]
    if np.any(np.diff(phi) <= 0):
        raise CalibrationQualityError(
            "unwrapped carrier phase is not strictly increasing; "
            "stage reversal or phase-extraction failure"
        )
    dprime = phase.reported_d[idx]
    mid = idx[int(np.argmin(np.abs(idx - len(phase.reported_d) // 2)))]
    anchor = phase.reported_d[mid] - phase.unwrapped_phase[mid] * scale
    calibrated = phi * scale + anchor
    quality = {
        "n_knots": int(len(idx)),
        "valid_fraction": float(len(idx) / len(mask)),
        "anchor_reported_d": float(phase.reported_d[mid]),
        "rms_correction": float(np.sqrt(np.mean((calibrated - dprime) ** 2))),
        "max_abs_correction": float(np.abs(calibrated - dprime).max()),
    }
    return CalibrationMap(reported=dprime, calibrated=calibrated, quality=quality)


@dataclass
class CalibratedRecord:
    """Intensity resampled onto a uniform grid of calibrated positions."""

    positions: np.ndarray
    intensity: np.ndarray
    grid_step: float
    metadata: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.positions) != len(self.intensity):
            raise ConfigError("record arrays must match in length")
        steps = np.diff(self.positions)
        if len(steps) and not np.allclose(steps, self.grid_step, rtol=1e-9, atol=0):
            raise ConfigError("calibrated record grid is not uniform")

    @property
    def n_samples(self) -> int:
        return len(self.positions)


def resample_intensity(trace: ScanTrace, calibration: CalibrationMap,
                       grid_step: float | None = None) -> CalibratedRecord:
    """Cubic resampling of the intensity onto a uniform calibrated grid.

    Every intensity sample is placed at its calibrated position (linear
    extrapolation of the map covers the filter-excluded edges; the
    extrapolated fraction is recorded in the quality block) and a cubic
    spline through those points is evaluated on a uniform grid.
    """
    if grid_step is None:
        grid_step = trace.spacing
    if grid_step <= 0:
        raise ConfigError("grid step must be positive")
    positions = calibration(trace.reported_d)
    if np.any(np.diff(positions) <= 0):
        raise CalibrationQualityError("calibrated sample positions not increasing")
    lo, hi = calibration.domain
    extrapolated = float(np.mean((trace.reported_d < lo) | (trace.reported_d > hi)))

    first = math.ceil(positions[0] / grid_step - 1e-9)
    last = math.floor(positions[-1] / grid_step + 1e-9)
    if last - first < 15:
        raise CalibrationQualityError("calibrated span too short to resample")
    grid = np.arange(first, last + 1) * grid_step
    spline = CubicSpline(positions, trace.intensity)
    values = spline(grid)
    quality = dict(calibration.quality)
    quality["extrapolated_fraction"] = extrapolated
    quality["grid_step"] = float(grid_step)
    return CalibratedRecord(
        positions=grid, intensity=values, grid_step=float(grid_step),
        metadata=dict(trace.metadata), quality=quality,
    )
