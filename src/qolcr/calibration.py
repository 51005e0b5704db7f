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
from scipy.fft import irfft, next_fast_len, rfft

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

# grid samples the resampler evaluates at a time: the temporaries of a block
# (64 KB each) are reused from the heap on every call, where grid-length ones
# are mapped afresh and fault in each page
_RESAMPLE_BLOCK = 8192


@functools.lru_cache(maxsize=8)
def design_bandpass(spec: BandpassSpec, sample_spacing: float) -> np.ndarray:
    """Kaiser-window linear-phase FIR for the given spacing of the d' grid.

    Validates the realized response: unit gain at the center within 1%,
    DC leakage at most 1e-4, and at least 40 dB of attenuation one octave
    below the center (where the classical lambda0 / 2 fringes sit).
    """
    if not 0 < sample_spacing < math.inf:
        raise ConfigError(f"sample spacing must be a finite positive number, got {sample_spacing}")
    fs = 1.0 / sample_spacing
    f1, f2 = spec.band_edges
    if f2 >= fs / 2:
        raise ConfigError(
            f"band edge {f2:.4g} cyc/m reaches Nyquist {fs / 2:.4g}; "
            "spacing too coarse for the requested band"
        )
    from scipy.signal import firwin, freqz  # loaded on first use; designs are cached
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


def _filtered_spectrum(taps: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, int]:
    """(rfft(values, nfft) * kernel spectrum, nfft): the full convolution's spectrum."""
    if len(taps) % 2 == 0:
        raise ConfigError("zero-phase application requires an odd tap count")
    nfft = next_fast_len(len(values) + len(taps) - 1, real=True)
    spectrum = rfft(values, nfft)
    spectrum *= _kernel_spectrum(np.asarray(taps, dtype=float).tobytes(), nfft)
    return spectrum, nfft


def zero_phase_apply(taps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Symmetric FIR with its group delay removed: the zero-phase response away from the edges."""
    start = (len(taps) - 1) // 2
    return irfft(*_filtered_spectrum(taps, values))[start:start + len(values)]


@dataclass
class FilteredCarrier:
    """Band-passed coincidence trace as its analytic signal values + i quadrature."""

    values: np.ndarray           # irfft(S, nfft)[delay:delay + n], S the convolution's rfft
    quadrature: np.ndarray       # the Hilbert transform of irfft(S, nfft), sliced alike
    delay: int                   # the filter's group delay: this many edge samples per end


def extract_tpi(trace: ScanTrace, spec: BandpassSpec) -> FilteredCarrier:
    """Isolate the pair-interference carrier from the coincidence channel.

    The channel mean is removed before filtering to keep the edge ramp of
    the convolution small; the pedestal carries no carrier information.
    """
    n = trace.n_samples
    half = (spec.num_taps - 1) // 2
    if n <= 2 * half:
        raise CalibrationQualityError(
            f"trace of {n} samples shorter than the filter edge exclusion of 2 x {half}")
    if not np.isfinite(trace.coincidence).all():
        raise CalibrationQualityError("coincidence channel holds non-finite samples")
    if not np.isfinite(trace.reported_d).all():
        raise CalibrationQualityError("trace holds non-finite reported positions")
    x = trace.coincidence - trace.coincidence.mean()
    spectrum, nfft = _filtered_spectrum(design_bandpass(spec, trace.spacing), x)
    return FilteredCarrier(values=irfft(spectrum, nfft)[half:half + n],
                           quadrature=_quadrature(spectrum, nfft, half, n), delay=half)


def _quadrature(spectrum: np.ndarray, nfft: int, delay: int, n: int) -> np.ndarray:
    """Hilbert transform of irfft(spectrum, nfft), sliced to [delay, delay + n): the
    imaginary part of the analytic signal (Marple, IEEE TSP 47(9), 1999) by one
    inverse real FFT of -i times the spectrum, with DC and (for even nfft) Nyquist zeroed."""
    rotated = spectrum * -1j
    rotated[0] = 0.0
    if nfft % 2 == 0:
        rotated[-1] = 0.0
    return irfft(rotated, nfft, overwrite_x=True)[delay:delay + n]


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
    """Unwrapped carrier phase with its quality mask."""

    unwrapped_phase: np.ndarray
    quality_mask: np.ndarray     # True where the phase is trustworthy; False in the filter edges


def extract_phase(carrier: FilteredCarrier) -> PhaseTrace:
    """Per-sample carrier phase, unwrapped so adjacent steps stay in (-pi, pi].

    Phase and amplitude come from the analytic signal values + i quadrature. The
    `delay` edge samples at each end are masked, and so are filter-valid samples
    below AMPLITUDE_FLOOR_RATIO times their median amplitude; more than
    MAX_BAD_FRACTION of the valid samples masked is an error.
    """
    amplitude = np.hypot(carrier.values, carrier.quadrature)
    phase = _unwrap(np.arctan2(carrier.quadrature, carrier.values))

    valid = slice(carrier.delay, len(amplitude) - carrier.delay)
    floor = AMPLITUDE_FLOOR_RATIO * float(np.median(amplitude[valid]))
    mask = np.zeros(len(amplitude), dtype=bool)
    mask[valid] = amplitude[valid] >= floor
    bad = 1.0 - mask[valid].mean()
    if bad > MAX_BAD_FRACTION:
        raise CalibrationQualityError(
            f"carrier amplitude below floor over {bad:.1%} of the scan "
            f"(allowed {MAX_BAD_FRACTION:.0%}); weak pair-interference signal"
        )
    return PhaseTrace(unwrapped_phase=phase, quality_mask=mask)


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
        if x.ndim == 0:  # a scalar result takes no masked assignment
            return self(x[None])[0]
        y = np.interp(x, self.reported, self.calibrated)
        lo, hi = self.domain
        below = x < lo
        above = x > hi
        if below.any():
            y[below] = self.calibrated[0] + (x[below] - lo) * self._lo_slope
        if above.any():
            y[above] = self.calibrated[-1] + (x[above] - hi) * self._hi_slope
        return y


def build_calibration(phase: PhaseTrace, reported_d: np.ndarray,
                      pump: PumpReference) -> CalibrationMap:
    """Scale the unwrapped phase to positions and anchor at the scan midpoint.

    One full carrier period corresponds to lambda_p / 2 of travel, so
    d = phi * lambda_p / (4 pi) + anchor with the anchor chosen to make the
    calibrated and reported scales agree at the midpoint sample; reported_d
    is the trace's axis, one position per phase sample.
    """
    mask = phase.quality_mask
    if len(reported_d) != len(mask):
        raise ConfigError("phase and reported axis must match in length")
    idx = np.nonzero(mask)[0]
    if len(idx) < 16:
        raise CalibrationQualityError("too few valid phase samples to calibrate")
    scale = pump.wavelength / (4.0 * math.pi)
    phi = phase.unwrapped_phase[idx]
    dprime = reported_d[idx]
    mid = idx[int(np.argmin(np.abs(idx - len(reported_d) // 2)))]
    anchor = reported_d[mid] - phase.unwrapped_phase[mid] * scale
    calibrated = phi * scale + anchor
    quality = {
        "n_knots": int(len(idx)),
        "valid_fraction": float(len(idx) / len(mask)),
        "anchor_reported_d": float(reported_d[mid]),
        "rms_correction": float(np.sqrt(np.mean((calibrated - dprime) ** 2))),
        "max_abs_correction": float(np.abs(calibrated - dprime).max()),
    }
    return CalibrationMap(reported=dprime, calibrated=calibrated, quality=quality)


@dataclass
class CalibratedRecord:
    """Intensity resampled onto a uniform grid of calibrated positions; the
    record writer and reader in tracefile check that it steps by grid_step."""

    positions: np.ndarray
    intensity: np.ndarray
    grid_step: float
    metadata: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.positions) != len(self.intensity):
            raise ConfigError("record arrays must match in length")

    @property
    def n_samples(self) -> int:
        return len(self.positions)


def _bessel_hermite(x: np.ndarray, dx: np.ndarray, y: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of (x, y) with Bessel slopes, evaluated on grid,
    for n >= 3 finite knots x with normal steps dx.

    The slope at a knot is the derivative there of the parabola through it and
    its two neighbours; at each end, of the end parabola (the values of
    np.gradient(y, x, edge_order=2)). On PPoly's interval x_i <= g < x_i+1,
    clamped to the end ones, it sums ((0.0 + y) + s u) + c1 u^2 + c0 u^3 in
    u = g - x_i with CubicHermiteSpline's coefficients, in PPoly's order and
    from PPoly's 0.0 (so -0.0 becomes 0.0): the result is
    CubicHermiteSpline(x, y, s)(grid) bit for bit.
    """
    slope = np.diff(y)
    slope /= dx
    s = np.empty_like(y)
    s[1:-1] = (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]) / (dx[:-1] + dx[1:])
    s[0] = ((2 * dx[0] + dx[1]) * slope[0] - dx[0] * slope[1]) / (dx[0] + dx[1])
    s[-1] = ((2 * dx[-1] + dx[-2]) * slope[-1] - dx[-1] * slope[-2]) / (dx[-2] + dx[-1])
    out = np.empty_like(grid)
    n = len(x)
    for lo in range(0, len(grid), _RESAMPLE_BLOCK):
        g = grid[lo:lo + _RESAMPLE_BLOCK]
        # the block's knot span [a, b) holds every x_i <= g < x_i+1 it needs; interp's
        # search from the previous index gives i + (g - x_i) / dx_i, which rounds up
        # to i + 1 at most: truncating and stepping back where x_i > g is PPoly's
        # searchsorted(x, g, side="right") - 1
        a = max(int(np.searchsorted(x, g[0], side="right")) - 1, 0)
        b = min(int(np.searchsorted(x, g[-1], side="right")) + 1, n)
        i = np.interp(g, x[a:b], np.arange(a, b, dtype=float)).astype(np.intp)
        i -= x[i] > g
        np.clip(i, 0, n - 2, out=i)
        h, m, s0, s1 = dx[i], slope[i], s[i], s[i + 1]
        u = g - x[i]
        t = (s0 + s1 - 2 * m) / h
        c1, c0 = (m - s0) / h - t, t / h
        u2 = u * u
        out[lo:lo + _RESAMPLE_BLOCK] = ((y[i] + 0.0) + s0 * u) + c1 * u2 + c0 * (u2 * u)
    return out


def resample_intensity(trace: ScanTrace, calibration: CalibrationMap,
                       grid_step: float | None = None) -> CalibratedRecord:
    """Cubic resampling of the intensity onto a uniform calibrated grid.

    Every intensity sample is placed at its calibrated position (linear
    extrapolation of the map covers the filter-excluded edges) and the cubic
    Hermite interpolant with Bessel slopes through those points is evaluated
    on a uniform grid. Returns the record with no metadata and quality
    {extrapolated_fraction}, the share of samples outside the map's domain.
    """
    if grid_step is None:
        grid_step = trace.spacing
    if not 0 < grid_step < math.inf:
        raise ConfigError(f"grid step must be a finite positive number, got {grid_step}")
    if trace.n_samples < 3:
        raise CalibrationQualityError(
            f"trace of {trace.n_samples} samples; the interpolant needs 3")
    if not np.isfinite(trace.intensity).all():
        raise CalibrationQualityError("intensity channel holds non-finite samples")
    positions = calibration(trace.reported_d)
    if not np.isfinite(positions).all():
        raise CalibrationQualityError("trace holds non-finite reported positions")
    dx = np.diff(positions)
    if dx.min() < np.finfo(float).tiny:  # the spline's interval search needs a finite 1 / dx
        raise CalibrationQualityError("calibrated sample positions not increasing by a normal step")
    lo, hi = calibration.domain
    extrapolated = float(np.mean((trace.reported_d < lo) | (trace.reported_d > hi)))

    first = math.ceil(positions[0] / grid_step - 1e-9)
    last = math.floor(positions[-1] / grid_step + 1e-9)
    if last - first < 15:
        raise CalibrationQualityError("calibrated span too short to resample")
    grid = np.arange(first, last + 1) * grid_step
    values = _bessel_hermite(positions, dx, trace.intensity, grid)
    return CalibratedRecord(positions=grid, intensity=values, grid_step=float(grid_step),
                            quality={"extrapolated_fraction": extrapolated})
