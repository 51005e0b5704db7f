"""Self-calibration of the scan axis from the coincidence carrier.

The pair-interference term of the coincidence channel oscillates at
2 / lambda_p cycles per meter of true mirror travel with an amplitude that
does not depend on the scan position. Band-passing the coincidence trace
around that frequency, taking the analytic-signal phase, and scaling the
unwrapped phase by lambda_p / (4 pi) therefore reproduces the true position
axis up to an additive constant, which is anchored at the scan midpoint.

The band-pass is a real, so zero-phase, Tukey weight on the trace's
zero-padded FFT, exactly zero beyond +- relative_bandwidth / 2 of 2 / lambda_p
from its centre, the carrier's power centroid (a scale error moves the carrier
off 2 / lambda_p, where the kernel's response to the trace's ends would bend the
phase). So the carrier is read by complex demodulation with decimation
(Crochiere & Rabiner, Multirate Digital Signal Processing, 1983): the band's
bins, moved down by the centre bin c0 and folded modulo nfft / D, give the
baseband analytic carrier psi at every D-th sample from one short inverse FFT,
and the phase there is psi's plus 2 pi c0 m D / nfft. Those samples are the
knots; the ones within the weight's kernel main lobe of either end are invalid.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import ifft, irfft, next_fast_len, rfft

from qolcr.errors import CalibrationQualityError, ConfigError
from qolcr.model import BandpassSpec, PumpReference
from qolcr.scan import ScanTrace

# a band is read at every D-th sample (or lag), D the largest divisor of the
# FFT length up to this whose fold still holds the band twice over
MAX_DECIMATION = 16

# fixed-point steps allowed for a band's centre, its power centroid under its weight
CENTROID_STEPS = 50

# phase samples below this fraction of the median carrier amplitude are
# masked; more than MAX_BAD_FRACTION of the knots outside the edges masked fails
AMPLITUDE_FLOOR_RATIO = 0.2
MAX_BAD_FRACTION = 0.10

# reported travel in nm at each end over which the calibration map fits its
# extrapolation slope: 2000 samples of the default 5 nm spacing
EDGE_FIT_NM = 10000

# grid samples the resampler evaluates at a time: the temporaries of a block
# (64 KB each) are reused from the heap on every call, where grid-length ones
# are mapped afresh and fault in each page
_RESAMPLE_BLOCK = 8192


def tukey_band(center: float, half: float, size: int) -> tuple[int, np.ndarray]:
    """(first bin, weight over the bins from there) of the Tukey band weight about
    `center`, flat within half / 2 of it and cos^2-tapered to zero at +- half, on
    bins 0 .. size - 1; center and half are in bins."""
    lo = max(math.ceil(center - half), 0)
    hi = min(math.floor(center + half) + 1, size)
    taper = np.maximum(np.abs(np.arange(lo, hi) - center) / half - 0.5, 0.0)
    return lo, np.cos(math.pi * taper) ** 2


def centroid_band(power: np.ndarray, center: float,
                  half: Callable[[float], float]) -> tuple[int, np.ndarray, float]:
    """(first bin, power under the Tukey band weight normalized to unit sum, centre)
    at the fixed point where the centre is that weighted power's centroid, reached
    from `center`; half(centre) is the half-width, all in bins."""
    for _ in range(CENTROID_STEPS):
        lo, weighted = tukey_band(center, half(center), len(power))
        bins = np.arange(lo, lo + len(weighted))
        weighted *= power[lo:lo + len(weighted)]
        weighted /= weighted.sum()
        moved, center = center, float(bins @ weighted)
        if abs(center - moved) <= 1e-12 * moved:
            break
    return lo, weighted, center


def decimation(nfft: int, width: int) -> int:
    """D, the largest divisor of nfft up to MAX_DECIMATION whose fold of nfft / D
    bins holds a band of `width` bins twice over: no two of its bins share a
    residue, and its envelope and baseband phase are sampled without aliasing."""
    return max((d for d in range(1, MAX_DECIMATION + 1)
                if nfft % d == 0 and 2 * width * d <= nfft), default=1)


@dataclass(frozen=True)
class CarrierBand:
    """The carrier's band weight on a sample grid."""

    center: float                # cycles per sample
    half: float                  # half-width in cycles per sample
    edge: int                    # samples per end within the kernel's main lobe


@functools.lru_cache(maxsize=8)
def design_bandpass(spec: BandpassSpec, sample_spacing: float) -> CarrierBand:
    """The Tukey band weight of `spec` about 2 / lambda_p on a grid of spacing d'.

    The edge is the first sample where the weight's baseband kernel, a raised
    cosine's sinc(1.5 half t) cos(pi half t / 2) / (1 - (half t)^2), is below 1e-4
    of its peak: it falls to its first null at 1 / (1.5 half) with slope -1.35 half,
    so 1e-4 / (1.35 half) before it, never below 1 (270 samples at the default).
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
    half = (f2 - f1) / 2 * sample_spacing
    return CarrierBand(spec.center_frequency * sample_spacing, half,
                       math.ceil(1.0 / (1.5 * half) - 1e-4 / (1.35 * half)))


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(band: CarrierBand, nfft: int) -> tuple[int, np.ndarray]:
    """(first bin, the band weight from there) on an nfft-point real FFT; cached."""
    lo, weight = tukey_band(band.center * nfft, band.half * nfft, nfft // 2 + 1)
    weight.flags.writeable = False  # shared by every run with this band and length
    return lo, weight


def _fft_length(band: CarrierBand, n: int) -> int:
    """nfft for n samples: a multiple of MAX_DECIMATION that pads 4 edges or more
    of zeros. The FFT's wrap puts either end 5 edges from the other's knots, where
    the kernel's step response is settled to 1.5e-3 (at 3 edges, 1e-2 or 0.3 nm
    at the first knots)."""
    return MAX_DECIMATION * next_fast_len(-(-(n + 4 * band.edge) // MAX_DECIMATION), real=True)


def _filtered_spectrum(band: CarrierBand, values: np.ndarray) -> tuple[int, np.ndarray, int]:
    """(first bin, the band's bins of rfft(values, nfft) weighted, nfft)."""
    nfft = _fft_length(band, len(values))
    lo, weight = _kernel_spectrum(band, nfft)
    return lo, rfft(values, nfft)[lo:lo + len(weight)] * weight, nfft


def zero_phase_apply(band: CarrierBand, values: np.ndarray) -> np.ndarray:
    """The band weight applied to values, by one inverse real FFT."""
    lo, weighted, nfft = _filtered_spectrum(band, values)
    spectrum = np.zeros(nfft // 2 + 1, dtype=complex)
    spectrum[lo:lo + len(weighted)] = weighted
    return irfft(spectrum, nfft)[:len(values)]


@dataclass
class FilteredCarrier:
    """The band-passed coincidence trace read at every `step`-th sample: its
    analytic signal there is baseband[m] * exp(i ramp m)."""

    baseband: np.ndarray         # psi at samples 0, step, 2 step, ... below n_samples
    ramp: float                  # 2 pi c0 step / nfft: the carrier's phase per knot
    step: int                    # D, the samples between knots
    band: CarrierBand            # centred on the carrier; its edge exclusion in samples
    n_samples: int


def extract_tpi(trace: ScanTrace, spec: BandpassSpec) -> FilteredCarrier:
    """Isolate the pair-interference carrier from the coincidence channel.

    The channel mean is removed first; the pedestal carries no carrier
    information. The band is centred on the power centroid of its carrier; a
    pure tone in the band is its own centroid. psi(m), 2 / D times the inverse
    FFT of the folded bins, is the band-passed trace's analytic signal at sample
    m D times exp(-i ramp m).
    """
    n = trace.n_samples
    band = design_bandpass(spec, trace.spacing)
    if n < 2 * band.edge + MAX_DECIMATION:  # so a knot lies between the edge exclusions
        raise CalibrationQualityError(
            f"trace of {n} samples too short for the band's edge exclusion of 2 x {band.edge}")
    if not np.isfinite(trace.coincidence).all():
        raise CalibrationQualityError("coincidence channel holds non-finite samples")
    if not np.isfinite(trace.reported_d).all():
        raise CalibrationQualityError("trace holds non-finite reported positions")
    nfft = _fft_length(band, n)
    spectrum = rfft(trace.coincidence - trace.coincidence.mean(), nfft)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    center, half = band.center * nfft, band.half * nfft
    lo, weight = tukey_band(center, half, len(power))
    if not power[lo:lo + len(weight)] @ weight > 0:
        raise CalibrationQualityError("coincidence channel holds no carrier in its band")
    *_, center = centroid_band(power, center, lambda _: half)
    lo, weight = tukey_band(center, half, len(power))
    weighted = spectrum[lo:lo + len(weight)] * weight
    step = decimation(nfft, len(weighted))
    size, c0 = nfft // step, round(center)
    folded = np.zeros(size, dtype=complex)
    folded[(np.arange(lo, lo + len(weighted)) - c0) % size] = weighted  # one bin per residue
    baseband = ifft(folded, overwrite_x=True)[:-(-n // step)]
    baseband *= 2.0 / step
    return FilteredCarrier(baseband=baseband, ramp=2.0 * math.pi * c0 / size, step=step,
                           band=CarrierBand(center / nfft, band.half, band.edge), n_samples=n)


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
    """Unwrapped carrier phase per trace sample, read at every `step`-th one
    (NaN between), with its quality mask."""

    unwrapped_phase: np.ndarray
    quality_mask: np.ndarray     # True where the phase is trustworthy: only at read knots
    step: int = 1


def extract_phase(carrier: FilteredCarrier) -> PhaseTrace:
    """Carrier phase at every knot, unwrapped in baseband, where it turns slowly.

    Knots within the band's edge exclusion of either end are masked, and so
    are the other knots below AMPLITUDE_FLOOR_RATIO times their median
    amplitude; more than MAX_BAD_FRACTION of those masked is an error.
    """
    amplitude = np.abs(carrier.baseband)
    m = np.arange(len(amplitude))
    knots = m * carrier.step
    valid = (knots >= carrier.band.edge) & (knots < carrier.n_samples - carrier.band.edge)
    floor = AMPLITUDE_FLOOR_RATIO * float(np.median(amplitude[valid]))
    good = valid & (amplitude >= floor)
    bad = 1.0 - good[valid].mean()
    if bad > MAX_BAD_FRACTION:
        raise CalibrationQualityError(
            f"carrier amplitude below floor over {bad:.1%} of the scan "
            f"(allowed {MAX_BAD_FRACTION:.0%}); weak pair-interference signal"
        )
    phase = np.full(carrier.n_samples, np.nan)
    phase[knots] = _unwrap(np.angle(carrier.baseband)) + carrier.ramp * m
    mask = np.zeros(carrier.n_samples, dtype=bool)
    mask[knots] = good
    return PhaseTrace(unwrapped_phase=phase, quality_mask=mask, step=carrier.step)


def end_fit_knots(x: np.ndarray) -> int:
    """The knots from x[0] of monotone x an end-slope fit reads, 2 to a quarter of
    them: those under EDGE_FIT_NM out, less 1 pm so that rounding adds none."""
    within = np.count_nonzero(np.abs(x - x[0]) < (EDGE_FIT_NM - 1e-3) * 1e-9)
    return max(min(within, len(x) // 4), 2)


@dataclass
class CalibrationMap:
    """Monotone map from reported to calibrated positions.

    Knots cover the scan outside the band's edge exclusions; evaluation
    interpolates linearly between knots and extrapolates linearly outside them
    with end slopes fitted over the knots within EDGE_FIT_NM of reported travel
    of each end, 2 to a quarter of them (one pair would inherit too much noise).
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
        self._lo_slope = self._end_slope(self.reported, self.calibrated)
        self._hi_slope = self._end_slope(self.reported[::-1], self.calibrated[::-1])

    @staticmethod
    def _end_slope(x: np.ndarray, y: np.ndarray) -> float:
        n = end_fit_knots(x)
        slope = float(np.polyfit(x[:n], y[:n], 1)[0])
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
    calibrated and reported scales agree at the midpoint knot; reported_d is
    the trace's axis, one position per phase sample. The quality block counts
    knots: n_knots valid ones, valid_fraction of those read.
    """
    if len(reported_d) != len(phase.quality_mask):
        raise ConfigError("phase and reported axis must match in length")
    read = phase.quality_mask[::phase.step]
    idx = np.flatnonzero(read) * phase.step
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
        "valid_fraction": float(len(idx) / len(read)),
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
    extrapolation of the map covers the band's edge exclusions) and the cubic
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
