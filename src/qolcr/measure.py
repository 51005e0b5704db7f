"""Separation estimation from the calibrated intensity record.

Every pair of surfaces leaves a fringe cluster in the autocorrelation of
the mean-subtracted intensity at a lag equal to their separation. The
cluster envelope locates the peak to a fraction of the packet width, and
the carrier phase inside the cluster refines it to a fraction of a fringe;
when the envelope vertex is off by more than half a fringe spacing
(lambda0 / 4 of lag) the refinement can lock onto the wrong fringe, which is
what the outlier flag reports.

The autocorrelation is the plain lag sum normalized once by its zero-lag
value, A(k) = sum_i x_i x_{i+k} / sum_i x_i^2. For a record of isolated
fringe packets this is the right estimator: a cross-packet cluster whose
packets sit interior to the overlap window enters the sum at full
amplitude (no taper to tilt its envelope), Cauchy-Schwarz bounds every
lag by A(0), and sparse far lags stay small in proportion to the energy
they actually carry. Overlap-count (unbiased) normalization would
inflate an interior cluster at lag k by n/(n-k), and per-lag coefficient
normalization would report O(1) correlation for vanishing packet tails.

The clusters are searched and refined on the band-limited autocorrelation:
the one-sided power spectrum weighted by a smooth window about its own
carrier band. Counting noise is white while the fringe content lies within
a few percent of 2 / lambda0, so the weight is the matched filter for a
packet of known band (Turin, IRE Trans. Inf. Theory 6, 311 (1960)). It
keeps the counting noise's spike at zero lag out of the zero-lag half-width
that scales every window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import fft, ifft, next_fast_len, rfft
from scipy.signal import find_peaks

from qolcr.calibration import CalibratedRecord, _unwrap, centroid_band, decimation
from qolcr.errors import ConfigError, PeakCountError, PeakFitError, PipelineQualityError

# smallest sample overlap allowed between the shifted record copies; lags
# closer to the record length than this are dropped
MIN_OVERLAP = 256

# clusters below this fraction of the zero-lag value are never trusted,
# whatever the record's noise floor; a genuine surface pair contributes
# about r_i r_j / sum(r^2), well above this for usable reflectivities
MIN_CLUSTER_HEIGHT = 1e-3

# clusters must also clear this multiple of the median envelope beyond the
# zero-lag guard
NOISE_FLOOR_FACTOR = 6.0

# fewest lags a cluster window must hold for the envelope and phase fits
MIN_CLUSTER_SAMPLES = 64

# in zero-lag half-widths: the guard hiding the zero-lag cluster, the least
# spacing of two clusters, and the half-widths of a cluster window and its fit
ZERO_GUARD, MIN_SEPARATION, CLUSTER_WINDOW, FIT_WINDOW = 4, 3, 1.5, 0.3

# half-width of the band weight, relative to its centre frequency: the
# source's 30 nm FWHM at 810 nm spans 3.7% of the carrier, and at 5 nm steps
# the band keeps about 0.5% of the white counting noise
BAND_HALFWIDTH = 0.11


@dataclass
class Autocorrelogram:
    """Autocorrelation of the mean-subtracted record, held as its power spectrum.

    `power` is the one-sided spectrum W over FFT bins 0 .. nfft // 2 of the
    zero-padded record: |X|^2 at DC (and at Nyquist for even nfft), 2 |X|^2
    in between. Its inverse FFT is the analytic autocorrelation
    A(k) + i H[A](k), kept for lags k = 0 .. n_lags - 1 at k * grid_step.
    The full-band `analytic`, `values`, `envelope` and `lags` are computed
    on first read; the separation estimate reads only the band-limited signal.
    """

    power: np.ndarray = field(repr=False)
    nfft: int
    n_lags: int
    grid_step: float

    def __post_init__(self):
        power = self.power
        if not (power.dtype.kind == "f" and power.shape == (self.nfft // 2 + 1,)
                and 0 < self.n_lags <= len(power)):
            raise ConfigError("autocorrelogram must hold the real one-sided power spectrum "
                              "of its FFT length, and lags up to half that length")
        if not (power.min() >= 0.0 and power.any()):  # so 0 < A(0) and every |A(k)| <= A(0)
            raise ConfigError("autocorrelogram power spectrum must be nonnegative and nonzero")

    @cached_property
    def analytic(self) -> np.ndarray:
        """A(k) + i H[A](k), normalized to A(0) = 1: its real part is the
        autocorrelation, its modulus the envelope, its angle the carrier phase.

        W is real, so its inverse FFT is conj(rfft(W)) / nfft at every lag up
        to nfft / 2: one forward real FFT, and no window edge leaves artifacts.
        """
        analytic = rfft(self.power, self.nfft)[: self.n_lags]
        np.conjugate(analytic, out=analytic)
        analytic /= analytic[0].real
        analytic[0] = 1.0
        return analytic

    @property
    def values(self) -> np.ndarray:
        """The real autocorrelation A(k)."""
        return self.analytic.real

    @cached_property
    def envelope(self) -> np.ndarray:
        return np.abs(self.analytic)

    @cached_property
    def lags(self) -> np.ndarray:
        """k * grid_step in meters."""
        return np.arange(self.n_lags) * self.grid_step

    def window(self, center: float, halfwidth: float) -> slice:
        """The lag indices within center +- halfwidth."""
        lo = max(math.ceil((center - halfwidth) / self.grid_step), 0)
        hi = min(math.floor((center + halfwidth) / self.grid_step) + 1, self.n_lags)
        return slice(lo, max(lo, hi))

    @cached_property
    def band(self) -> tuple[int, np.ndarray]:
        """(first bin, band-weighted W over the band's bins, normalized to unit sum).

        The weight is the calibration's Tukey band of half-width BAND_HALFWIDTH
        times its centre, whose flat inner half keeps each cluster's in-band
        spectrum shape. The centre is W's power centroid under that weight, a
        fixed point reached from W's largest bin: it moves continuously with W,
        where the largest bin could flip under rounding.
        """
        def half(center: float) -> float:
            if BAND_HALFWIDTH * center < 1.0:
                raise PeakFitError(f"the record's power spectrum has no fringe band: it "
                                   f"centres on FFT bin {center:.3g} of {self.nfft}")
            return BAND_HALFWIDTH * center

        lo, weighted, _ = centroid_band(self.power, float(np.argmax(self.power)), half)
        return lo, weighted

    @cached_property
    def decimation(self) -> int:  # 15 at the default, against a 1340-lag zero-lag half-width
        return decimation(self.nfft, len(self.band[1]))

    @cached_property
    def band_decimated(self) -> np.ndarray:
        """The band-limited analytic autocorrelation at lags 0, D, 2D, ... (D the
        decimation), normalized at zero lag.

        Lag D m of the weighted W's inverse DFT sums the bins folded modulo
        M = nfft / D against exp(2 pi i r m / M), so one M-point real FFT of
        the folded bins gives every D-th lag exactly.
        """
        lo, weighted = self.band
        size = self.nfft // self.decimation
        folded = np.bincount(np.arange(lo, lo + len(weighted)) % size, weights=weighted,
                             minlength=size)
        out = rfft(folded)[: (self.n_lags - 1) // self.decimation + 1]
        return np.conjugate(out, out=out)

    def band_limited(self, lags: slice) -> np.ndarray:
        """The band-limited analytic autocorrelation at every lag of the slice.

        A chirp-z transform (Bluestein, IEEE Trans. Audio Electroacoust. 18,
        451 (1970)) evaluates the band's inverse DFT at just these lags, with
        u s = (u^2 + s^2 - (s - u)^2) / 2 turning it into one convolution.
        Every phase is an integer modulo 2 nfft before it is scaled to radians.
        """
        lo, weighted = self.band
        k0, count, nfft = lags.start, lags.stop - lags.start, self.nfft
        width = len(weighted)
        size = next_fast_len(count + width - 1)
        t = np.arange(max(count, width))
        chirp = np.exp((-1j * math.pi / nfft) * (t * t % (2 * nfft)))
        kernel = np.zeros(size, dtype=complex)
        kernel[:count] = chirp[:count]
        kernel[size - width + 1:] = chirp[width - 1:0:-1]
        u = t[:width]
        seq = weighted * np.exp((1j * math.pi / nfft) * ((u * u + 2 * u * k0) % (2 * nfft)))
        conv = ifft(fft(seq, size) * fft(kernel))[:count]
        s = t[:count]
        return conv * np.exp((1j * math.pi / nfft) * ((s * s + 2 * lo * (k0 + s)) % (2 * nfft)))


def autocorrelate(record: CalibratedRecord) -> Autocorrelogram:
    """Autocorrelation of the mean-subtracted record, as its one-sided power spectrum.

    Zero-padded to nfft >= 2n - 1, the FFT gives the linear (non-circular)
    lag sums. Only lags 0 .. k_cap are kept, with k_cap capped so at least
    MIN_OVERLAP samples contribute.
    """
    n = len(record.intensity)
    if n < 2 * MIN_OVERLAP:
        raise PipelineQualityError(f"record of {n} samples too short to autocorrelate")
    if not np.isfinite(record.intensity).all():
        raise PipelineQualityError("record holds non-finite intensity samples")
    x = record.intensity - record.intensity.mean()

    nfft = next_fast_len(2 * n - 1)
    spec = rfft(x, nfft)
    power = spec.real * spec.real
    power += spec.imag * spec.imag
    power[1: (nfft + 1) // 2] *= 2.0
    if not power.any():
        raise PipelineQualityError("record has zero variance")
    return Autocorrelogram(power=power, nfft=nfft, n_lags=n - MIN_OVERLAP + 1,
                           grid_step=record.grid_step)


def parabolic_peak_fit(positions, values):
    """Least-squares parabola through the samples; returns (vertex, sigma, coeffs).

    The fit must be concave with its maximum interior to the sampled
    window. sigma is the vertex standard error propagated from the fit
    residuals (zero for an exact quadratic).
    """
    x = np.asarray(positions, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.size < 3:
        raise PeakFitError("parabolic fit needs at least 3 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise PeakFitError("parabolic fit given non-finite samples")
    x0 = x.mean()
    u = x - x0
    design = np.column_stack([u ** 2, u, np.ones_like(u)])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b, c = coeffs
    if a >= 0:
        raise PeakFitError("peak fit is not concave; no maximum to locate")
    vertex = x0 - b / (2.0 * a)
    if not (x.min() <= vertex <= x.max()):
        raise PeakFitError("fitted maximum lies outside the fit window")

    dof = x.size - 3
    sigma = 0.0
    if dof > 0:
        resid = y - design @ coeffs
        s2 = float(resid @ resid) / dof
        cov = s2 * np.linalg.inv(design.T @ design)
        grad = np.array([b / (2.0 * a * a), -1.0 / (2.0 * a), 0.0])
        var = float(grad @ cov @ grad)
        sigma = math.sqrt(max(var, 0.0))
    return float(vertex), sigma, (float(a), float(b), float(c))


@dataclass
class PeakEstimate:
    """One inter-surface separation recovered from an autocorrelation cluster."""

    separation: float          # final value: the carrier-refined position
    envelope_vertex: float
    uncertainty: float         # vertex standard error from the envelope fit
    outlier_flag: bool         # refinement moved > half a fringe from the vertex
    diagnostics: dict = field(default_factory=dict)


@dataclass
class MeasurementReport:
    """All separations of one record, sorted ascending."""

    peaks: list
    metadata: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    @property
    def separations(self) -> list:
        return [p.separation for p in self.peaks]

    def to_dict(self) -> dict:
        return {
            "peaks": [
                {
                    "separation_m": p.separation,
                    "envelope_vertex_m": p.envelope_vertex,
                    "uncertainty_m": p.uncertainty,
                    "outlier": bool(p.outlier_flag),
                    "diagnostics": dict(p.diagnostics),
                }
                for p in self.peaks
            ],
            "quality": dict(self.quality),
            "metadata": dict(self.metadata),
        }


def _zero_lag_halfwidth(acorr: Autocorrelogram) -> float:
    """Half-max half-width of the band-limited zero-lag cluster, in lags.

    The zero-lag cluster has the same coherence envelope as every other
    cluster, so its half-width sets the natural length scale of every
    window without needing the source spectrum. The crossing is read
    between the decimated lags on a straight line.
    """
    env = np.abs(acorr.band_decimated)
    below = int(np.argmin(env >= 0.5))  # first decimated lag below half max
    if below == 0:
        raise PeakFitError("zero-lag cluster of the autocorrelogram is malformed")
    above = env[below - 1]
    edge = acorr.decimation * (below - 1 + (above - 0.5) / (above - env[below]))
    if 2 * CLUSTER_WINDOW * edge < MIN_CLUSTER_SAMPLES:
        raise PeakFitError(
            f"zero-lag half-width of only {edge:.3g} lag(s) leaves a cluster window under "
            f"{MIN_CLUSTER_SAMPLES} lags: uncorrelated counting noise dominates the record")
    return float(edge)


def estimate_separations(acorr: Autocorrelogram, expected_count: int,
                         refinement_offset: float = 0.0) -> MeasurementReport:
    """Locate the `expected_count` strongest clusters and refine each one.

    The search reads the band-limited signal at every D-th lag and each
    refinement reads it at every lag around its cluster's envelope peak,
    so the full-band autocorrelation is never computed. refinement_offset shifts
    the carrier-fringe seed away from the envelope vertex; nonzero values
    force the one-fringe ambiguity and are used to exercise the outlier
    flag. Returns the peaks sorted by separation, no metadata, and quality
    {cluster_search}.
    """
    if expected_count < 1:
        raise ConfigError("expected_count must be at least 1")

    edge = _zero_lag_halfwidth(acorr)
    step = acorr.decimation
    w_half = edge * acorr.grid_step
    zero_guard = ZERO_GUARD * w_half
    env = np.abs(acorr.band_decimated)
    guard_idx = math.ceil(ZERO_GUARD * edge / step)
    if guard_idx >= len(env):
        raise PeakCountError("autocorrelogram holds no lags beyond the zero-lag guard")
    search = env.copy()
    search[:guard_idx] = 0.0
    floor = max(
        NOISE_FLOOR_FACTOR * float(np.median(env[guard_idx:])),
        MIN_CLUSTER_HEIGHT,
    )
    peaks_idx, props = find_peaks(search, height=floor, distance=MIN_SEPARATION * edge / step)
    if len(peaks_idx) < expected_count:
        raise PeakCountError(
            f"found {len(peaks_idx)} cluster(s) above the noise floor, "
            f"expected {expected_count}"
        )
    order = np.argsort(props["peak_heights"])[::-1][:expected_count]
    chosen = np.sort(peaks_idx[order])

    estimates = []
    for idx in chosen:
        center = float(idx * step) * acorr.grid_step
        estimates.append(_refine_cluster(acorr, center, w_half, refinement_offset))
    estimates.sort(key=lambda p: p.separation)
    if any(p.separation <= zero_guard for p in estimates):
        raise PeakFitError("a refined separation fell inside the zero-lag guard")
    return MeasurementReport(peaks=estimates, quality={"cluster_search": {
        "w_half": w_half,
        "zero_guard": zero_guard,
        "min_separation": MIN_SEPARATION * w_half,
        "noise_floor": floor,
        "n_candidates": int(len(peaks_idx)),
    }})


def _refine_cluster(acorr: Autocorrelogram, center: float, w_half: float,
                    refinement_offset: float) -> PeakEstimate:
    window = acorr.window(center, CLUSTER_WINDOW * w_half)
    if window.stop - window.start < MIN_CLUSTER_SAMPLES:
        raise PeakFitError("cluster too close to the edge of the autocorrelogram")
    # the envelope peaks within a decimation step of its largest decimated
    # lag, so every lag is read only where the fit around that peak can reach
    step = acorr.decimation
    first = -(-window.start // step)
    coarse = np.abs(acorr.band_decimated[first: (window.stop - 1) // step + 1])
    near = acorr.window((first + int(np.argmax(coarse))) * step * acorr.grid_step,
                        (FIT_WINDOW * w_half + step * acorr.grid_step))
    read = slice(max(near.start, window.start), min(near.stop, window.stop))
    analytic = acorr.band_limited(read)
    lags = np.arange(read.start, read.stop) * acorr.grid_step
    env = np.abs(analytic)
    phase = _unwrap(np.angle(analytic))
    peak_lag = float(lags[np.argmax(env)])

    fit_hw = FIT_WINDOW * w_half
    fit_sel = (lags >= peak_lag - fit_hw) & (lags <= peak_lag + fit_hw)
    vertex, sigma, coeffs = parabolic_peak_fit(lags[fit_sel], env[fit_sel])

    # carrier period from the mean phase slope across the fit region
    slope = float(np.polyfit(lags[fit_sel], phase[fit_sel], 1)[0])
    if slope <= 0:
        raise PeakFitError("carrier phase not increasing across the cluster")
    period = 2.0 * math.pi / slope     # lambda0 / 2 on the lag axis

    # nearest carrier maximum to the (optionally offset) seed: the carrier
    # phase is zero modulo 2 pi exactly at the true separation
    seed = vertex + refinement_offset
    phi_seed = float(np.interp(seed, lags, phase))
    target = 2.0 * math.pi * round(phi_seed / (2.0 * math.pi))
    if not (phase[0] <= target <= phase[-1]):
        raise PeakFitError("carrier refinement target outside the lags read around the "
                           "envelope peak")
    refined = float(np.interp(target, phase, lags))

    outlier = abs(refined - vertex) > period / 2.0
    return PeakEstimate(
        separation=refined,
        envelope_vertex=vertex,
        uncertainty=sigma,
        outlier_flag=bool(outlier),
        diagnostics={
            "cluster_center": center,
            "carrier_period": period,
            "fit_coefficients": coeffs,
            "fit_halfwidth": fit_hw,
            "envelope_peak": float(env.max()),
        },
    )
