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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfft
from scipy.signal import find_peaks

from qolcr.calibration import CalibratedRecord, _unwrap
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


@dataclass
class Autocorrelogram:
    """Mean-subtracted analytic autocorrelation normalized to A(0) = 1.

    `analytic` is A(k) + i H[A](k) for lags k = 0, 1, ... only, so array
    index k is lag k * grid_step: its real part is the autocorrelation, its
    modulus the fringe envelope and its angle the carrier phase. Negative
    lags, the conjugate mirror, are not stored.
    """

    analytic: np.ndarray      # complex, analytic[0] == 1
    grid_step: float
    envelope: np.ndarray = field(init=False, repr=False)  # |analytic|, set once
    lags: np.ndarray = field(init=False, repr=False)  # k * grid_step in meters, set once

    def __post_init__(self):
        if not np.iscomplexobj(self.analytic):
            raise ConfigError("autocorrelogram must hold the complex analytic signal")
        if abs(self.analytic[0] - 1.0) > 1e-12:
            raise ConfigError("autocorrelogram must be normalized to A(0) = 1")
        self.envelope = np.abs(self.analytic)
        if np.max(self.envelope) > 1.0 + 1e-9:
            raise ConfigError("autocorrelogram exceeds its zero-lag value")
        self.lags = np.arange(len(self.analytic)) * self.grid_step

    @property
    def values(self) -> np.ndarray:
        """The real autocorrelation A(k)."""
        return self.analytic.real

    def window(self, center: float, halfwidth: float) -> slice:
        lo = int(np.searchsorted(self.lags, center - halfwidth, side="left"))
        hi = int(np.searchsorted(self.lags, center + halfwidth, side="right"))
        return slice(lo, hi)


def autocorrelate(record: CalibratedRecord) -> Autocorrelogram:
    """Analytic autocorrelation of the mean-subtracted record.

    Zero-padded FFT gives the linear (non-circular) lag sums. Their analytic
    signal over the whole lag range comes from the one-sided spectrum W:
    |X|^2 at DC (and at Nyquist for even nfft), 2 |X|^2 in between, zero
    above. W is real, so its inverse FFT is conj(rfft(W)) / nfft at every
    lag up to nfft / 2, beyond k_cap: one forward real FFT, and no window
    edge leaves artifacts. Normalized once by the zero-lag sum, and every
    bin nonnegative, |A(k)| <= A(0) = 1. Only lags 0 .. k_cap are kept,
    with k_cap capped so at least MIN_OVERLAP samples contribute.
    """
    n = len(record.intensity)
    if n < 2 * MIN_OVERLAP:
        raise PipelineQualityError(f"record of {n} samples too short to autocorrelate")
    if not np.isfinite(record.intensity).all():
        raise PipelineQualityError("record holds non-finite intensity samples")
    x = record.intensity - record.intensity.mean()
    k_cap = n - MIN_OVERLAP

    nfft = next_fast_len(2 * n - 1)
    weighted = np.empty(nfft)  # before the FFT: allocated after it, the stage faults more pages
    spec = rfft(x, nfft)
    half = len(spec)
    np.multiply(spec.real, spec.real, out=weighted[:half])
    weighted[:half] += spec.imag * spec.imag
    weighted[1: (nfft + 1) // 2] *= 2.0
    weighted[half:] = 0.0
    del spec  # freed before the second FFT allocates its output
    analytic = rfft(weighted, overwrite_x=True)[: k_cap + 1]
    np.conjugate(analytic, out=analytic)
    if analytic[0].real <= 0:
        raise PipelineQualityError("record has zero variance")
    analytic /= analytic[0].real
    analytic[0] = 1.0
    return Autocorrelogram(analytic=analytic, grid_step=record.grid_step)


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


def _zero_lag_halfwidth(acorr: Autocorrelogram) -> int:
    """Half-max half-width of the zero-lag cluster of A itself, in lags.

    The zero-lag cluster has the same coherence envelope as every other
    cluster, so its half-width sets the natural length scale of every
    window without needing the source spectrum.
    """
    edge = int(np.argmin(acorr.envelope >= 0.5))  # first index below half max
    if edge == 0:
        raise PeakFitError("zero-lag cluster of the autocorrelogram is malformed")
    if 2 * CLUSTER_WINDOW * edge < MIN_CLUSTER_SAMPLES:
        raise PeakFitError(
            f"zero-lag half-width of only {edge} lag(s) leaves a cluster window under "
            f"{MIN_CLUSTER_SAMPLES} lags: uncorrelated counting noise dominates the record")
    return edge


def estimate_separations(acorr: Autocorrelogram, expected_count: int,
                         refinement_offset: float = 0.0) -> MeasurementReport:
    """Locate the `expected_count` strongest clusters and refine each one.

    refinement_offset shifts the carrier-fringe seed away from the
    envelope vertex; nonzero values force the one-fringe ambiguity and are
    used to exercise the outlier flag. Returns the peaks sorted by separation,
    no metadata, and quality {cluster_search}.
    """
    if expected_count < 1:
        raise ConfigError("expected_count must be at least 1")

    edge = _zero_lag_halfwidth(acorr)
    w_half = edge * acorr.grid_step
    zero_guard = ZERO_GUARD * w_half
    env = acorr.envelope
    search = env.copy()
    guard_idx = ZERO_GUARD * edge
    if guard_idx >= len(search):
        raise PeakCountError("autocorrelogram holds no lags beyond the zero-lag guard")
    search[:guard_idx] = 0.0
    floor = max(
        NOISE_FLOOR_FACTOR * float(np.median(env[guard_idx:])),
        MIN_CLUSTER_HEIGHT,
    )
    peaks_idx, props = find_peaks(search, height=floor, distance=MIN_SEPARATION * edge)
    if len(peaks_idx) < expected_count:
        raise PeakCountError(
            f"found {len(peaks_idx)} cluster(s) above the noise floor, "
            f"expected {expected_count}"
        )
    order = np.argsort(props["peak_heights"])[::-1][:expected_count]
    chosen = np.sort(peaks_idx[order])

    estimates = []
    for idx in chosen:
        center = float(idx) * acorr.grid_step
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
    analytic = acorr.analytic[window]
    lags = acorr.lags[window]
    if len(analytic) < MIN_CLUSTER_SAMPLES:
        raise PeakFitError("cluster too close to the edge of the autocorrelogram")
    env = acorr.envelope[window]
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
        raise PeakFitError("carrier refinement target outside the cluster window")
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
