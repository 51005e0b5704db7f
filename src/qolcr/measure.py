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

from qolcr.calibration import CalibratedRecord, _unwrap, analytic_from_spectrum
from qolcr.errors import ConfigError, PeakCountError, PeakFitError

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


@dataclass
class Autocorrelogram:
    """Mean-subtracted analytic autocorrelation normalized to A(0) = 1.

    `analytic` is A(k) + i H[A](k) for lags k = 0, 1, ... only, so array
    index k is lag k * grid_step: its real part is the autocorrelation, its
    modulus the fringe envelope and its angle the carrier phase. Negative
    lags, the conjugate mirror, are not stored.
    """

    lags: np.ndarray          # k * grid_step for k = 0 .. len - 1, meters
    analytic: np.ndarray      # complex, analytic[0] == 1
    grid_step: float
    metadata: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    envelope: np.ndarray = field(init=False, repr=False)  # |analytic|, set once

    def __post_init__(self):
        if not np.iscomplexobj(self.analytic):
            raise ConfigError("autocorrelogram must hold the complex analytic signal")
        if len(self.lags) != len(self.analytic):
            raise ConfigError("autocorrelogram arrays must match in length")
        if abs(self.analytic[0] - 1.0) > 1e-12:
            raise ConfigError("autocorrelogram must be normalized to A(0) = 1")
        self.envelope = np.abs(self.analytic)
        if np.max(self.envelope) > 1.0 + 1e-9:
            raise ConfigError("autocorrelogram exceeds its zero-lag value")

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

    Zero-padded FFT gives the linear (non-circular) lag sums, and the
    analytic signal of the one-sided |X|^2 (analytic_from_spectrum) gives
    their analytic signal over the whole lag range in one inverse FFT, so no
    window edge leaves artifacts. Normalized once by the zero-lag sum, and
    every bin nonnegative, |A(k)| <= A(0) = 1. Only lags 0 .. k_cap are
    kept, with k_cap capped so at least MIN_OVERLAP samples contribute.
    """
    n = len(record.intensity)
    if n < 2 * MIN_OVERLAP:
        raise ConfigError(f"record of {n} samples too short to autocorrelate")
    x = record.intensity - record.intensity.mean()
    k_cap = n - MIN_OVERLAP

    nfft = next_fast_len(2 * n - 1)
    spec = rfft(x, nfft)
    power = np.conj(spec)
    power *= spec    # conj(spec) * spec, whatever numpy's temporary elision picks
    analytic = analytic_from_spectrum(power, nfft)[: k_cap + 1]
    if analytic[0].real <= 0:
        raise ConfigError("record has zero variance")
    analytic /= analytic[0].real
    analytic[0] = 1.0
    return Autocorrelogram(
        lags=np.arange(k_cap + 1) * record.grid_step, analytic=analytic,
        grid_step=record.grid_step,
        metadata=dict(record.metadata), quality=dict(record.quality),
    )


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


def _cluster_parameters(acorr: Autocorrelogram):
    """Window sizes derived from the zero-lag cluster of A itself.

    The zero-lag cluster has the same coherence envelope as every other
    cluster, so its half-max half-width sets the natural length scale
    without needing the source spectrum.
    """
    edge = np.argmin(acorr.envelope >= 0.5)  # first index below half max
    if edge == 0:
        raise PeakFitError("zero-lag cluster of the autocorrelogram is malformed")
    # a cluster window spans 2 * 1.5 half-widths (envelope_halfwidth below)
    if 3 * edge < MIN_CLUSTER_SAMPLES:
        raise PeakFitError(
            f"zero-lag half-width of only {edge} lag(s) leaves a cluster window under "
            f"{MIN_CLUSTER_SAMPLES} lags: uncorrelated counting noise dominates the record")
    w_half = float(edge) * acorr.grid_step
    return {
        "w_half": w_half,
        "zero_guard": 4.0 * w_half,
        "min_separation": 3.0 * w_half,
        "envelope_halfwidth": 1.5 * w_half,
        "fit_halfwidth": 0.3 * w_half,
    }


def estimate_separations(acorr: Autocorrelogram, expected_count: int,
                         refinement_offset: float = 0.0) -> MeasurementReport:
    """Locate the `expected_count` strongest clusters and refine each one.

    refinement_offset shifts the carrier-fringe seed away from the
    envelope vertex; nonzero values force the one-fringe ambiguity and are
    used to exercise the outlier flag.
    """
    if expected_count < 1:
        raise ConfigError("expected_count must be at least 1")

    params = _cluster_parameters(acorr)
    env = acorr.envelope
    search = env.copy()
    guard_idx = int(round(params["zero_guard"] / acorr.grid_step))
    if guard_idx >= len(search):
        raise PeakCountError("autocorrelogram holds no lags beyond the zero-lag guard")
    search[:guard_idx] = 0.0
    floor = max(
        NOISE_FLOOR_FACTOR * float(np.median(env[guard_idx:])),
        MIN_CLUSTER_HEIGHT,
    )
    distance = max(int(round(params["min_separation"] / acorr.grid_step)), 1)
    peaks_idx, props = find_peaks(search, height=floor, distance=distance)
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
        estimates.append(_refine_cluster(acorr, center, params, refinement_offset))
    estimates.sort(key=lambda p: p.separation)
    if any(p.separation <= params["zero_guard"] for p in estimates):
        raise PeakFitError("a refined separation fell inside the zero-lag guard")
    quality = dict(acorr.quality)
    quality["cluster_search"] = {
        "w_half": params["w_half"],
        "zero_guard": params["zero_guard"],
        "min_separation": params["min_separation"],
        "noise_floor": floor,
        "n_candidates": int(len(peaks_idx)),
    }
    return MeasurementReport(peaks=estimates, metadata=dict(acorr.metadata), quality=quality)


def _refine_cluster(acorr: Autocorrelogram, center: float, params: dict,
                    refinement_offset: float) -> PeakEstimate:
    window = acorr.window(center, params["envelope_halfwidth"])
    analytic = acorr.analytic[window]
    lags = acorr.lags[window]
    if len(analytic) < MIN_CLUSTER_SAMPLES:
        raise PeakFitError("cluster too close to the edge of the autocorrelogram")
    env = acorr.envelope[window]
    phase = _unwrap(np.angle(analytic))
    peak_lag = float(lags[np.argmax(env)])

    fit_hw = params["fit_halfwidth"]
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
