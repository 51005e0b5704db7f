"""Closed-form pieces of the interferometer signal model.

Units are SI throughout: positions in meters, angular frequencies in rad/s,
delays in seconds. A reflector at depth z contributes a round-trip delay
tau = 2 z / c, and positions are converted to delays only at these formula
boundaries.

Fourier convention for the temporal envelope:

    s(tau) = (1 / 2 pi) * integral S(Omega) exp(-1j Omega tau) dOmega

so a spectral density normalized to total power S0 gives s(0) = S0 / (2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qolcr.errors import ConfigError

# exact by definition of the meter
SPEED_OF_LIGHT = 299_792_458.0

# FWHM of a Gaussian = sqrt(8 ln 2) * sigma
_FWHM_PER_SIGMA = math.sqrt(8.0 * math.log(2.0))

# relative tolerance on omega_p = 2 omega0 for degenerate down-conversion
DEGENERACY_REL_TOL = 1e-6

# S0, the spectral power in model units: counts are rates over a baseline, so it cancels
SPECTRAL_POWER = 1.0e6


@dataclass(frozen=True)
class Surface:
    """A single reflecting interface of the sample."""

    reflectivity: float  # amplitude reflectivity, 0..1
    position: float      # z in meters, measured along the sample arm

    def __post_init__(self):
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(
                f"surface reflectivity must lie in [0, 1], got {self.reflectivity}"
            )
        if not math.isfinite(self.position):
            raise ValueError("surface position must be finite")


@dataclass(frozen=True)
class Sample:
    """An ordered stack of reflecting surfaces."""

    surfaces: tuple[Surface, ...]

    def __post_init__(self):
        if len(self.surfaces) == 0:
            raise ValueError("sample must contain at least one surface")
        positions = [s.position for s in self.surfaces]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("surface positions must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "Sample":
        """Build from (reflectivity, position) pairs."""
        return cls(tuple(Surface(r, z) for r, z in pairs))

    @property
    def reflectivities(self) -> np.ndarray:
        return np.array([s.reflectivity for s in self.surfaces])

    @property
    def positions(self) -> np.ndarray:
        return np.array([s.position for s in self.surfaces])

    @property
    def delays(self) -> np.ndarray:
        """Round-trip delays 2 z_j / c of every surface."""
        return 2.0 * self.positions / SPEED_OF_LIGHT

    def min_gap(self) -> float:
        """Smallest distance between adjacent surfaces (inf for one surface)."""
        z = self.positions
        if z.size < 2:
            return math.inf
        return float(np.min(np.diff(z)))

    def shifted(self, index: int, offset: float) -> "Sample":
        """Copy of the sample with one surface moved by `offset` meters."""
        surfaces = list(self.surfaces)
        s = surfaces[index]
        surfaces[index] = Surface(s.reflectivity, s.position + offset)
        return Sample(tuple(surfaces))


@dataclass(frozen=True)
class Spectrum:
    """Gaussian signal/idler spectral density around the degenerate frequency.

    S(Omega) = S0 / (sigma sqrt(2 pi)) * exp(-Omega^2 / (2 sigma^2)) where
    Omega is the detuning from center_frequency and the density integrates
    to SPECTRAL_POWER.
    """

    center_frequency: float  # omega0 in rad/s
    fwhm: float              # full width at half maximum of S, rad/s

    def __post_init__(self):
        for name in ("center_frequency", "fwhm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"spectrum {name} must be positive")

    @classmethod
    def from_wavelength(cls, center_wavelength: float, bandwidth: float) -> "Spectrum":
        """Construct from a center wavelength and a FWHM wavelength bandwidth.

        The frequency width follows from d(omega)/d(lambda) at the center:
        fwhm = 2 pi c * bandwidth / center_wavelength^2.
        """
        if center_wavelength <= 0 or bandwidth <= 0:
            raise ValueError("wavelengths must be positive")
        omega0 = 2.0 * math.pi * SPEED_OF_LIGHT / center_wavelength
        fwhm = 2.0 * math.pi * SPEED_OF_LIGHT * bandwidth / center_wavelength ** 2
        return cls(omega0, fwhm)

    @property
    def sigma(self) -> float:
        """Gaussian standard deviation in rad/s."""
        return self.fwhm / _FWHM_PER_SIGMA

    @property
    def center_wavelength(self) -> float:
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.center_frequency

    @property
    def coherence_time(self) -> float:
        """FWHM of |s(tau)|; s is Gaussian with width 1/sigma in tau."""
        return _FWHM_PER_SIGMA / self.sigma

    @property
    def coherence_length(self) -> float:
        """FWHM of a single-surface fringe packet on the position axis.

        The packet envelope vs mirror position d is |s(2 d / c)|, so the
        axial width is c * coherence_time / 2.
        """
        return SPEED_OF_LIGHT * self.coherence_time / 2.0


@dataclass(frozen=True)
class PumpReference:
    """The pump wave whose frequency anchors the calibrated axis."""

    wavelength: float  # lambda_p in meters

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("pump wavelength must be positive")

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.wavelength

    def check_degenerate(self, spectrum: Spectrum) -> None:
        """Require omega_p = 2 omega0 within DEGENERACY_REL_TOL (degenerate SPDC)."""
        omega_p = self.angular_frequency
        if abs(omega_p - 2.0 * spectrum.center_frequency) > DEGENERACY_REL_TOL * omega_p:
            raise ValueError(
                "pump frequency is not twice the signal center frequency: "
                f"omega_p={omega_p:.6e}, 2*omega0={2 * spectrum.center_frequency:.6e}"
            )


@dataclass(frozen=True)
class BandpassSpec:
    """Band-pass prescription in cycles per meter of reported travel."""

    center_frequency: float        # cycles per meter, 2 / lambda_p for the carrier
    relative_bandwidth: float

    def __post_init__(self):
        # each message starts with the field name, which parse_config prefixes
        if self.center_frequency <= 0:
            raise ConfigError("center_frequency must be positive")
        if not 0 < self.relative_bandwidth < 1:
            raise ConfigError("relative_bandwidth must lie in (0, 1)")

    @property
    def band_edges(self) -> tuple[float, float]:
        half = 0.5 * self.relative_bandwidth * self.center_frequency
        return (self.center_frequency - half, self.center_frequency + half)


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

    def __post_init__(self):
        if self.velocity <= 0 or self.sample_rate <= 0:
            raise ValueError("stage velocity and sample rate must be positive")
        if not self.scale_error > -1:
            raise ValueError("scale_error must exceed -1: at -1 or below the drive "
                             "stands still or runs backwards")
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


@dataclass(frozen=True)
class NoiseModel:
    """Counting statistics of the two detector channels."""

    singles_scale: float        # mean intensity counts per bin at the fringe-free baseline
    coincidence_scale: float    # mean coincidence counts per bin at the baseline
    background: float = 0.0     # uncorrelated counts per bin added to both channels
    poisson_enabled: bool = True

    def __post_init__(self):
        if self.singles_scale <= 0 or self.coincidence_scale <= 0:
            raise ValueError("count scales must be positive")
        if self.background < 0:
            raise ValueError("background must be nonnegative")


def spectrum_density(spectrum: Spectrum, detuning):
    """Spectral density S(Omega) at detuning Omega from the center frequency."""
    det = np.asarray(detuning, dtype=float)
    sig = spectrum.sigma
    norm = SPECTRAL_POWER / (sig * math.sqrt(2.0 * math.pi))
    return norm * np.exp(-0.5 * (det / sig) ** 2)


def coherence_envelope(spectrum: Spectrum, tau):
    """Envelope s(tau), the inverse transform of the density, as a real array.

    For the Gaussian density the closed form is
    s(tau) = S0 / (2 pi) * exp(-sigma^2 tau^2 / 2); it is real because S is
    symmetric.
    """
    tau = np.asarray(tau, dtype=float)
    sig = spectrum.sigma
    return SPECTRAL_POWER / (2.0 * math.pi) * np.exp(-0.5 * (sig * tau) ** 2)


def response_function(spectrum: Spectrum, tau, envelope=None):
    """Interference kernel f(tau) = 2 Re{ s(tau) exp(-1j omega0 tau) }.

    A surface at delay tau_j contributes r_j * f(tau - tau_j) to the
    intensity scan. Even in tau, peak value 2 s(0) at tau = 0. Pass s(tau)
    as `envelope` when it is already computed.
    """
    tau = np.asarray(tau, dtype=float)
    env = coherence_envelope(spectrum, tau) if envelope is None else envelope
    return 2.0 * (env * np.cos(spectrum.center_frequency * tau))
