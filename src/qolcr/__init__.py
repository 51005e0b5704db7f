"""Quantum-calibrated optical low-coherence reflectometry toolkit.

Simulates intensity and photon-coincidence interferometer scans of layered
samples, self-calibrates the scan axis against the pump wavelength using the
constant-amplitude two-photon-interference carrier, and recovers absolute
surface separations from the autocorrelation of the calibrated intensity.
The package exports the config and model names; the studies live in
`qolcr.experiments`, and `qolcr.cli` is the entry point.
"""

from qolcr.config import RunConfig, default_config, load_config, parse_config
from qolcr.model import SPEED_OF_LIGHT, PumpReference, Sample, Spectrum, Surface

__all__ = ["SPEED_OF_LIGHT", "PumpReference", "RunConfig", "Sample", "Spectrum", "Surface",
           "default_config", "load_config", "parse_config"]

__version__ = "0.1.0"
