"""Quantum-calibrated optical low-coherence reflectometry toolkit.

Simulates intensity and photon-coincidence interferometer scans of layered
samples, self-calibrates the scan axis against the pump wavelength using the
constant-amplitude two-photon-interference carrier, and recovers absolute
surface separations from the autocorrelation of the calibrated intensity.
"""

from importlib import import_module

# each public name and the submodule that defines it; a name is imported on
# first access (PEP 562), so `import qolcr` loads no pipeline stage
_EXPORTS = {
    "SPEED_OF_LIGHT": "model",
    "PumpReference": "model",
    "RunConfig": "config",
    "Sample": "model",
    "Spectrum": "model",
    "Surface": "model",
    "default_config": "config",
    "linearity_experiment": "experiments",
    "load_config": "config",
    "parse_config": "config",
    "repeatability_experiment": "experiments",
    "run_pipeline": "experiments",
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"qolcr.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
