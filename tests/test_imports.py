"""The import contract: `import qolcr` and config handling load no scipy and no
pipeline stage."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qolcr

ROOT = Path(__file__).resolve().parents[1]

# each public name and the submodule that defines it
DEFINED_IN = {
    "SPEED_OF_LIGHT": "model",
    "PumpReference": "model",
    "RunConfig": "config",
    "Sample": "model",
    "Spectrum": "model",
    "Surface": "model",
    "default_config": "config",
    "load_config": "config",
    "parse_config": "config",
}

CONFIG_ONLY = """
import json, sys
import qolcr
qolcr.load_config("configs/default.json")
qolcr.default_config()
stages = ["qolcr.scan", "qolcr.calibration", "qolcr.measure", "qolcr.experiments",
          "qolcr.tracefile", "qolcr.cli"]
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "stages": [m for m in stages if m in sys.modules]}))
"""


def test_config_handling_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CONFIG_ONLY], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == {"scipy": [], "stages": []}


def test_all_lists_the_public_names():
    assert sorted(qolcr.__all__) == sorted(DEFINED_IN)


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_every_export_is_its_defining_modules_object(name):
    module = importlib.import_module(f"qolcr.{DEFINED_IN[name]}")
    assert getattr(qolcr, name) is getattr(module, name)
    assert name in dir(qolcr)


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'qolcr' has no attribute 'no_such_name'"):
        qolcr.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qolcr import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qolcr.__all__)


@pytest.mark.parametrize("name", ["StageModel", "NoiseModel"])
def test_scan_reexports_the_model_dataclasses(name):
    import qolcr.model
    import qolcr.scan

    assert getattr(qolcr.scan, name) is getattr(qolcr.model, name)


def test_cli_import_profile_lists_scipy_signal_and_ndimage():
    """The benchmark's import layer indexes both as entries of their own in this
    profile. ROADMAP item 8 makes it tolerate an absent module; this test goes then."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qolcr.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                          timeout=60)
    entries = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    assert {"scipy.signal", "scipy.ndimage"} <= entries
