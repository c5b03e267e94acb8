"""The public surface: every name a module exports exists, and the
package imports no more of scipy than it needs."""

import os
import subprocess
import sys

import pytest

import ssjacobi
from ssjacobi import cli, jacobidiff, semisep, specfun, spectral


@pytest.mark.parametrize(
    "module", [specfun, semisep, jacobidiff, spectral, cli, ssjacobi],
    ids=lambda m: m.__name__,
)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_import_loads_no_scipy_special():
    # A fresh interpreter: tests import scipy.special for reference values.
    src = os.path.dirname(os.path.dirname(ssjacobi.__file__))
    code = "import sys, ssjacobi; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_only_the_cli_writes_csv():
    assert not any(hasattr(module, "csv") for module in (specfun, semisep, jacobidiff, spectral))
