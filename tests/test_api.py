"""The public surface: every name a module exports exists."""

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
