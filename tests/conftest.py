"""Shared fixtures: a private kernel cache and the choice of chain engine."""

import importlib

import pytest

# the module, not the function the package namespace exports under this name
ANNEAL = importlib.import_module("errorbudget.anneal")


@pytest.fixture(autouse=True, scope="session")
def private_kernel_cache(tmp_path_factory):
    """Build the compiled chain kernel into a temporary cache, not the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        ANNEAL._chain_kernel.cache_clear()
        yield
    ANNEAL._chain_kernel.cache_clear()


@pytest.fixture
def kernel_engine():
    """Chains run in the compiled kernel; skipped only where no C compiler exists."""
    if ANNEAL._chain_kernel() is None:
        if ANNEAL._find_compiler() is None:
            pytest.skip("no C compiler to build the chain kernel")
        pytest.fail("the chain kernel failed to build")


@pytest.fixture
def reference_engine(monkeypatch):
    """Chains run in the Python reference loop."""
    monkeypatch.setattr(ANNEAL, "_chain_kernel", lambda: None)
