"""Each test's constant exponentials go to an empty store of its own under
the session's temporary directory, never into the package's ``__pycache__``,
where the compiled RK4 kernel stays."""

import pytest

from dickesim import spin_algebra


@pytest.fixture(autouse=True)
def _empty_expm_store(monkeypatch, tmp_path_factory):
    monkeypatch.setattr(spin_algebra, "_EXPM_STORE", str(tmp_path_factory.mktemp("expm-store")))
