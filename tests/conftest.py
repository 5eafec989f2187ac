"""No test writes into the package's store, ``src/dickesim/__pycache__``.

The session runs on a temporary store of its own: collection, the
module-scoped fixtures, which are set up before a test's own store is, and
every fresh interpreter started with ``fresh_python`` use it, so ``cc``
builds the RK4 kernel there once.  Each test runs on an empty store of its
own under the session's temporary directory.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from dickesim import spin_algebra

SRC = Path(spin_algebra.__file__).parents[1]
SESSION_STORE = tempfile.mkdtemp(prefix="dickesim-store-")
spin_algebra._STORE = SESSION_STORE


def pytest_sessionfinish(session):
    shutil.rmtree(SESSION_STORE, ignore_errors=True)


@pytest.fixture(autouse=True)
def _empty_store(monkeypatch, tmp_path_factory):
    monkeypatch.setattr(spin_algebra, "_STORE", str(tmp_path_factory.mktemp("store")))


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(script, store=SESSION_STORE)``: the argv of a fresh
    interpreter that imports the package from src/, points its store at
    ``store`` and runs ``script``; arguments appended to it reach the script
    as ``sys.argv[1:]``."""
    def argv(script, store=SESSION_STORE):
        prelude = "\n".join([
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "from dickesim import spin_algebra",
            f"spin_algebra._STORE = {str(store)!r}",
        ])
        return [sys.executable, "-c", f"{prelude}\n{script}"]
    return argv


@pytest.fixture(scope="session")
def fresh_cli(fresh_python):
    """The argv of a fresh interpreter on the session's store that runs the
    CLI as ``python -m dickesim.cli`` does, with the arguments appended to it."""
    return fresh_python("import runpy\n"
                        "runpy.run_module('dickesim.cli', run_name='__main__', alter_sys=True)")
