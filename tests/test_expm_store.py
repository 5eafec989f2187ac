"""The store of the package's two constant exponentials.

``spin_algebra._stored_expm`` keeps the Jy(pi/2) pulse of ``half_excited_x``
and the parity scan's analysis pulses as ``.npy`` files, so that a process
after the first loads them instead of importing scipy.  Every stored array,
and every constant built from one, must equal live scipy word for word.
Each test here starts on the empty store that ``conftest.py`` gives it.
"""

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dickesim import observables as obs
from dickesim import spin_algebra as sa

PHASE_COUNTS = (1, 3, 40, 401)
SRC = Path(sa.__file__).parents[1]


def _pulse_generators(n_ions):
    return -1j * (np.pi / 2) * sa.build_collective(n_ions, "jy")


def _analysis_generators(n_phases):
    jx, jy, _ = obs._two_ion_analysis_ops()
    phases = obs.parity_phases(n_phases)
    cos, sin = np.cos(phases)[:, None, None], np.sin(phases)[:, None, None]
    return -1j * (np.pi / 2) * (cos * jx + sin * jy)


def _store():
    return Path(sa._EXPM_STORE)


def _path(generators):
    return _store() / f"expm-{sa._expm_key(generators)}.npy"


def _no_expm(monkeypatch):
    """Make a call of the live exponential fail the test."""
    def refuse(generators):
        raise AssertionError("the store missed")
    monkeypatch.setattr(sa, "_expm", refuse)


def _same_words(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("generators", [
    *(_pulse_generators(n) for n in range(2, 11)),
    *(_analysis_generators(count) for count in PHASE_COUNTS),
], ids=[*(f"jy-{n}" for n in range(2, 11)), *(f"phases-{c}" for c in PHASE_COUNTS)])
def test_a_stored_exponential_is_scipy_s_word_for_word(generators, monkeypatch):
    live = expm(generators)
    cold = sa._stored_expm(generators)  # computes and writes
    assert _same_words(cold, live)
    assert [path.name for path in _store().iterdir()] == [_path(generators).name]
    assert oct(_path(generators).stat().st_mode & 0o777) == oct(0o644)
    _no_expm(monkeypatch)
    warm = sa._stored_expm(generators)  # loads
    assert _same_words(warm, live)
    assert warm.flags.c_contiguous == live.flags.c_contiguous


def test_the_constants_built_from_the_store_are_scipy_s(monkeypatch):
    def builds():
        sa.half_excited_x.cache_clear()
        obs._parity_analysis_ops.cache_clear()
        return ([sa.half_excited_x(n) for n in range(2, 11, 2)]
                + [obs._parity_analysis_ops(count) for count in PHASE_COUNTS])

    parity_op = obs._two_ion_analysis_ops()[2]
    live = [expm(_pulse_generators(n)) @ sa.dicke_state(n, n // 2) for n in range(2, 11, 2)]
    for count in PHASE_COUNTS:
        pulses = expm(_analysis_generators(count))
        live.append(pulses.conj().transpose(0, 2, 1) @ parity_op @ pulses)
    cold = builds()
    assert len(list(_store().iterdir())) == 5 + len(PHASE_COUNTS)
    _no_expm(monkeypatch)
    warm = builds()
    for ref, a, b in zip(live, cold, warm, strict=True):
        assert _same_words(a, ref) and _same_words(b, ref)
    sa.half_excited_x.cache_clear()
    obs._parity_analysis_ops.cache_clear()


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-7])


def _garbage(path):
    path.write_bytes(b"PK\x03\x04 not an array" * 4)


def _wrong_shape(path):
    with open(path, "wb") as file:
        np.save(file, np.zeros((2, 2), dtype=complex))


def _wrong_dtype(path):
    with open(path, "wb") as file:
        np.save(file, np.zeros((5, 5)))


@pytest.mark.parametrize("spoil", [_truncated, _garbage, _wrong_shape, _wrong_dtype])
def test_a_spoiled_file_is_a_miss_and_is_rewritten(spoil, monkeypatch):
    generators = _pulse_generators(4)
    live = sa._stored_expm(generators)
    path = _path(generators)
    spoil(path)
    calls = []
    monkeypatch.setattr(sa, "_expm", lambda g: calls.append(g) or expm(g))
    assert _same_words(sa._stored_expm(generators), live)
    assert len(calls) == 1
    with open(path, "rb") as file:
        assert _same_words(np.lib.format.read_array(file, allow_pickle=False), live)
    assert [p.name for p in _store().iterdir()] == [path.name]  # no temporary file left


@pytest.mark.parametrize("store", ["file/store", "file"], ids=["below-a-file", "a-file"])
def test_an_unwritable_store_computes_and_writes_nothing(store, tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")  # no directory can be made at or below a file
    monkeypatch.setattr(sa, "_EXPM_STORE", str(tmp_path / store))
    for _ in range(2):
        assert _same_words(sa._stored_expm(_pulse_generators(4)), expm(_pulse_generators(4)))
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


def _fake_scipy(root, version):
    """A find_spec that finds a scipy in ``root`` with ``version`` as its version.py."""
    package = root / "scipy"
    package.mkdir(parents=True, exist_ok=True)
    (package / "version.py").write_text(version)
    spec = importlib.machinery.ModuleSpec("scipy", None, origin=str(package / "__init__.py"))
    return lambda name: spec if name == "scipy" else None


def test_the_key_follows_numpy_scipy_the_cpu_and_the_generators(tmp_path, monkeypatch):
    generators = _pulse_generators(4)
    key = sa._expm_key(generators)
    assert key == sa._expm_key(generators.copy())
    assert key != sa._expm_key(_pulse_generators(6))
    assert key != sa._expm_key(generators.reshape(1, 5, 5))
    assert key != sa._expm_key(generators.astype(np.complex64))
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", np.__version__ + "+other")
        assert sa._expm_key(generators) != key
    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "find_spec", _fake_scipy(tmp_path / "a", "version = '1'"))
        first = sa._expm_key(generators)
        patch.setattr(importlib.util, "find_spec", _fake_scipy(tmp_path / "b", "version = '2'"))
        assert len({key, first, sa._expm_key(generators)}) == 3
    from numpy._core import _multiarray_umath
    features = dict(_multiarray_umath.__cpu_features__)
    features["SSE2"] = not features.get("SSE2", False)
    with monkeypatch.context() as patch:
        patch.setattr(_multiarray_umath, "__cpu_features__", features)
        assert sa._expm_key(generators) != key
    assert sa._expm_key(generators) == key


def _python(script, store):
    """``script`` in a fresh interpreter that imports the package from src/
    with its store at ``store``."""
    prelude = f"from dickesim import spin_algebra\nspin_algebra._EXPM_STORE = {str(store)!r}\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", prelude + script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


def test_processes_filling_one_store_at_once_each_load_a_whole_array(tmp_path):
    # every process reads the same key over and over while the others write
    # it: each read is a miss or the whole array, never part of one
    script = "\n".join([
        "import hashlib",
        "import numpy as np",
        "gens = -1j * (np.pi / 2) * np.ones((401, 4, 4))",
        "print({hashlib.sha256(spin_algebra._stored_expm(gens).tobytes()).hexdigest()",
        "       for _ in range(30)})",
    ])
    store = tmp_path / "store"
    procs = [_python(script, store) for _ in range(4)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, [err for _, err in outputs]
    live = expm(-1j * (np.pi / 2) * np.ones((401, 4, 4)))
    digest = hashlib.sha256(live.tobytes()).hexdigest()
    assert [out for out, _ in outputs] == [f"{{'{digest}'}}\n"] * 4
    [stored] = store.iterdir()
    assert stored.suffix == ".npy"


def test_a_warm_store_prints_the_cold_bytes_without_scipy(tmp_path):
    script = "\n".join([
        "import sys",
        "from dickesim import cli",
        "for argv in (['parity', '--shots', '10'], ['witness', '--n', '4']):",
        "    assert cli.main(argv) == 0, argv",
        "print('scipy' in sys.modules)",
    ])
    store = tmp_path / "store"
    runs = []
    for _ in range(2):
        proc = _python(script, store)
        runs.append((*proc.communicate(timeout=120), proc.returncode))
    cold, warm = runs
    assert cold[1:] == warm[1:] == ("", 0)
    assert cold[0].endswith("\nTrue\n") and warm[0].endswith("\nFalse\n")
    assert cold[0].removesuffix("True\n") == warm[0].removesuffix("False\n")
    assert len(list(store.iterdir())) == 2
