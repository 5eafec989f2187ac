"""The package's one store of derived files, ``spin_algebra._stored``.

It keeps the compiled RK4 kernel (``_rk4-<key>.so``, built by ``cc``) and
the two constant exponentials (``expm-<key>.npy``: the Jy(pi/2) pulse of
``half_excited_x`` and the parity scan's analysis pulses), so that a process
after the first loads them instead of compiling or importing scipy.  The
cases the two share run for both, in fresh interpreters on stores of the
test's own.  Every stored array, and every constant built from one, must
equal live scipy word for word.  Each in-process test starts on the empty
store that ``conftest.py`` gives it.
"""

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from dickesim import observables as obs
from dickesim import spin_algebra as sa

PHASE_COUNTS = (1, 3, 40, 401)

#: each stored file kind: its name pattern, mode and number of files, the
#: CLI commands that fill them, and whether the process that fills them
#: imports scipy
ARTIFACTS = {
    "expm": SimpleNamespace(pattern="expm-*.npy", mode=0o644, files=2, scipy=True,
                            runs=[["parity", "--shots", "10"], ["witness", "--n", "4"]]),
    "kernel": SimpleNamespace(pattern="_rk4-*.so", mode=0o755, files=1, scipy=False,
                              runs=[["evolve", "--n", "2", "--eta-omega-t", "5"]]),
}


def _pulse_generators(n_ions):
    return -1j * (np.pi / 2) * sa.build_collective(n_ions, "jy")


def _analysis_generators(n_phases):
    jx, jy, _ = obs._two_ion_analysis_ops()
    phases = obs.parity_phases(n_phases)
    cos, sin = np.cos(phases)[:, None, None], np.sin(phases)[:, None, None]
    return -1j * (np.pi / 2) * (cos * jx + sin * jy)


def _store():
    return Path(sa._STORE)


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
    [path] = _store().iterdir()
    assert path.name.startswith("expm-") and path.suffix == ".npy"
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


def _wrong_shape(path):
    with open(path, "wb") as file:
        np.save(file, np.zeros((2, 2), dtype=complex))


def _wrong_dtype(path):
    with open(path, "wb") as file:
        np.save(file, np.zeros((5, 5)))


@pytest.mark.parametrize("spoil", [_truncated, _wrong_shape, _wrong_dtype])
def test_a_spoiled_array_is_a_miss_and_is_rewritten(spoil, monkeypatch):
    generators = _pulse_generators(4)
    live = sa._stored_expm(generators)
    [path] = _store().iterdir()
    spoil(path)
    calls = []
    monkeypatch.setattr(sa, "_expm", lambda g: calls.append(g) or expm(g))
    assert _same_words(sa._stored_expm(generators), live)
    assert len(calls) == 1
    with open(path, "rb") as file:
        assert _same_words(np.lib.format.read_array(file, allow_pickle=False), live)
    assert [p.name for p in _store().iterdir()] == [path.name]  # no temporary file left


def _fake_scipy(root, version):
    """A find_spec that finds a scipy in ``root`` with ``version`` as its version.py."""
    package = root / "scipy"
    package.mkdir(parents=True, exist_ok=True)
    (package / "version.py").write_text(version)
    spec = importlib.machinery.ModuleSpec("scipy", None, origin=str(package / "__init__.py"))
    return lambda name: spec if name == "scipy" else None


def test_the_key_follows_numpy_scipy_the_cpu_and_the_generators(tmp_path, monkeypatch):
    def name(generators):
        """The name of the one file that ``_stored`` writes for ``generators``
        into an empty store."""
        store = tmp_path / f"store-{len(list(tmp_path.glob('store-*')))}"
        with monkeypatch.context() as patch:
            patch.setattr(sa, "_STORE", str(store))
            sa._stored_expm(generators)
        [path] = store.iterdir()
        return path.name

    generators = _pulse_generators(4)
    key = name(generators)
    assert key == name(generators.copy())
    assert key != name(_pulse_generators(6))
    assert key != name(generators.reshape(1, 5, 5))
    assert key != name(generators.astype(np.complex64))
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", np.__version__ + "+other")
        assert name(generators) != key
    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "find_spec", _fake_scipy(tmp_path / "a", "version = '1'"))
        first = name(generators)
        patch.setattr(importlib.util, "find_spec", _fake_scipy(tmp_path / "b", "version = '2'"))
        assert len({key, first, name(generators)}) == 3
    from numpy._core import _multiarray_umath
    features = dict(_multiarray_umath.__cpu_features__)
    features["SSE2"] = not features.get("SSE2", False)
    with monkeypatch.context() as patch:
        patch.setattr(_multiarray_umath, "__cpu_features__", features)
        assert name(generators) != key
    assert name(generators) == key


def test_a_key_that_cannot_be_read_computes_and_stores_nothing(tmp_path, monkeypatch):
    find_spec = _fake_scipy(tmp_path, "")
    (tmp_path / "scipy" / "version.py").unlink()
    (tmp_path / "scipy" / "version.py").mkdir()  # opening it raises IsADirectoryError
    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    for _ in range(2):
        assert _same_words(sa._stored_expm(_pulse_generators(4)), expm(_pulse_generators(4)))
    assert list(_store().iterdir()) == []


def _cli_script(runs):
    """Run the CLI commands ``runs``, then print whether scipy was imported."""
    return "\n".join([
        "from dickesim import cli",
        f"for argv in {runs!r}:",
        "    assert cli.main(argv) == 0, argv",
        "print('scipy' in sys.modules)",
    ])


def _files(store, artifact):
    return sorted(store.glob(artifact.pattern))


@pytest.fixture(scope="module")
def cold(fresh_python, tmp_path_factory):
    """``cold(name)``: the output of the CLI script of ``ARTIFACTS[name]`` on
    an empty store and the store it filled; run once a module."""
    runs = {}

    def run(name):
        if name not in runs:
            store = tmp_path_factory.mktemp(f"cold-{name}")
            proc = subprocess.run(fresh_python(_cli_script(ARTIFACTS[name].runs), store),
                                  capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            runs[name] = proc.stdout, store
        return runs[name]
    return run


def _warm(cold, name, tmp_path):
    """The CLI output of ``ARTIFACTS[name]`` on an empty store, and a copy of
    the store it filled."""
    output, filled = cold(name)
    store = tmp_path / "store"
    shutil.copytree(filled, store)
    return output, store


def _no_compiler(tmp_path):
    """A directory to use as the whole PATH: it holds no cc."""
    empty = tmp_path / "bin"
    empty.mkdir()
    return empty


@pytest.mark.parametrize("name", ARTIFACTS)
def test_a_second_process_loads_the_stored_files(name, cold, fresh_python, tmp_path):
    artifact = ARTIFACTS[name]
    output, store = _warm(cold, name, tmp_path)
    files = _files(store, artifact)
    assert len(files) == artifact.files
    assert all(oct(path.stat().st_mode & 0o777) == oct(artifact.mode) for path in files)
    assert output.endswith(f"\n{artifact.scipy}\n")
    built = [(path.stat().st_ino, path.stat().st_mtime_ns) for path in files]
    # with no compiler on PATH, a second build would fail the run
    proc = subprocess.run(fresh_python(_cli_script(artifact.runs), store),
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PATH=str(_no_compiler(tmp_path))))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == output.removesuffix(f"{artifact.scipy}\n") + "False\n"
    assert _files(store, artifact) == files
    assert [(path.stat().st_ino, path.stat().st_mtime_ns) for path in files] == built


def _garbage(path):
    path.write_bytes(b"garbage\n")


def _empty(path):
    path.write_bytes(b"")


@pytest.mark.parametrize("spoil", [_garbage, _empty])
@pytest.mark.parametrize("name", ARTIFACTS)
def test_a_spoiled_file_is_made_again_and_the_run_prints_the_same_bytes(name, spoil, cold,
                                                                        fresh_python, tmp_path):
    artifact = ARTIFACTS[name]
    output, store = _warm(cold, name, tmp_path)
    whole = {path: path.read_bytes() for path in _files(store, artifact)}
    for path in whole:
        spoil(path)
    proc = subprocess.run(fresh_python(_cli_script(artifact.runs), store),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, output, "")
    assert {path: path.read_bytes() for path in _files(store, artifact)} == whole
    assert list(store.glob("*.tmp")) == []


@pytest.mark.parametrize("at", ["file/store", "file"], ids=["below-a-file", "a-file"])
@pytest.mark.parametrize("name", ARTIFACTS)
def test_an_unwritable_store_makes_a_private_copy(name, at, cold, fresh_python, tmp_path):
    output, _ = cold(name)
    blocker = tmp_path / "file"
    blocker.write_text("")  # no directory can be made at or below a file
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(fresh_python(_cli_script(ARTIFACTS[name].runs), tmp_path / at),
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, TMPDIR=str(scratch)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, output, "")
    assert list(scratch.iterdir()) == []  # the private directory is removed after loading
    assert sorted(tmp_path.iterdir()) == [blocker, scratch] and blocker.read_text() == ""


@pytest.mark.parametrize("name", ARTIFACTS)
def test_processes_filling_one_store_at_once_each_load_whole_files(name, cold, fresh_python,
                                                                   tmp_path):
    # every process runs its commands 30 times from empty caches, so it
    # loads the files over and over while the others write them: each load
    # is a miss or the whole file, never part of one
    artifact = ARTIFACTS[name]
    output, _ = cold(name)
    script = "\n".join([
        "import contextlib, hashlib, io",
        "from dickesim import cli",
        "digests = set()",
        "for _ in range(30):",
        "    for module in [m for n, m in sys.modules.items() if n.startswith('dickesim.')]:",
        "        for cached in [o for o in vars(module).values() if hasattr(o, 'cache_clear')]:",
        "            cached.cache_clear()",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        f"        for argv in {artifact.runs!r}:",
        "            assert cli.main(argv) == 0, argv",
        "    digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())",
        "print(digests)",
    ])
    store = tmp_path / "store"
    procs = [subprocess.Popen(fresh_python(script, store), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(4)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, [err for _, err in outputs]
    printed = output.removesuffix(f"{artifact.scipy}\n")
    digest = hashlib.sha256(printed.encode()).hexdigest()
    assert [out for out, _ in outputs] == [f"{{'{digest}'}}\n"] * 4
    # the temporary files were renamed or removed: whole files are left
    assert sorted(path.name for path in store.iterdir()) == [
        path.name for path in _files(store, artifact)]
    assert len(_files(store, artifact)) == artifact.files
