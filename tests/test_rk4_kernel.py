"""How the compiled RK4 kernel is built, cached, loaded and guarded.

Each process test runs a copy of the package from ``tmp_path``, so that it
starts on an empty ``__pycache__``; the kernel's arithmetic is checked bit
for bit in ``test_rk4_step.py``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dickesim import evolution, model

PACKAGE = Path(evolution.__file__).parent
EVOLVE = ["-m", "dickesim.cli", "evolve", "--n", "2", "--eta-omega-t", "40"]


def _copy(tmp_path, path=None):
    """A copy of the package, without its __pycache__, and the environment
    that imports it; ``path`` replaces PATH."""
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "dickesim", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(src))
    if path is not None:
        env["PATH"] = str(path)
    return src / "dickesim", env


def _no_compiler(tmp_path):
    """A directory to use as the whole PATH: it holds no cc."""
    empty = tmp_path / "bin"
    empty.mkdir()
    return empty


def _libraries(package):
    return sorted((package / "__pycache__").glob("_rk4-*"))


def _run(args, env):
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def test_second_interpreter_loads_the_cached_library(tmp_path):
    package, env = _copy(tmp_path)
    first = _run(EVOLVE, env)
    assert first.returncode == 0, first.stderr
    [library] = _libraries(package)
    built = library.stat()
    # with no compiler on PATH, a second build would fail the run
    second = _run(EVOLVE, dict(env, PATH=str(_no_compiler(tmp_path))))
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert _libraries(package) == [library]
    kept = library.stat()
    assert (kept.st_ino, kept.st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


def test_two_first_runs_at_once_build_one_library(tmp_path):
    package, env = _copy(tmp_path)
    procs = [subprocess.Popen([sys.executable, *EVOLVE], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outputs]
    assert outputs[0][0] == outputs[1][0]
    # the temporary files were renamed or removed: one whole library is left
    [library] = _libraries(package)
    assert library.suffix == ".so"


def test_missing_compiler_is_one_line_and_exit_1(tmp_path):
    package, env = _copy(tmp_path, path=_no_compiler(tmp_path))
    proc = _run(EVOLVE, env)
    stderr = proc.stderr.decode()
    assert proc.returncode == 1
    assert stderr.count("\n") == 1 and "Traceback" not in stderr
    assert stderr.startswith("error: cannot build the RK4 kernel: no C compiler cc")
    assert _libraries(package) == []


def test_unwritable_cache_builds_a_private_copy(tmp_path):
    package, env = _copy(tmp_path)
    reference = _run(EVOLVE, env)
    assert reference.returncode == 0, reference.stderr
    shutil.rmtree(package / "__pycache__")
    (package / "__pycache__").write_text("")  # a file: no directory can be made there
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = _run(EVOLVE, dict(env, TMPDIR=str(scratch)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == reference.stdout
    assert list(scratch.iterdir()) == []  # the private directory is removed after loading


def test_commands_that_integrate_nothing_never_load_the_kernel(tmp_path):
    # `import numpy` already imports ctypes (for ndarray.ctypes), so whether
    # the kernel was loaded shows in its loader and its library file, not in
    # sys.modules
    package, env = _copy(tmp_path)
    cfg = Path(__file__).resolve().parents[1] / "data" / "paper_fourion.cfg"
    runs = [["darkstate"], ["bounds", "--input", str(cfg)], ["witness", "--source", "ideal"],
            ["parity", "--source", "ideal"]]
    script = "\n".join([
        "import contextlib, io",
        "from dickesim import cli, evolution",
        f"for argv in {runs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "    assert evolution._kernel.cache_info().misses == 0, argv",
    ])
    proc = _run(["-c", script], env)
    assert proc.returncode == 0, proc.stderr
    assert _libraries(package) == []


_SUPPORT = np.array([1, 3, 5, 7], dtype=np.int64)  # the off-diagonal of a 3 x 3 matrix


def _arrays_of(make):
    """An ``h_values`` and a support: ``make`` applied to valid values of a
    d = 3 model and to its valid support."""
    def h_values(ts):
        return make(np.zeros((len(ts), len(_SUPPORT) + 1), dtype=complex), _SUPPORT)[0]
    return h_values, make(np.zeros((3, len(_SUPPORT) + 1), dtype=complex), _SUPPORT)[1]


def _unaligned(values):
    raw = np.zeros(values.nbytes + 1, dtype=np.uint8)
    out = np.ndarray(values.shape, dtype=complex, buffer=raw, offset=1)
    assert not out.flags.aligned
    return out


_STEPS = np.array([0, 2, 4])


@pytest.mark.parametrize("make, capture", [
    (lambda v, s: (v.real, s), _STEPS),                         # float64 values
    (lambda v, s: (v.astype(np.complex64), s), _STEPS),
    (lambda v, s: (np.asfortranarray(v), s), _STEPS),
    (lambda v, s: (v[:, ::-1], s), _STEPS),                     # negative stride
    (lambda v, s: (v[:-1], s), _STEPS),                         # one Hamiltonian short
    (lambda v, s: (v[:, :-1].copy(), s), _STEPS),               # no off-support value
    (lambda v, s: (v.tolist(), s), _STEPS),                     # not an array
    (lambda v, s: (v, s), _STEPS.astype(np.int32)),             # int32 capture steps
    (lambda v, s: (_unaligned(v), s), _STEPS),
    (lambda v, s: (v, s.astype(np.int32)), _STEPS),
    (lambda v, s: (v, s[None]), _STEPS),                        # 2-D support
    (lambda v, s: (v, s.tolist()), _STEPS),
    (lambda v, s: (v, np.repeat(s, 2)[::2]), _STEPS),           # strided support
    (lambda v, s: (v, np.array([0, 3, 5, 7])), _STEPS),         # (0, 0) holds the off value
    (lambda v, s: (v, np.array([1, 3, 5, 9])), _STEPS),         # past the last entry
    (lambda v, s: (v, np.array([1, 3, -5, 7])), _STEPS),
    (lambda v, s: (v, np.array([1, 3, 3, 7])), _STEPS),         # a duplicate
])
def test_bad_arrays_never_reach_the_kernel(make, capture):
    kernel = mock.Mock()
    h_values, support = _arrays_of(make)
    with mock.patch.object(evolution, "_kernel", kernel), pytest.raises(ValueError):
        evolution._rk4(h_values, support, np.eye(3)[0], 1.0, 4, capture)
    kernel.assert_not_called()


@pytest.mark.parametrize("buffer", [
    np.zeros((2, 3, 3), dtype=complex),
    np.zeros((3, 3, 4), dtype=complex),
    np.zeros((3, 3, 3), dtype=np.complex64),
    np.zeros((3, 3, 3), dtype=complex).transpose(0, 2, 1),
])
def test_bad_buffer_never_reaches_the_kernel(buffer):
    states = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError, match="buffer"):
        evolution._check_block(_SUPPORT, buffer, np.eye(3)[0].astype(complex), states, _STEPS)


@pytest.mark.parametrize("support, capture", [
    (_SUPPORT[None], _STEPS),                   # 2-D support
    (_SUPPORT, _STEPS.astype(np.int32)),        # int32 capture steps
])
def test_bad_run_arrays_are_refused_before_any_hamiltonian(support, capture):
    built = []

    def h_values(ts):
        built.append(ts)
        return np.zeros((len(ts), len(_SUPPORT) + 1), dtype=complex)

    with pytest.raises(ValueError):
        evolution._rk4(h_values, support, np.eye(3)[0], 1.0, 4, capture)
    assert built == []


def test_good_stack_reaches_the_kernel():
    kernel = mock.Mock()
    kernel.return_value.return_value = 3
    with mock.patch.object(evolution, "_kernel", kernel):
        evolution._rk4(*_arrays_of(lambda v, s: (v, s)), np.eye(3)[0], 1.0, 4, _STEPS)
    assert kernel.return_value.call_count == 1


def test_kernel_refills_the_matrices_when_the_off_support_value_changes():
    # one step per call, each from new values whose off-support value moves
    # through signed zeros, a nan and back; after every call the buffer must
    # hold, word for word, numpy's expansion of that step's three matrices
    d = 3
    rng = np.random.default_rng(5)
    offs = [0.0, complex(-0.0, 0.0), complex(np.nan, 1.0), 0.0, complex(0.0, -0.0),
            complex(np.nan, 1.0), 1 + 2j, 1 + 2j, complex(-0.0, -0.0), 0.0]
    buffer = np.zeros((3, d, d), dtype=complex)
    psi = np.zeros(d, dtype=complex)  # H psi = 0: psi stays zero whatever H holds
    work = np.empty((5, d), dtype=complex)
    coef = np.zeros(3, dtype=complex)
    capture = np.array([0], dtype=np.int64)
    states = np.empty((1, d), dtype=complex)
    for k in range(len(offs) - 2):
        values = rng.normal(size=(3, len(_SUPPORT) + 1)) + 1j * rng.normal(size=(3, len(_SUPPORT) + 1))
        values[:, -1] = offs[k:k + 3]
        evolution._check_block(_SUPPORT, buffer, psi, states, capture)
        evolution._kernel()(values.ctypes.data, _SUPPORT.ctypes.data, len(_SUPPORT),
                            buffer.ctypes.data, 1, 1, d, coef.ctypes.data, psi.ctypes.data,
                            work.ctypes.data, 0, capture.ctypes.data, 1, 1, states.ctypes.data)
        expected = model.expand(values, _SUPPORT, d)
        assert np.array_equal(buffer.view(np.uint64), expected.view(np.uint64)), k


def test_a_rebuild_removes_the_stale_library(tmp_path):
    package, env = _copy(tmp_path)
    first = _run(EVOLVE, env)
    assert first.returncode == 0, first.stderr
    [stale] = _libraries(package)
    with open(package / "_rk4.c", "a") as fh:
        fh.write("/* an edited comment: a new source hash */\n")
    second = _run(EVOLVE, env)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    [library] = _libraries(package)
    assert library.suffix == ".so" and library.name != stale.name
