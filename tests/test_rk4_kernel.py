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

from dickesim import evolution

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


def _stack_of(make):
    """An ``h_stack`` that returns ``make`` applied to a valid stack."""
    def h_stack(ts):
        return make(np.zeros((len(ts), 3, 3), dtype=complex))
    return h_stack


_STEPS = np.array([0, 2, 4])


@pytest.mark.parametrize("make, capture", [
    (lambda s: s.real, _STEPS),                                 # float64
    (lambda s: s.astype(np.complex64), _STEPS),
    (lambda s: np.ascontiguousarray(s.transpose(0, 2, 1)).transpose(0, 2, 1), _STEPS),
    (lambda s: s[:, ::-1, :], _STEPS),                          # negative stride
    (lambda s: s[:-1], _STEPS),                                 # one Hamiltonian short
    (lambda s: s[:, :2, :2].copy(), _STEPS),                    # wrong dimension
    (lambda s: s.tolist(), _STEPS),                             # not an array
    (lambda s: s, _STEPS.astype(np.int32)),                     # int32 capture steps
])
def test_bad_arrays_never_reach_the_kernel(make, capture):
    kernel = mock.Mock()
    with mock.patch.object(evolution, "_kernel", kernel), pytest.raises(ValueError):
        evolution._rk4(_stack_of(make), np.eye(3)[0], 1.0, 4, capture)
    kernel.assert_not_called()


def test_good_stack_reaches_the_kernel():
    kernel = mock.Mock()
    kernel.return_value.return_value = 3
    with mock.patch.object(evolution, "_kernel", kernel):
        evolution._rk4(_stack_of(lambda s: s), np.eye(3)[0], 1.0, 4, _STEPS)
    assert kernel.return_value.call_count == 1
