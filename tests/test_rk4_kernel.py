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
from oracles import bits, dense_from_support

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


# a d = 3 chain on the off-diagonal: (K_r, K_b, D) there and at (0, 0), the
# bounds of its groups, K_r at entries 0 and 1 and K_b at 2 and 3, and the
# chain's kernel formula: number 0, 2 coefficients a time, 3 real parts
_SUPPORT = np.array([1, 3, 5, 7], dtype=np.int64)
_PARTS = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0], [0.0] * 5])
_BOUNDS = np.array([0, 2, 4, 4], dtype=np.int64)
_CHAIN = model.reduced_support(2)[-1]
_STEPS = np.array([0, 2, 4])


def _rows(make):
    """A ``coefficients`` that returns ``make`` of the chain's valid rows."""
    return lambda ts: make(np.zeros((len(ts), 2)))


def _unaligned(rows):
    raw = np.zeros(rows.nbytes + 1, dtype=np.uint8)
    out = np.ndarray(rows.shape, dtype=rows.dtype, buffer=raw, offset=1)
    assert not out.flags.aligned
    return out


def _run_chain(coefficients=_rows(lambda c: c), support=_SUPPORT, parts=_PARTS, bounds=_BOUNDS,
               formula=_CHAIN, capture=_STEPS):
    return evolution._rk4(coefficients, (support, 3, parts, bounds, formula), 0.0,
                          np.eye(3)[0], 1.0, 4, capture)


@pytest.mark.parametrize("bad", [
    {"coefficients": _rows(lambda c: c.astype(np.float32))},
    {"coefficients": _rows(lambda c: c.astype(complex))},
    {"coefficients": _rows(np.asfortranarray)},
    {"coefficients": _rows(lambda c: c[:, ::-1])},              # negative stride
    {"coefficients": _rows(lambda c: c[:-1])},                  # one time short
    {"coefficients": _rows(lambda c: c[:, :1].copy())},         # one coefficient short
    {"coefficients": _rows(lambda c: np.zeros((len(c), 4)))},   # the full model's rows
    {"coefficients": _rows(lambda c: c.tolist())},              # not an array
    {"coefficients": _rows(_unaligned)},
    {"capture": _STEPS.astype(np.int32)},
    {"support": _SUPPORT.astype(np.int32)},
    {"support": _SUPPORT[None]},                                # 2-D support
    {"support": _SUPPORT.tolist()},
    {"support": np.repeat(_SUPPORT, 2)[::2]},                   # strided support
    {"support": np.array([0, 3, 5, 7])},                        # (0, 0) holds the off value
    {"support": np.array([1, 3, 5, 9])},                        # past the last entry
    {"support": np.array([1, 3, -5, 7])},
    {"support": np.array([1, 3, 3, 7])},                        # a duplicate
    {"parts": _PARTS.astype(complex)},                          # the full model's parts
    {"parts": _PARTS[:2].copy()},                               # one operator short
    {"parts": _PARTS[:, :-1].copy()},                           # no (0, 0) entry
    {"parts": np.asfortranarray(_PARTS)},
    {"formula": model.full_support(2, 3)[-1]},                  # the full model's formula
    {"bounds": np.array([0, 2, 4, 5])},                         # past the support
    {"bounds": np.array([0, 3, 2, 4])},                         # out of order
    {"bounds": np.array([1, 2, 4, 4])},
    {"bounds": np.array([0, 2, 4])},                            # one group short
    {"bounds": _BOUNDS.astype(np.int32)},
])
def test_bad_arrays_never_reach_the_kernel(bad):
    kernel = mock.Mock()
    with mock.patch.object(evolution, "_kernel", kernel), pytest.raises(ValueError):
        _run_chain(**bad)
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
        evolution._check_block((_SUPPORT, 3, _PARTS, _BOUNDS, _CHAIN), buffer,
                               np.eye(3)[0].astype(complex), states, _STEPS)


@pytest.mark.parametrize("bad", [
    {"support": _SUPPORT[None]},                # 2-D support
    {"capture": _STEPS.astype(np.int32)},       # int32 capture steps
    {"bounds": np.array([0, 3, 2, 4])},
])
def test_bad_run_arrays_are_refused_before_any_coefficient(bad):
    built = []

    def coefficients(ts):
        built.append(ts)
        return np.zeros((len(ts), 2))

    with pytest.raises(ValueError):
        _run_chain(coefficients, **bad)
    assert built == []


def test_good_rows_reach_the_kernel():
    kernel = mock.Mock()
    kernel.return_value.step.return_value = 3
    with mock.patch.object(evolution, "_kernel", kernel):
        _run_chain()
    assert kernel.return_value.step.call_count == 1


def _one_step(operators, delta, rows, buffer):
    """One kernel step on ``operators`` from the three coefficient ``rows``
    at t, t + dt/2 and t + dt; the state is zero, and H psi = 0 keeps it
    zero whatever H holds, so the step only writes ``buffer``."""
    support, d, parts, bounds, (kind, *_) = operators
    psi = np.zeros(d, dtype=complex)
    work = np.empty((5, d), dtype=complex)
    coef = np.zeros(3, dtype=complex)
    capture = np.array([0], dtype=np.int64)
    states = np.empty((1, d), dtype=complex)
    evolution._check_block(operators, buffer, psi, states, capture)
    evolution._kernel().step(rows.ctypes.data, 1, 1, 0, 1, kind, support.ctypes.data,
                             len(support), parts.ctypes.data, bounds.ctypes.data, delta,
                             buffer.ctypes.data, d, coef.ctypes.data, psi.ctypes.data,
                             work.ctypes.data, capture.ctypes.data, 1, states.ctypes.data)


def _chain_case():
    # random parts with (1, 0, -1) at (0, 0), so that the off-support value
    # (Omega_r*1 + Omega_b*0) + 0*(-1) moves through +0, -0, a nan and 1
    rng = np.random.default_rng(5)
    parts = np.hstack((rng.normal(size=(3, len(_SUPPORT))), [[1.0], [0.0], [-1.0]]))
    operators = (_SUPPORT, 3, parts, _BOUNDS, _CHAIN)
    rates = np.array([(0.0, 1.0), (-0.0, -1.0), (np.nan, 1.0), (1.0, 2.0)])

    def dense(options):
        wr, wb = rates[options, :1], rates[options, 1:]
        values = (wr * parts[0] + wb * parts[1] + 0.0 * parts[2]).astype(complex)
        return dense_from_support(values, _SUPPORT, 3)

    return operators, 0.0, rates, dense


def _full_case():
    # N = 1 with n_max = 3 (d = 8); from tones (2, 2), (-2, -2), (2, nan)
    # and (2, inf) at times whose delta*t lies in four quadrants, the
    # off-support value is +0+0j, -0+0j, nan+nanj and -nan-nanj, the four
    # words that full_hamiltonian gives there for rows of +-1, +-0, nan and
    # +-inf
    params = model.SystemParams(n_ions=1, delta=0.7, n_max=3)
    t = np.array([2.8, 0.3, 5.1, 7.6])
    omega_r, omega_b = np.array([2.0, -2.0, 2.0, 2.0]), np.array([2.0, -2.0, np.nan, np.inf])
    with np.errstate(invalid="ignore"):
        rows = model.full_coefficients(params, t, omega_r, omega_b)
    operators = model.full_support(params.n_ions, params.n_max)

    def dense(options):
        with np.errstate(invalid="ignore"):
            return model.full_hamiltonian(params, t[options], omega_r[options], omega_b[options])

    return operators, params.delta, rows, dense


@pytest.mark.parametrize("case", [_chain_case, _full_case])
def test_kernel_refills_the_matrices_when_the_off_support_value_changes(case):
    # one step per call, each from new coefficients whose off-support value
    # moves through four words and back; after every call the buffer must
    # hold, word for word, the model's dense matrices at that step's three
    # rows
    operators, delta, options, dense = case()
    _, d, *_ = operators
    buffer = np.zeros((3, d, d), dtype=complex)
    offs = set()
    order = [0, 1, 2, 0, 1, 3, 3, 2, 1, 0]
    for k in range(len(order) - 2):
        rows = np.ascontiguousarray(options[order[k:k + 3]])
        _one_step(operators, delta, rows, buffer)
        expected = dense(order[k:k + 3])
        assert np.array_equal(buffer.view(np.uint64), expected.view(np.uint64)), k
        offs.update(bytes(value) for value in expected[:, 0, 0])
    assert len(offs) == 4

    # a buffer whose off-support entries differ from the new off-support
    # value in the imaginary word alone is refilled too: all its entries
    # equal its (0, 0) entry, as rk4_block requires
    for option in range(len(options)):
        rows = np.ascontiguousarray(options[[option] * 3])
        expected = dense([option] * 3)
        off = expected[0, 0, 0]
        stale = complex(off.real, -0.0 if off.imag == 0 else 1.0)
        assert (bits([off.real, stale.real]) == bits([off.real] * 2)).all()
        assert bits([off.imag]) != bits([stale.imag])
        buffer[...] = stale
        _one_step(operators, delta, rows, buffer)
        assert np.array_equal(buffer.view(np.uint64), expected.view(np.uint64)), option


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
