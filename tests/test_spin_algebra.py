import importlib
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

import dickesim
from dickesim import certification, dark_state, evolution, measurement, model, repro
from dickesim import observables as obs
from dickesim import spin_algebra as sa

NS = [1, 2, 3, 4, 5, 6, 7, 8]


def test_coupling_examples():
    assert sa.collective_coupling(2, 0) == pytest.approx(np.sqrt(2), abs=1e-15)
    assert sa.collective_coupling(4, 0) == pytest.approx(2.0, abs=1e-15)
    assert sa.collective_coupling(4, 1) == pytest.approx(np.sqrt(6), abs=1e-15)


def test_coupling_updown_symmetry():
    for n in NS:
        for m in range(n):
            assert sa.collective_coupling(n, m) == pytest.approx(
                sa.collective_coupling(n, n - 1 - m), rel=1e-15
            )


def test_coupling_domain_errors():
    with pytest.raises(ValueError):
        sa.collective_coupling(4, -1)
    with pytest.raises(ValueError):
        sa.collective_coupling(4, 4)
    with pytest.raises(ValueError):
        sa.collective_coupling(0, 0)


def test_jz_diagonal():
    jz = sa.build_collective(2, "jz")
    assert np.allclose(jz, np.diag([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("n", range(1, 11))
def test_projections_are_the_jz_diagonal(n):
    # Jz = [J+, J-]/2, built here from the raising operator
    jp = sa.build_collective(n, "j+")
    jz = (jp @ jp.conj().T - jp.conj().T @ jp) / 2
    projections = sa.projections(n)
    assert projections.tolist() == [m - n / 2 for m in range(n + 1)]
    assert np.allclose(projections, np.diag(jz).real, atol=1e-12)
    assert np.count_nonzero(jz - np.diag(np.diag(jz))) == 0
    assert not projections.flags.writeable


@pytest.mark.parametrize("n", range(1, 11))
def test_hamming_weights_count_the_up_spins(n):
    weights = sa.hamming_weights(n)
    assert weights.tolist() == [bin(k).count("1") for k in range(2**n)]
    assert not weights.flags.writeable


def test_j2_is_casimir_identity():
    jx, jy, jz = (sa.build_collective(4, kind) for kind in ("jx", "jy", "jz"))
    j2 = jx @ jx + jy @ jy + jz @ jz
    assert np.max(np.abs(j2 - 6 * np.eye(5))) < 1e-12


def test_jplus_band_entries():
    jp = sa.build_collective(4, "j+")
    band = np.diag(jp, -1)
    assert np.allclose(band, [2, np.sqrt(6), np.sqrt(6), 2])
    # strictly one nonzero band
    assert np.count_nonzero(jp - np.diag(band, -1)) == 0


def test_jplus_dagger_is_jminus():
    # J- = Jx - i Jy lowers the excitation number along J+'s band
    for n in (2, 5):
        jp = sa.build_collective(n, "j+")
        jm = sa.build_collective(n, "jx") - 1j * sa.build_collective(n, "jy")
        assert np.array_equal(jp.conj().T, jm)


@pytest.mark.parametrize("n", NS)
def test_commutators(n):
    jx = sa.build_collective(n, "jx")
    jy = sa.build_collective(n, "jy")
    jz = sa.build_collective(n, "jz")
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12


def test_rotation_zero_is_identity():
    assert np.max(np.abs(sa.rotation_y(4, 0.0) - np.eye(5))) < 1e-14


def test_rotation_unitary_and_inverse():
    r = sa.rotation_y(5, 0.7)
    assert np.max(np.abs(r @ r.conj().T - np.eye(6))) < 1e-12
    rinv = sa.rotation_y(5, -0.7)
    assert np.max(np.abs(r @ rinv - np.eye(6))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-np.pi, np.pi, allow_nan=False),
    b=st.floats(-np.pi, np.pi, allow_nan=False),
)
def test_rotation_composition_law(a, b):
    ra = sa.rotation_y(3, a)
    rb = sa.rotation_y(3, b)
    rab = sa.rotation_y(3, a + b)
    assert np.max(np.abs(ra @ rb - rab)) < 1e-10


def test_rotation_half_pi_kills_x_moments():
    state = sa.rotation_y(4, np.pi / 2) @ sa.dicke_state(4, 2)
    jx = sa.build_collective(4, "jx")
    assert abs(np.vdot(state, jx @ state)) < 1e-12
    assert abs(np.vdot(state, jx @ (jx @ state))) < 1e-12


def test_rotation_rejects_nonfinite_angle():
    with pytest.raises(ValueError):
        sa.rotation_y(2, np.inf)


def test_cached_operators_are_hermitian_and_read_only():
    for n in NS:
        for kind in ("jx", "jy", "jz"):
            op = sa.build_collective(n, kind)
            assert op is sa.build_collective(n, kind)
            assert np.array_equal(op, op.conj().T)
            with pytest.raises(ValueError):
                op[0, 0] = 0.0


def test_half_excited_x_is_cached_and_read_only():
    for n in (2, 4, 6, 8):
        state = sa.half_excited_x(n)
        assert state is sa.half_excited_x(n)
        assert np.array_equal(state, sa.rotation_y(n, np.pi / 2) @ sa.dicke_state(n, n // 2))
        with pytest.raises(ValueError):
            state[0] = 0.0
    assert sa.half_excited_x(4.0) is sa.half_excited_x(4)  # 4.0 finds the entry of 4


def _message(call):
    with pytest.raises(ValueError) as refused:
        call()
    return str(refused.value)


def test_half_excitation_is_n_over_two_for_a_positive_even_n():
    assert [sa.half_excitation(n) for n in (2, 4, 6, 8)] == [1, 2, 3, 4]
    assert _message(lambda: sa.half_excitation(3)) == (
        "half-excited Dicke states need an even number of ions, got N=3")
    for n in (0, -2, 2.5):
        assert _message(lambda: sa.half_excitation(n)) == (
            f"n_ions must be an integer in [1, inf], got {n}")


@pytest.mark.parametrize("call", [
    lambda: sa.half_excited_x(3),
    lambda: certification.half_excited_full(3, "x"),
    lambda: certification.certify_from_state(np.ones(8) / np.sqrt(8), "x"),
    lambda: dark_state.closed_form_coefficients(3),
    lambda: measurement.simulated_experiment(sa.dicke_state(3, 1),
                                             measurement.ShotConfig(n_shots=10, seed=0)),
], ids=["half_excited_x", "half_excited_full", "certify_from_state",
        "closed_form_coefficients", "simulated_experiment"])
def test_an_odd_ion_number_gets_the_one_message(call):
    assert _message(call) == _message(lambda: sa.half_excitation(3))


def test_system_params_take_the_one_ion_number_rule():
    assert _message(lambda: model.SystemParams(n_ions=0)) == _message(lambda: sa.check_n_ions(0))


# each site that reads an integer, with the name its message gives the input
INTEGER_SITES = {
    "check_n_ions": ("n_ions", sa.check_n_ions),
    "half_excitation": ("n_ions", sa.half_excitation),
    "build_collective": ("n_ions", lambda v: sa.build_collective(v, "jx")),
    "full_space_oracle": ("n_ions of a full-space operator",
                          lambda v: sa.full_space_oracle(v, "jx")),
    "collective_coupling": ("m", lambda v: sa.collective_coupling(4, v)),
    "dicke_state": ("excitation number m", lambda v: sa.dicke_state(4, v)),
    "dicke_state_full": ("excitation number m", lambda v: sa.dicke_state_full(4, v)),
    "dicke_state_full.n_ions": ("n_ions of a full-space operator",
                                lambda v: sa.dicke_state_full(v, 1)),
    "projections": ("n_ions", sa.projections),
    "hamming_weights": ("n_ions of a full-space operator", sa.hamming_weights),
    "symmetric_isometry": ("n_ions of a full-space operator", sa.symmetric_isometry),
    "sideband_operators.n_ions": ("n_ions", lambda v: model.sideband_operators(v, 2)),
    "sideband_operators.n_max": ("n_max", lambda v: model.sideband_operators(2, v)),
    "chain_indices.n_ions": ("n_ions", lambda v: model.chain_indices(v, 2)),
    "chain_indices.n_max": ("n_max", lambda v: model.chain_indices(2, v)),
    "reduced_coupling_parts": ("n_ions", model.reduced_coupling_parts),
    "parity_phases": ("n_phases", obs.parity_phases),
    "populations_azimuth": ("n_azimuths",
                            lambda v: obs.populations_azimuth(sa.half_excited_x(4), v)),
    "parity_curve": ("n_phases", lambda v: obs.parity_curve(sa.half_excited_x(2), v)),
    "SystemParams.n_ions": ("n_ions", lambda v: model.SystemParams(n_ions=v)),
    "SystemParams.n_max": ("n_max", lambda v: model.SystemParams(4, n_max=v)),
    "ShotConfig.n_shots": ("n_shots", lambda v: measurement.ShotConfig(v, seed=1)),
    "ShotConfig.seed": ("seed", lambda v: measurement.ShotConfig(10, seed=v)),
    "ShotConfig.stream": ("stream", lambda v: measurement.ShotConfig(10, seed=1, stream=v)),
    "substream": ("stream offset", lambda v: measurement.ShotConfig(10, seed=1).substream(v)),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1.5, 0.5])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_site_refuses_a_non_integer_by_name(site, value):
    # a ValueError naming the input and its bounds: no OverflowError from
    # int(inf), no IndexError from a fractional index, and no truncation
    # (a seed of 1.5 must not draw seed 1's counts)
    name, call = INTEGER_SITES[site]
    message = _message(lambda: call(value))
    assert message.startswith(f"{name} must be an integer in [")
    assert message.endswith(f"], got {value}")


def test_whole_returns_an_int_inside_its_inclusive_bounds():
    assert sa.whole(3, "k", 3, 3) == 3
    assert type(sa.whole(np.uint64(2**64 - 1), "seed", 0, measurement.KEY_MAX)) is int
    assert sa.whole(4.0, "n_ions", 1) == 4 and type(sa.half_excitation(4.0)) is int
    assert sa.whole(10**400, "n_ions", 1) == 10**400  # past every float, not an overflow
    with pytest.raises(ValueError, match=re.escape("k must be an integer in [0, 2], got 3")):
        sa.whole(3, "k", 0, 2)


def _arrays(value):
    """The ndarrays of ``value``, alone or in nested tuples."""
    if isinstance(value, tuple):
        return [array for item in value for array in _arrays(item)]
    return [value] if isinstance(value, np.ndarray) else []


@pytest.mark.parametrize("call, count", [
    (lambda v: obs.populations_azimuth(sa.half_excited_x(4), v), 13),
    (lambda v: obs.parity_curve(sa.half_excited_x(2), v), 40),
    (sa.hamming_weights, 2), (sa.symmetric_isometry, 2), (model.reduced_support, 4),
    (lambda v: sa.dicke_state_full(v, 1), 2),
    (lambda v: model.sideband_operators(v, 1), 4), (lambda v: model.sideband_operators(4, v), 1),
    (lambda v: model.chain_indices(v, 1), 4), (lambda v: model.chain_indices(4, v), 1),
], ids=["populations_azimuth", "parity_curve", "hamming_weights", "symmetric_isometry",
        "reduced_support", "dicke_state_full", "sideband_operators.n_ions",
        "sideband_operators.n_max", "chain_indices.n_ions", "chain_indices.n_max"])
def test_a_float_count_gives_the_bits_of_its_int(call, count):
    def words(value):
        return [(array.dtype, array.shape, array.tobytes()) for array in _arrays(value)]

    assert words(call(float(count))) == words(call(count))


@pytest.mark.parametrize("site, count", [
    ("parity_phases", -3), ("populations_azimuth", -1), ("parity_curve", -3),
    ("sideband_operators.n_max", -1), ("chain_indices.n_max", -1),
])
def test_a_negative_count_gets_the_integer_rule_s_message(site, count):
    name, call = INTEGER_SITES[site]
    assert _message(lambda: call(count)) == f"{name} must be an integer in [0, inf], got {count}"


# every cache of the package with the arguments of one entry; its int
# arguments are counts.  ``evolution._kernel``, the compiled RK4 step, is the
# one cache outside the table: it takes no argument and returns no array
CACHES = [
    (sa.build_collective, (4, "jx")), (sa.full_space_oracle, (4, "jx")),
    (certification.half_excited_full, (4, "x")), (model.full_support, (4, 6)),
    (certification._distance_keys, (4,)), (certification._krawtchouk, (4,)),
    (sa.projections, (4,)), (sa.hamming_weights, (4,)), (sa.half_excited_x, (4,)),
    (model.reduced_coupling_parts, (4,)), (model.reduced_support, (4,)),
    (obs._axis_eigenbasis, (4, "x")), (obs._azimuth_eigenbasis, (4, 13)),
    (obs._two_ion_analysis_ops, ()), (obs._parity_analysis_ops, (40,)),
    (certification._lower_coefficients, (2,)), (certification._qubit_rotations, ("y",)),
    (repro.strict_trajectory, (2,)), (repro.fast_trajectory, (2,)),
]


def _package_caches():
    """Every module attribute of the package with a ``cache_clear``, as the
    CI's cold pass finds them."""
    modules = [importlib.import_module(f"dickesim.{info.name}")
               for info in pkgutil.iter_modules(dickesim.__path__)]
    return {obj for module in modules for obj in vars(module).values()
            if hasattr(obj, "cache_clear")}


def test_every_cache_of_the_package_is_in_the_table():
    assert _package_caches() == {cached for cached, _ in CACHES} | {evolution._kernel}


@pytest.mark.parametrize("cached, args", CACHES)
def test_float_ion_number_fails_from_a_cold_and_a_warm_cache(cached, args):
    # every cache keys on the ints of its counts: a float spelling fills the
    # entry of the int from a cold cache and finds it in a warm one, and each
    # array it returns, alone or in a tuple, is read-only
    as_float = tuple(float(arg) if type(arg) is int else arg for arg in args)
    cached.cache_clear()
    cold = cached(*as_float)
    assert cached(*args) is cold
    cached.cache_clear()
    warm = cached(*args)
    assert cached(*as_float) is warm
    assert not any(array.flags.writeable for array in _arrays(cold) + _arrays(warm))


def test_a_count_given_by_name_is_refused_not_passed_around_its_rule():
    for call in (lambda: sa.build_collective(n_ions=4.0, kind="jx"),
                 lambda: model.full_support(4, n_max=6.0), lambda: sa.projections()):
        with pytest.raises(TypeError, match="takes its counts by position"):
            call()


# ---------------------------------------------------------------------------
# full-space oracle
# ---------------------------------------------------------------------------

def test_two_ion_symmetric_sector_is_triplet():
    iso = sa.symmetric_isometry(2)
    # |down,down>, (|down,up>+|up,down>)/sqrt(2), |up,up>
    expected = np.zeros((4, 3))
    expected[0, 0] = 1.0
    expected[1, 1] = expected[2, 1] = 1 / np.sqrt(2)
    expected[3, 2] = 1.0
    assert np.max(np.abs(iso - expected)) < 1e-15


@pytest.mark.parametrize("n", NS)
def test_conjugated_oracle_matches_collective(n):
    iso = sa.symmetric_isometry(n)
    for kind in ("j+", "jz"):
        full = sa.full_space_oracle(n, kind)
        reduced = iso.conj().T @ full @ iso
        assert np.max(np.abs(reduced - sa.build_collective(n, kind))) < 1e-12


def test_coupling_matches_full_space_elements():
    for n in NS:
        jp = sa.full_space_oracle(n, "j+")
        for m in range(n):
            bra = sa.dicke_state_full(n, m + 1)
            ket = sa.dicke_state_full(n, m)
            element = np.real(np.vdot(bra, jp @ ket))
            assert abs(element - sa.collective_coupling(n, m)) < 1e-12


def _swap_qubits(mat, n, i, j):
    perm = []
    for idx in range(2**n):
        bi, bj = (idx >> i) & 1, (idx >> j) & 1
        swapped = idx & ~(1 << i) & ~(1 << j) | (bi << j) | (bj << i)
        perm.append(swapped)
    perm = np.array(perm)
    return mat[np.ix_(perm, perm)]


def test_permutation_invariance():
    full = sa.full_space_oracle(4, "j+")
    for i, j in ((0, 1), (1, 3), (0, 2)):
        assert np.array_equal(_swap_qubits(full, 4, i, j), full)


def test_full_space_resource_guard():
    with pytest.raises(ValueError):
        sa.full_space_oracle(11, "jz")


@st.composite
def _generator_stacks(draw):
    k, d = draw(st.integers(0, 6)), draw(st.integers(2, 6))
    parts = draw(hnp.arrays(np.float64, (k, d, d, 2), elements=st.floats(-4.0, 4.0)))
    stack = parts.view(complex)[..., 0]
    if draw(st.booleans()):  # anti-Hermitian, as every generator of a rotation
        stack = (stack - stack.conj().transpose(0, 2, 1)) / 2
    return stack


@given(_generator_stacks())
@settings(max_examples=200, deadline=None)
def test_expm_of_a_stack_equals_each_slice_bit_for_bit(stack):
    # d = 2 is drawn too: some scipy versions give 2 x 2 matrices a formula of their own
    per_slice = np.array([expm(a) for a in stack], dtype=complex).reshape(stack.shape)
    assert np.array_equal(sa._expm(stack).view(float), per_slice.view(float))
