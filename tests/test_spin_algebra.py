import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

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
