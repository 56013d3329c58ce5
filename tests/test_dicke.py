"""Collective-spin sector states, rotations, and density-matrix checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from spincat.dicke import (
    Basis,
    DickeDensityMatrix,
    DickeState,
    SectorLabel,
    _density_matrix,
    coherence_corner,
    coherent_state,
    fidelity,
    purity,
    rotation_to_x,
    to_x_basis,
)
from spincat.errors import DomainError, UsageError


def test_sector_label_basics():
    sec = SectorLabel(4)
    assert sec.l == 2.0
    assert sec.dimension == 5
    assert sec.symmetric
    assert np.array_equal(sec.m_values(), [2.0, 1.0, 0.0, -1.0, -2.0])
    odd = SectorLabel(3)
    assert odd.l == 1.5
    assert np.array_equal(odd.m_values(), [1.5, 0.5, -0.5, -1.5])
    sub = SectorLabel(4, l=1.0)
    assert not sub.symmetric
    assert sub.dimension == 3


@pytest.mark.parametrize("n,l", [
    (0, None),        # no particles
    (4, 3.0),         # l > N/2
    (4, 0.7),         # 2l not an integer
    (4, -1.0),        # negative
])
def test_sector_label_validation(n, l):
    with pytest.raises(DomainError):
        SectorLabel(n, l=l)


def test_coherent_state_two_particles():
    st = coherent_state(SectorLabel(2), math.pi / 2, 0.0)
    assert np.allclose(st.amplitudes, [0.5, math.sqrt(0.5), 0.5],
                       rtol=0, atol=1e-15)
    assert st.bloch == (math.pi / 2, 0.0)
    assert st.basis is Basis.LZ


def test_coherent_state_poles():
    top = coherent_state(SectorLabel(6), 0.0, 0.3)
    amp = np.zeros(7)
    amp[0] = 1.0
    assert np.allclose(top.amplitudes, amp, atol=1e-15)
    bottom = coherent_state(SectorLabel(6), math.pi, 0.0)
    amp = np.zeros(7)
    amp[-1] = 1.0
    assert np.allclose(bottom.amplitudes, amp, atol=1e-15)


def test_coherent_state_angle_identities():
    sec = SectorLabel(5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        phi = float(rng.uniform(-math.pi, math.pi))
        a = coherent_state(sec, theta, phi).amplitudes
        # azimuth periodic
        b = coherent_state(sec, theta, phi + 2 * math.pi).amplitudes
        assert np.allclose(a, b, atol=1e-12)
        # theta -> -theta equals phi -> phi + pi
        c = coherent_state(sec, -theta, phi).amplitudes
        d = coherent_state(sec, theta, phi + math.pi).amplitudes
        assert np.allclose(c, d, atol=1e-12)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-14)


def test_coherent_state_requires_symmetric_sector():
    with pytest.raises(UsageError):
        coherent_state(SectorLabel(4, l=1.0), 0.3, 0.0)


def test_rotation_matches_exponential():
    # rows of the rotation are the Jx eigenvectors; as a matrix it equals
    # expm(+i (pi/2) Jy) in the Lz basis
    # at N = 150 and 400 the m' = -l component that fixes a row's sign is
    # far below roundoff for the outer rows (2**-l for the extreme ones)
    for n in (1, 2, 3, 6, 11, 150, 400):
        sec = SectorLabel(n)
        dim = sec.dimension
        l = sec.l
        m = sec.m_values()
        jy = np.zeros((dim, dim), dtype=complex)
        for k in range(dim - 1):
            c = math.sqrt(l * (l + 1) - m[k + 1] * (m[k + 1] + 1))
            jy[k, k + 1] = c / 2j
            jy[k + 1, k] = -c / 2j
        expected = expm(1j * (math.pi / 2) * jy)
        assert np.allclose(rotation_to_x(sec), expected.real, atol=5e-13)
        assert np.abs(expected.imag).max() < 5e-13


def test_rotation_small_sector_known_matrices():
    # spin-1 rotation by -pi/2 about y, rows indexed by m_x = 1, 0, -1
    s = math.sqrt(0.5)
    known = np.array([[0.5, s, 0.5],
                      [-s, 0.0, s],
                      [0.5, -s, 0.5]])
    assert np.allclose(rotation_to_x(SectorLabel(2)), known, atol=1e-14)
    # spin-1/2: entries all +-1/sqrt(2)
    half = rotation_to_x(SectorLabel(1))
    assert np.allclose(np.abs(half), s, atol=1e-14)


def test_rotation_unitarity():
    for n in (1, 2, 5, 24, 50, 1000):
        M = rotation_to_x(SectorLabel(n))
        dim = M.shape[0]
        assert np.abs(M @ M.T - np.eye(dim)).max() < 1e-12
        # every row has a definite parity, exactly: M[r, d-1-k] = (-1)**r M[r, k]
        parity = (-1.0) ** np.arange(dim)
        assert np.array_equal(M[:, ::-1], parity[:, None] * M)


@pytest.mark.parametrize("n", [1000, 4096])
def test_rotation_edge_rows_are_x_coherent_states(n):
    # rows 0 and -1 are the spin coherent states along +x and -x:
    # sqrt(C(2l, k)) / 2**l and (-1)**k times it, k = l - m' = 0 .. 2l
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in k])
    mag = np.exp(0.5 * (log_fact[-1] - log_fact - log_fact[::-1]) - 0.5 * n * math.log(2.0))
    M = rotation_to_x(SectorLabel(n))
    assert np.abs(M[0] - mag).max() <= 1e-12
    assert np.abs(M[-1] - (-1.0) ** k * mag).max() <= 1e-12


def test_rotate_pole_gives_binomial():
    # |theta=0> seen along x: binomial amplitude profile
    sec = SectorLabel(8)
    amp_x = rotation_to_x(sec) @ coherent_state(sec, 0.0, 0.0).amplitudes
    expected = coherent_state(sec, math.pi / 2, 0.0).amplitudes
    assert np.allclose(np.abs(amp_x), np.abs(expected), atol=1e-13)


def test_to_x_basis_consistent_with_state_rotation():
    sec = SectorLabel(6)
    st = coherent_state(sec, 0.9, 0.4)
    rho = st.projector()
    rho_x = to_x_basis(rho)
    amp_x = rotation_to_x(sec) @ st.amplitudes
    assert rho_x.basis_tag is Basis.LX
    assert np.allclose(rho_x.elements, np.outer(amp_x, amp_x.conj()), atol=1e-13)
    # rotation preserves the spectrum and hence the purity
    assert purity(rho_x) == pytest.approx(purity(rho), abs=1e-12)


def test_to_x_basis_matches_complex_product_with_subnormal_entries():
    # amplitudes of 1e-160 give entries of about 1e-320 (subnormal) in the
    # real and the imaginary parts; real, imaginary and zero amplitudes give
    # parts that are exactly zero; 3e-7 gives normal entries of about 1e-13,
    # which must survive
    sec = SectorLabel(9)
    amps = np.array([0.5, 0.3j, 0.2 + 0.4j, 1e-160, 1e-160j, 2e-160 - 1e-160j,
                     0.0, -0.1, 0.25 - 0.1j, 3e-7j])
    amps /= np.linalg.norm(amps)
    other = np.roll(amps, 3) * np.exp(0.7j)
    rho = DickeDensityMatrix(sec, 0.75 * np.outer(amps, amps.conj())
                             + 0.25 * np.outer(other, other.conj()), Basis.LZ)
    tiny = np.finfo(float).tiny
    for part in (rho.elements.real, rho.elements.imag):
        assert np.any((part != 0.0) & (np.abs(part) < tiny))
        assert np.any(part == 0.0)
    before = rho.elements.copy()
    rho_x = to_x_basis(rho).elements
    mat = rotation_to_x(sec).astype(complex)
    assert np.max(np.abs(rho_x - mat @ rho.elements @ mat.T)) <= 1e-15
    assert np.max(np.abs(rho_x - rho_x.conj().T)) <= 1e-15
    assert abs(np.trace(rho_x) - 1.0) <= 1e-15
    assert np.array_equal(before.view(np.int64), rho.elements.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), rank=st.integers(1, 13), data=st.data())
def test_to_x_basis_preserves_trace_and_purity(n, rank, data):
    parts = data.draw(arrays(np.float64, (2, n + 1, rank),
                             elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]
    gram = a @ a.conj().T
    tr = float(np.trace(gram).real)
    assume(tr > 1e-6)
    rho = DickeDensityMatrix(SectorLabel(n), (gram + gram.conj().T) / (2.0 * tr))
    rho_x = to_x_basis(rho)
    assert abs(np.trace(rho_x.elements) - np.trace(rho.elements)) <= 1e-12
    assert abs(purity(rho_x) - purity(rho)) <= 1e-12
    assert np.array_equal(rho_x.elements, rho_x.elements.conj().T)


@pytest.mark.parametrize("n", [1, 2, 7, 150, 1000])
def test_to_x_basis_is_exactly_hermitian(n):
    # a coherent state off the axes, twisted and dephased: complex entries
    # of every size, so the two rotated parts round asymmetrically
    sec = SectorLabel(n)
    amps = coherent_state(sec, 1.1, 0.4).amplitudes
    m = sec.m_values()
    kernel = np.exp(-0.37j * (m[:, None] ** 2 - m[None, :] ** 2)
                    - 1e-3 * (m[:, None] - m[None, :]) ** 2)
    rho = _density_matrix(sec, np.outer(amps, amps.conj()) * kernel, Basis.LZ)
    x = to_x_basis(rho).elements
    assert np.array_equal(x, x.conj().T)
    assert np.all(x.imag.diagonal() == 0.0)
    # the symmetrised result is the complex product to rounding
    mat = rotation_to_x(sec).astype(complex)
    assert np.max(np.abs(x - mat @ rho.elements @ mat.T)) <= 1e-15


def test_density_matrix_validation():
    sec = SectorLabel(2)
    good = np.diag([0.5, 0.3, 0.2]).astype(complex)
    DickeDensityMatrix(sec, good, Basis.LZ)
    with pytest.raises(DomainError):
        DickeDensityMatrix(sec, np.diag([0.6, 0.3, 0.2]).astype(complex),
                           Basis.LZ)  # trace
    bad = good.copy()
    bad[0, 1] = 0.1
    with pytest.raises(DomainError):
        DickeDensityMatrix(sec, bad, Basis.LZ)  # hermiticity
    neg = np.diag([0.7, 0.5, -0.2]).astype(complex)
    with pytest.raises(DomainError):
        DickeDensityMatrix(sec, neg, Basis.LZ)  # positivity


def test_state_normalization_enforced():
    sec = SectorLabel(2)
    with pytest.raises(DomainError):
        DickeState(sec, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        DickeState(sec, np.array([1.0, 0.0]))  # wrong length


def test_fidelity_and_purity():
    sec = SectorLabel(4)
    a = coherent_state(sec, 0.7, 0.1)
    b = coherent_state(sec, 0.7 + 1e-9, 0.1)
    rho = a.projector()
    assert fidelity(rho, a) == pytest.approx(1.0, abs=1e-13)
    assert fidelity(rho, b) == pytest.approx(1.0, abs=1e-8)
    assert purity(rho) == pytest.approx(1.0, abs=1e-13)
    # pure-state fidelity is the squared overlap
    c = coherent_state(sec, 1.9, -0.7)
    overlap = abs(np.vdot(c.amplitudes, a.amplitudes)) ** 2
    assert fidelity(rho, c) == pytest.approx(overlap, rel=1e-12)
    top = coherent_state(sec, 0.0, 0.0)
    bottom = coherent_state(sec, math.pi, 0.0)
    assert fidelity(top.projector(), bottom) == pytest.approx(0.0, abs=1e-14)
    mixed = DickeDensityMatrix(sec, np.eye(5, dtype=complex) / 5.0, Basis.LZ)
    assert purity(mixed) == pytest.approx(0.2, rel=1e-13)


def test_fidelity_mismatch_errors():
    a = coherent_state(SectorLabel(4), 0.7, 0.1)
    rho = a.projector()
    with pytest.raises(UsageError):
        fidelity(rho, coherent_state(SectorLabel(6), 0.7, 0.1))
    st_x = DickeState(SectorLabel(4), a.amplitudes, Basis.LX)
    with pytest.raises(UsageError):
        fidelity(rho, st_x)


def test_coherence_corner():
    sec = SectorLabel(2)
    rho_z = coherent_state(sec, math.pi / 2, 0.0).projector()
    with pytest.raises(UsageError):
        coherence_corner(rho_z)
    rho_x = to_x_basis(rho_z)
    assert coherence_corner(rho_x) == pytest.approx(
        abs(rho_x.elements[0, -1]), rel=1e-15)
    # equatorial coherent state is |m=l> along x: corner vanishes
    assert coherence_corner(rho_x) == pytest.approx(0.0, abs=1e-14)
