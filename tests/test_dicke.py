"""Collective-spin sector states, rotations, and density-matrix checks."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from spincat import dicke
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
from spincat.errors import DomainError, NumericError, UsageError


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


@pytest.mark.parametrize("n", [True, False])
def test_sector_label_rejects_a_boolean_particle_number(n):
    with pytest.raises(DomainError):
        SectorLabel(n)


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


@pytest.mark.parametrize("theta", [0.0, -0.0])
def test_coherent_state_at_a_zero_angle_has_exact_zeros(theta):
    # sin(theta/2) is 0 (or -0): every amplitude with a power of it is 0
    amps = coherent_state(SectorLabel(6), theta, 0.3).amplitudes
    assert amps[0] == 1.0
    assert np.all(amps[1:] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 51])
def test_coherent_state_log_magnitudes_need_no_error_state(n):
    # a zero half-angle factor enters as -inf, never as log(0), and
    # log|cos|, log|sin| <= 0 never meet +inf: no division by zero or
    # invalid operation at any angle, so no error state is set around them
    for theta in (0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300, 5e-324, 1e10, -3.0):
        with np.errstate(divide="raise", invalid="raise"):
            amps = coherent_state(SectorLabel(n), theta, 0.3).amplitudes
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)


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


def test_coherent_states_share_one_log_binomial_table_per_sector_size():
    dicke._half_log_binomials.cache_clear()
    states = [coherent_state(SectorLabel(100), theta, 0.2) for theta in (0.3, 1.1, 2.0)]
    info = dicke._half_log_binomials.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    table = dicke._half_log_binomials(100)
    assert not table.flags.writeable
    lg = [math.lgamma(i + 1.0) for i in range(101)]
    assert table.tolist() == [0.5 * (lg[100] - lg[k] - lg[100 - k]) for k in range(101)]
    # the cached table gives the bits a fresh one gives
    dicke._half_log_binomials.cache_clear()
    for state, theta in zip(states, (0.3, 1.1, 2.0)):
        fresh = coherent_state(SectorLabel(100), theta, 0.2)
        dicke._half_log_binomials.cache_clear()
        assert np.array_equal(state.amplitudes, fresh.amplitudes)


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


def test_rotation_of_a_one_dimensional_sector_is_one():
    sec = SectorLabel(2, 0)
    mat = rotation_to_x(sec)
    assert mat.tobytes() == np.ones((1, 1)).tobytes()
    rho = DickeDensityMatrix(sec, np.ones((1, 1), dtype=complex))
    rho_x = to_x_basis(rho)
    assert rho_x.basis_tag is Basis.LX
    assert rho_x.elements.tobytes() == rho.elements.tobytes()


def _parity_parts_reference(part, ev):
    # the docstring of dicke._parity_parts entry by entry: the entries whose
    # row and column are both even, both odd, and even and odd (the first
    # even position ev), each below the smallest normal float set to 0
    d = len(part)
    tiny = np.finfo(float).tiny
    rows = part.tolist()
    return [np.array([[0.0 if abs(rows[i][j]) < tiny else rows[i][j]
                       for j in range(c, d, 2)] for i in range(r, d, 2)]).reshape(
                           len(range(r, d, 2)), len(range(c, d, 2)))
            for r, c in ((ev, ev), (1 - ev, 1 - ev), (ev, 1 - ev))]


@pytest.mark.parametrize("d", [*range(1, 10), 50, 51, 63, 64, 65, 66, 97, 400, 401])
def test_parity_parts_match_the_per_entry_folds(d):
    # magnitudes from 1e-320 (subnormal) to 1e10, either sign, some exact 0
    rng = np.random.default_rng(d)
    grid = rng.choice([-1.0, 1.0], (d, d)) * 10.0 ** rng.uniform(-320.0, 10.0, (d, d))
    grid[rng.random((d, d)) < 0.1] = 0.0
    part = grid.astype(complex).real  # a strided view, as to_x_basis passes
    for ev in (0, 1):
        got = dicke._parity_parts(part, ev)
        for x, ref in zip(got, _parity_parts_reference(grid, ev), strict=True):
            assert x.shape == ref.shape
            assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("sec", [SectorLabel(2, 0),
                                 *(SectorLabel(d - 1) for d in (*range(2, 10), 64, 65)),
                                 SectorLabel(6, 2), SectorLabel(5, 0.5)],
                         ids=lambda sec: f"N{sec.n_particles}-l{sec.l}")
def test_real_rotation_is_the_modulus_of_the_complex_one(sec):
    # a Hermitian PSD rho with complex entries, a zero row and column, and
    # rows scaled by 1e-160, whose products are subnormal (about 1e-320)
    d = sec.dimension
    rng = np.random.default_rng(d)
    half = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    half[rng.permutation(d)[:d // 3]] *= 1e-160
    if d > 2:
        half[d // 2] = 0.0
    rho = half @ half.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    rho = DickeDensityMatrix(sec, rho).elements
    s = np.sqrt(np.maximum(rho.real.diagonal(), 0.0))
    grid = dicke._x_rotate(sec, s, lambda lo, hi: rho[lo:hi, lo:hi], float)
    x = dicke._x_rotate(sec, s, lambda lo, hi: rho[lo:hi, lo:hi], complex)
    assert grid.dtype == np.float64 and x.dtype == np.complex128
    assert grid.tobytes() == np.abs(x).tobytes()
    assert x.tobytes() == to_x_basis(DickeDensityMatrix(sec, rho)).elements.tobytes()
    if d > 2:
        assert np.any(rho == 0.0) and np.any((rho != 0.0) & (np.abs(rho) < np.finfo(float).tiny))


def test_rotation_unitarity():
    for n in (1, 2, 5, 24, 50, 1000):
        M = rotation_to_x(SectorLabel(n))
        dim = M.shape[0]
        assert np.abs(M @ M.T - np.eye(dim)).max() < 1e-12
        # every row has a definite parity, exactly: M[r, d-1-k] = (-1)**r M[r, k]
        parity = (-1.0) ** np.arange(dim)
        assert np.array_equal(M[:, ::-1], parity[:, None] * M)


@pytest.mark.parametrize("n", [*range(1, 65), 515, 1000, 1001, 4095, 4096])
def test_a_rotation_builds_the_top_rows_of_the_whole_matrix(n):
    # the top (d+1)//2 rows, all a rotation reads, are the whole matrix's
    # bit for bit; the whole matrix's bottom rows are its top rows mirrored,
    # M[d-1-r, k] = (-1)**(d-1+k) M[r, k]; and every zero is +0.0 but in the
    # first half of an odd row, which the row's parity negates
    sec = SectorLabel(n)
    d, h = sec.dimension, (sec.dimension + 1) // 2
    mat = rotation_to_x(sec)
    top = dicke._x_rows(sec, h)
    assert top.shape == (h, d) and not top.flags.writeable
    assert top.tobytes() == mat[:h].tobytes()
    sign = (-1.0) ** (d - 1 + np.arange(d))
    assert np.array_equal(mat[h:], (sign * mat[:d // 2])[::-1])
    r, k = np.nonzero(mat == 0.0)
    assert np.array_equal(np.signbit(mat[r, k]), (r % 2 == 1) & (k < h))


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


def _twisted_dephased(n, theta, phi, twist=0.37):
    # a coherent state, twisted and dephased as the propagator does it
    sec = SectorLabel(n)
    amps = coherent_state(sec, theta, phi).amplitudes
    m = sec.m_values()
    kernel = np.exp(-1j * twist * (m[:, None] ** 2 - m[None, :] ** 2)
                    - 1e-3 * (m[:, None] - m[None, :]) ** 2)
    return _density_matrix(sec, np.outer(amps, amps.conj()) * kernel, Basis.LZ)


@pytest.mark.parametrize("n", [1, 2, 7, 150, 1000])
def test_to_x_basis_is_exactly_hermitian(n):
    # a coherent state off the axes, twisted and dephased: complex entries
    # of every size, so the two rotated parts round asymmetrically
    sec = SectorLabel(n)
    rho = _twisted_dephased(n, 1.1, 0.4)
    x = to_x_basis(rho).elements
    assert np.array_equal(x, x.conj().T)
    assert np.all(x.imag.diagonal() == 0.0)
    # the symmetrised result is the complex product to rounding
    mat = rotation_to_x(sec).astype(complex)
    assert np.max(np.abs(x - mat @ rho.elements @ mat.T)) <= 1e-15


def _floor(rho):
    # the floor of to_x_basis, as its header states it
    return dicke._x_floor(rho.sector, np.sqrt(rho.elements.real.diagonal()))


def test_to_x_basis_traces_at_most_30_bytes_per_entry_beyond_rho():
    # the complex result (16) and the rotation's halves (4), with the parity
    # parts of one part of rho (6) folded in blocks of rows
    sec = SectorLabel(400)
    rho = coherent_state(sec, math.pi / 4, 0.3).projector()
    to_x_basis(rho)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        to_x_basis(rho)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 30.2 * sec.dimension ** 2


@pytest.mark.parametrize("n, theta, phi, twist", [(20, 1.1, 0.4, 0.0), (150, 1.1, 0.4, 2e-3),
                                                  (299, math.pi / 2, 0.0, 0.37),
                                                  (400, 0.6, 2.0, 1e-3)])
def test_to_x_basis_zeroes_the_entries_within_their_floor(monkeypatch, n, theta, phi, twist):
    # every zeroed entry is at or below its floor, every kept one above it
    # and untouched
    rho = _twisted_dephased(n, theta, phi, twist)
    x = to_x_basis(rho).elements
    with monkeypatch.context() as m:  # a floor that zeroes nothing
        m.setattr(dicke, "_floor_rows", lambda gain, b, o, r0, r1: np.full((len(b[r0:r1]), len(b)), -1.0))
        raw = to_x_basis(rho).elements
    floor, mag = _floor(rho), np.abs(raw)
    kept = x != 0.0
    assert np.all(mag[~kept] <= floor[~kept] * (1.0 + 1e-12))
    assert np.all(mag[kept] > floor[kept] * (1.0 - 1e-12))
    assert np.array_equal(x[kept], raw[kept])
    assert np.count_nonzero(~kept & (raw != 0.0)) > n


@settings(max_examples=300, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 30), elements=st.integers(0, 50).map(float)),
       share=st.sampled_from([2.0 ** -53, 0.01, 0.1, 0.3, 0.0]))
def test_support_is_the_first_smallest_window(x, share):
    # against every range, shortest first and then from the left; integer
    # entries make every sum exact
    d = len(x)
    budget = share * x.sum()
    want = next((lo, lo + w) for w in range(d + 1) for lo in range(d - w + 1)
                if x[:lo].sum() + x[lo + w:].sum() <= budget)
    assert dicke._support(x, share) == want


@pytest.mark.parametrize("n, theta", [(1, 1.1), (2, 0.3), (7, 2.5), (50, 1.1), (400, math.pi / 4),
                                      (401, 2.9)])
def test_rotation_reads_each_row_of_its_window_once(n, theta):
    # rho is asked for once, for the square of its window, and the result is
    # that of the whole matrix's rotation
    rho = _twisted_dephased(n, theta, 0.4)
    el = rho.elements
    s = np.sqrt(el.real.diagonal())
    asked = []

    def square(lo, hi):
        asked.extend(range(lo, hi))
        return el[lo:hi, lo:hi]

    x = dicke._x_rotate(rho.sector, s, square, complex)
    lo, hi = dicke._support(s)
    assert asked == list(range(lo, hi))
    assert x.tobytes() == to_x_basis(rho).elements.tobytes()
    if n >= 400:
        assert hi - lo < n // 2


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
def test_to_x_basis_is_within_the_floor_of_the_exact_product():
    # against M rho M^T in extended precision, M as the rotation gives it: a
    # kept entry is within its floor of it, a zeroed one within twice its floor
    rho = _twisted_dephased(150, 1.1, 0.4, 2e-3)
    x = to_x_basis(rho).elements
    mat = rotation_to_x(rho.sector).astype(np.longdouble)
    exact = [mat @ part.astype(np.longdouble) @ mat.T
             for part in (rho.elements.real, rho.elements.imag)]
    err = np.hypot(x.real - exact[0], x.imag - exact[1]).astype(float)
    floor = _floor(rho)
    kept = x != 0.0
    assert np.all(err[kept] <= floor[kept])
    assert np.all(err[~kept] <= 2.0 * floor[~kept])
    assert 0 < np.count_nonzero(kept) < x.size


@pytest.mark.parametrize("n", [50, 51, 400])
def test_the_floor_zeroes_every_entry_parity_makes_zero(n):
    # at theta = pi/2, phi = 0 the state, twisted and dephased, is symmetric
    # under m -> -m, so every exact Lx entry with r - c odd is 0; the rounded
    # ones are not, and each lies within its floor
    x = to_x_basis(_twisted_dephased(n, math.pi / 2, 0.0)).elements
    r, c = np.indices(x.shape)
    assert not np.any(x[(r - c) % 2 == 1])


def _rotation_entry(two_l: int, r: int, k: int) -> float:
    # M[r, k] = d^l_{m m'}(pi/2), m = l - k, m' = l - r (Wigner's small d):
    # 2**-l sqrt(C(2l, l+m') / C(2l, l+m)) sum_s (-1)**(s+m-m') C(l+m', s) C(l-m', l-m-s),
    # the sum formed exactly in integers, so only the root needs mpmath
    p, q, c, e = two_l - r, r, two_l - k, k  # l+m', l-m', l+m, l-m
    lo, hi = max(0, p - c), min(p, e)
    a, b = math.comb(p, lo), math.comb(q, e - lo)
    total = 0
    for s in range(lo, hi + 1):
        total += -a * b if (s + c - p) % 2 else a * b
        a = a * (p - s) // (s + 1)
        if s < e:
            b = b * (e - s) // (q - e + s + 1)
    with mpmath.workdps(40):
        return float(mpmath.mpf(total) * mpmath.sqrt(mpmath.mpf(math.comb(two_l, p))
                                                     / math.comb(two_l, c))
                     / mpmath.mpf(2) ** (mpmath.mpf(two_l) / 2))


def test_rotation_entry_oracle_matches_exponential():
    # the closed form's index and sign mapping, against expm(+i pi/2 J_y)
    for n in (19, 20):
        l, m = n / 2.0, SectorLabel(n).m_values()
        jy = np.zeros((n + 1, n + 1), dtype=complex)
        for k in range(n):
            jy[k, k + 1] = math.sqrt(l * (l + 1) - m[k + 1] * (m[k + 1] + 1)) / 2j
            jy[k + 1, k] = -jy[k, k + 1]
        oracle = [[_rotation_entry(n, r, k) for k in range(n + 1)] for r in range(n + 1)]
        assert np.abs(expm(1j * (math.pi / 2) * jy) - oracle).max() <= 1e-14


@pytest.mark.parametrize("n", [4096, 4095])
def test_rotation_interior_entries_at_the_particle_cap(n):
    # 40 entries of unit rows, edge and middle ones, in and beyond the
    # amplitude bulk; the middle entries of the two outer rows on each side
    # are the least accurate (6.1-12.9 u), the others are within 1 u
    mat = rotation_to_x(SectorLabel(n))
    for r in (0, 1, 700, n // 2, n // 2 + 1, 3400, n - 1, n):
        for k in (0, 1300, n // 2, 2300, 3000):
            assert abs(mat[r, k] - _rotation_entry(n, r, k)) <= 16 * 2.0 ** -53, (r, k)


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
    with pytest.raises(DomainError, match=r"elements shape \(2, 2\) != \(3, 3\)"):
        DickeDensityMatrix(sec, np.eye(2) / 2)


def test_state_normalization_enforced():
    sec = SectorLabel(2)
    with pytest.raises(DomainError):
        DickeState(sec, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        DickeState(sec, np.array([1.0, 0.0]))  # wrong length


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_amplitudes_must_be_finite(bad):
    # a NaN norm passes the norm test's comparison
    with pytest.raises(DomainError):
        DickeState(SectorLabel(2), np.array([bad, 0.0, 0.0]))
    with pytest.raises(DomainError):
        DickeState(SectorLabel(2), np.array([1.0, complex(0.0, bad), 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_matrix_entries_must_be_finite(bad):
    # NaN passes the hermiticity, trace and eigenvalue comparisons
    with pytest.raises(DomainError):
        DickeDensityMatrix(SectorLabel(1), np.full((2, 2), complex(bad)))
    off = np.eye(2, dtype=complex) / 2.0
    off[0, 1] = off[1, 0] = bad
    with pytest.raises(DomainError):
        DickeDensityMatrix(SectorLabel(1), off)


@pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.3, math.nan), (math.inf, 0.0),
                                        (0.3, -math.inf)])
def test_coherent_state_angles_must_be_finite(theta, phi):
    with pytest.raises(DomainError):
        coherent_state(SectorLabel(3), theta, phi)


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


@pytest.mark.parametrize("val", [-2e-12, 1.0 + 2e-12, -math.inf, math.inf])
def test_fidelity_beyond_tolerance_raises_with_the_estimate(val):
    # within the norm tolerance a computed fidelity is clamped, beyond it the
    # error carries the value found
    with pytest.raises(NumericError, match=r"outside \[0,1\] beyond tolerance") as err:
        dicke._clamped_fidelity(val)
    assert err.value.estimate == val
    assert dicke._clamped_fidelity(-5e-13) == 0.0
    assert dicke._clamped_fidelity(1.0 + 5e-13) == 1.0


def test_coherence_corner():
    sec = SectorLabel(2)
    rho_z = coherent_state(sec, math.pi / 2, 0.0).projector()
    with pytest.raises(UsageError):
        coherence_corner(rho_z)
    rho_x = to_x_basis(rho_z)
    with pytest.raises(UsageError, match="density matrix already in basis Lx"):
        to_x_basis(rho_x)
    assert coherence_corner(rho_x) == pytest.approx(
        abs(rho_x.elements[0, -1]), rel=1e-15)
    # equatorial coherent state is |m=l> along x: corner vanishes
    assert coherence_corner(rho_x) == pytest.approx(0.0, abs=1e-14)
