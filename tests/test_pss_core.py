"""Reference waveform checks: sequence identities, grid mapping, files.

Numeric oracle values in this module were computed once by direct
evaluation (explicit DFT sums and explicit lag loops) and frozen here;
the library paths must keep reproducing them.
"""

import os

import numpy as np
import pytest

from pssdet import (
    CONJUGATE_ROOT,
    CP_LENGTH,
    PSS_ROOTS,
    ZC_LENGTH,
    add_cyclic_prefix,
    map_to_subcarriers,
    pss_time_domain,
    read_iq,
    write_iq,
    write_waveform_csv,
    zc_sequence,
)
from pssdet.pss import write_text

ROOTS = list(PSS_ROOTS)
SIZES = [64, 128]


# ---------------------------------------------------------------------------
# Zadoff-Chu sequence.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", ROOTS)
def test_zc_constant_amplitude(u):
    d = zc_sequence(u)
    assert d.shape == (ZC_LENGTH,)
    np.testing.assert_allclose(np.abs(d), 1.0, atol=1e-14)


@pytest.mark.parametrize("u", ROOTS)
def test_zc_matches_direct_formula(u):
    d = zc_sequence(u)
    n = np.arange(ZC_LENGTH)
    direct = np.exp(-1j * np.pi * u * n * (n + 1) / ZC_LENGTH)
    np.testing.assert_allclose(d, direct, atol=1e-12)


@pytest.mark.parametrize("u", ROOTS)
def test_zc_central_symmetry(u):
    # d(n) = d(62 - n): n(n+1) and (62-n)(63-n) differ by a multiple
    # of 2*63, so the phases coincide.
    d = zc_sequence(u)
    np.testing.assert_allclose(d, d[::-1], atol=1e-14)


@pytest.mark.parametrize("u", ROOTS)
def test_zc_zero_circular_autocorrelation(u):
    d = zc_sequence(u)
    for shift in range(1, ZC_LENGTH):
        r = np.vdot(np.roll(d, shift), d)
        assert abs(r) < 1e-11, shift


def test_zc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zc_sequence(0)
    with pytest.raises(ValueError):
        zc_sequence(63)
    with pytest.raises(ValueError):
        zc_sequence(21)  # gcd(21, 63) = 21


def test_conjugate_pair_is_29_34():
    # 63 - 29 = 34 makes the pair exact; root 25 pairs with 38, which
    # is not a PSS root, so it has no partner here.
    d29 = zc_sequence(29)
    d34 = zc_sequence(34)
    assert np.abs(d29 - np.conj(d34)).max() < 1e-12
    d25 = zc_sequence(25)
    assert np.abs(d25 - np.conj(d34)).max() > 1.0
    assert np.abs(d25 - np.conj(d29)).max() > 1.0

    assert CONJUGATE_ROOT == {29: 34, 34: 29}


# ---------------------------------------------------------------------------
# Subcarrier mapping.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size_n", SIZES)
def test_mapping_occupies_62_bins(size_n):
    bins = map_to_subcarriers(zc_sequence(25), size_n)
    occupied = np.flatnonzero(bins)
    assert len(occupied) == 62
    assert 0 not in occupied  # DC punctured
    expected = sorted(k % size_n for k in range(-31, 32) if k != 0)
    assert sorted(occupied.tolist()) == expected


@pytest.mark.parametrize("size_n", SIZES)
def test_mapping_bin_values(size_n):
    d = zc_sequence(25)
    bins = map_to_subcarriers(d, size_n)
    for k in range(-31, 32):
        if k == 0:
            continue
        assert bins[k % size_n] == d[k + 31], k
    # The center element d(31) is the punctured one.
    assert d[31] not in bins[np.flatnonzero(bins)][:1]


@pytest.mark.parametrize("size_n", SIZES)
def test_mapping_hermitian_like_symmetry(size_n):
    # d(n) = d(62 - n) turns into D(k) = D(N - k) on the grid.
    bins = map_to_subcarriers(zc_sequence(29), size_n)
    k = np.arange(1, size_n)
    np.testing.assert_allclose(bins[k], bins[size_n - k], atol=1e-14)


def test_mapping_rejects_small_grid():
    with pytest.raises(ValueError):
        map_to_subcarriers(zc_sequence(25), 62)


# ---------------------------------------------------------------------------
# Time-domain synthesis.
# ---------------------------------------------------------------------------

def _direct_time_domain(root, size_n):
    bins = map_to_subcarriers(zc_sequence(root), size_n)
    n = np.arange(size_n)[:, None]
    k = np.arange(size_n)[None, :]
    return (bins * np.exp(-2j * np.pi * n * k / size_n)).sum(axis=1) / size_n


@pytest.mark.parametrize("u", ROOTS)
@pytest.mark.parametrize("size_n", SIZES)
def test_time_domain_matches_direct_sum(u, size_n):
    w = pss_time_domain(u, size_n)
    direct = _direct_time_domain(u, size_n)
    scale = np.abs(direct).max()
    assert np.abs(w.samples - direct).max() / scale < 1e-12


@pytest.mark.parametrize("u", ROOTS)
@pytest.mark.parametrize("size_n", SIZES)
def test_time_domain_energy(u, size_n):
    # Parseval over 62 unit-modulus bins: sum |s|^2 = 62 / N.
    w = pss_time_domain(u, size_n)
    energy = np.sum(np.abs(w.samples) ** 2)
    assert abs(energy - 62 / size_n) < 1e-12


@pytest.mark.parametrize("u", ROOTS)
@pytest.mark.parametrize("size_n", SIZES)
def test_time_domain_even_symmetry(u, size_n):
    s = pss_time_domain(u, size_n).samples
    n = np.arange(1, size_n)
    np.testing.assert_allclose(s[n], s[size_n - n], atol=1e-14)


@pytest.mark.parametrize("size_n", SIZES)
def test_time_domain_conjugate_pair(size_n):
    s29 = pss_time_domain(29, size_n).samples
    s34 = pss_time_domain(34, size_n).samples
    assert np.abs(s29 - np.conj(s34)).max() < 1e-12


def test_time_domain_rejects_unsupported_size():
    with pytest.raises(ValueError):
        pss_time_domain(25, 96)


def _circular_xcorr_power(a, b):
    n = len(a)
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return np.abs(np.asarray([a[row] @ np.conj(b) for row in idx])) ** 2


@pytest.mark.parametrize("size_n", SIZES)
def test_clean_autocorrelation_n64_is_sharp(size_n):
    # Oracle, direct evaluation: peak-to-max-sidelobe power ratio is
    # 961 (= 31^2) at N = 64; at N = 128 the +/-1 lags are main-lobe
    # shoulders and the ratio beyond them is 18.1409.
    s = pss_time_domain(25, size_n).body
    y = _circular_xcorr_power(s, s)
    m = np.arange(size_n)
    dist = np.minimum(m, size_n - m)
    ratio = y[0] / y[dist >= 2].max()
    expected = 961.0 if size_n == 64 else 18.140922
    assert abs(ratio - expected) / expected < 1e-4


@pytest.mark.parametrize("size_n", SIZES)
@pytest.mark.parametrize("pair", [(25, 29), (25, 34), (29, 34)])
def test_cross_correlation_stays_low(size_n, pair):
    # Oracle, direct evaluation: worst pair is (25, 34) with a maximum
    # cross power of 0.1478 of the autocorrelation peak, below 0.3.
    a = pss_time_domain(pair[0], size_n).body
    b = pss_time_domain(pair[1], size_n).body
    peak = np.abs(a @ np.conj(a)) ** 2
    worst = _circular_xcorr_power(a, b).max() / peak
    assert worst < 0.3
    if pair == (25, 34):
        assert abs(worst - 0.147763) < 1e-3


# ---------------------------------------------------------------------------
# Cyclic prefix.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size_n", SIZES)
def test_cyclic_prefix_default_lengths(size_n):
    w = add_cyclic_prefix(pss_time_domain(25, size_n))
    assert w.cp_len == CP_LENGTH[size_n]
    assert len(w.samples) == size_n + w.cp_len
    np.testing.assert_array_equal(w.samples[: w.cp_len], w.body[-w.cp_len:])
    np.testing.assert_array_equal(w.body, pss_time_domain(25, size_n).samples)


def test_cyclic_prefix_rejects_double_application():
    w = add_cyclic_prefix(pss_time_domain(25, 64))
    with pytest.raises(ValueError):
        add_cyclic_prefix(w)


def test_waveforms_are_read_only():
    w = pss_time_domain(25, 64)
    with pytest.raises(ValueError):
        w.samples[0] = 0


def test_sequence_and_grid_are_read_only_arrays():
    d = zc_sequence(25)
    bins = map_to_subcarriers(d, 64)
    for values, length in ((d, ZC_LENGTH), (bins, 64)):
        assert isinstance(values, np.ndarray) and values.shape == (length,)
        with pytest.raises(ValueError):
            values[1] = 0


# ---------------------------------------------------------------------------
# File round trips.
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    w = add_cyclic_prefix(pss_time_domain(34, 128))
    path = tmp_path / "pss.csv"
    write_waveform_csv(path, w.samples)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], np.arange(len(w.samples)))
    np.testing.assert_array_equal(rows[:, 1] + 1j * rows[:, 2], w.samples)
    header = path.read_text().splitlines()[0]
    assert header == "index,re,im"


def test_csv_exact_bytes(tmp_path):
    # A header row, then index and repr-formatted floats; CRLF endings.
    path = tmp_path / "two.csv"
    write_waveform_csv(path, np.array([1 + 2j, -0.5 + 0j]))
    assert path.read_bytes() == b"index,re,im\r\n0,1.0,2.0\r\n1,-0.5,0.0\r\n"


def test_csv_rewrite_is_byte_identical(tmp_path):
    w = pss_time_domain(29, 64)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_waveform_csv(a, w.samples)
    write_waveform_csv(b, w.samples)
    assert a.read_bytes() == b.read_bytes()


def test_iq_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    path = tmp_path / "buf.iq"
    write_iq(path, samples)
    np.testing.assert_array_equal(read_iq(path), samples)
    assert path.stat().st_size == 257 * 16


def test_write_text_replaces_atomically_and_cleans_up(tmp_path):
    path = tmp_path / "sub" / "out.json"
    write_text(path, "first\n")
    write_text(path, "second\n")
    assert path.read_text() == "second\n"
    # A failed write leaves the old file and no temporary file behind.
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "\udc80")
    assert path.read_text() == "second\n"
    assert os.listdir(path.parent) == ["out.json"]
