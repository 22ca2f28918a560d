"""Correlator engines: metric agreement and per-sample op counts."""

import numpy as np
import pytest

from pssdet import (
    EngineConfig,
    bench_ops,
    cluster_correlate,
    kmeans_cluster,
    mf_correlate,
    mf_correlate_optimized,
    pss_time_domain,
)
from pssdet.correlator import _windows

RNG_BUFFERS = 25


def _waveforms(size_n):
    return tuple(pss_time_domain(u, size_n) for u in (25, 29, 34))


def _noise(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


# ---------------------------------------------------------------------------
# Window extraction.
# ---------------------------------------------------------------------------

def test_windows_shapes_and_content():
    r = np.arange(10, dtype=complex)
    sli = _windows(r, 4, "sliding")
    assert sli.shape == (7, 4)
    np.testing.assert_array_equal(sli[3], r[3:7])
    cir = _windows(r, 4, "circular")
    assert cir.shape == (4, 4)
    np.testing.assert_array_equal(cir[3], [3, 0, 1, 2])


def test_windows_validation():
    with pytest.raises(ValueError):
        _windows(np.zeros(3), 4, "sliding")
    with pytest.raises(ValueError):
        _windows(np.zeros(8), 4, "diagonal")


# ---------------------------------------------------------------------------
# Brute matched filter.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size_n", [64, 128])
def test_mf_peaks_at_embedded_offset(size_n):
    w = pss_time_domain(25, size_n)
    buf = np.zeros(3 * size_n, dtype=complex)
    buf[50: 50 + size_n] = w.body
    trace = mf_correlate(buf, w, "sliding")
    assert int(np.argmax(trace)) == 50
    # Peak value is the squared body energy (Cauchy-Schwarz equality).
    energy = np.sum(np.abs(w.body) ** 2)
    assert abs(trace[50] - energy**2) < 1e-12


def test_mf_circular_op_tally():
    # Circular mode yields one lag per template sample.
    w = pss_time_domain(29, 128)
    rng = np.random.default_rng(0)
    trace = mf_correlate(_noise(rng, 128), w, "circular")
    assert len(trace) == 128


def test_mf_sliding_lag_count():
    w = pss_time_domain(25, 64)
    rng = np.random.default_rng(1)
    trace = mf_correlate(_noise(rng, 200), w, "sliding")
    assert len(trace) == 200 - 64 + 1


def test_mf_scale_covariance():
    w = pss_time_domain(34, 64)
    rng = np.random.default_rng(2)
    buf = _noise(rng, 150)
    base = mf_correlate(buf, w, "sliding")
    scaled = mf_correlate((2 - 1j) * buf, w, "sliding")
    np.testing.assert_allclose(scaled, abs(2 - 1j) ** 2 * base,
                               rtol=1e-12)


def test_mf_shift_covariance():
    w = pss_time_domain(25, 64)
    rng = np.random.default_rng(3)
    buf = _noise(rng, 200)
    full = mf_correlate(buf, w, "sliding")
    shifted = mf_correlate(buf[10:], w, "sliding")
    np.testing.assert_array_equal(shifted, full[10:])


# ---------------------------------------------------------------------------
# Folded matched filter.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size_n", [64, 128])
def test_optimized_matches_brute(size_n):
    waveforms = _waveforms(size_n)
    rng = np.random.default_rng(10 + size_n)
    worst = 0.0
    for _ in range(RNG_BUFFERS):
        buf = _noise(rng, size_n + 40)
        traces = mf_correlate_optimized(buf, waveforms, "sliding")
        for w, t in zip(waveforms, traces):
            ref = mf_correlate(buf, w, "sliding")
            err = np.abs(t - ref).max() / ref.max()
            worst = max(worst, float(err))
    assert worst < 1e-12


def test_optimized_op_tally():
    # One trace per root, each over every sliding lag.
    waveforms = _waveforms(64)
    rng = np.random.default_rng(11)
    traces = mf_correlate_optimized(_noise(rng, 64 + 99), waveforms)
    assert len(traces) == 3
    assert all(len(t) == 100 for t in traces)


def test_optimized_rejects_bad_root_sets():
    w64 = _waveforms(64)
    with pytest.raises(ValueError):
        mf_correlate_optimized(np.zeros(80, dtype=complex), w64[::-1])
    mixed = (w64[0], w64[1], pss_time_domain(34, 128))
    with pytest.raises(ValueError):
        mf_correlate_optimized(np.zeros(200, dtype=complex), mixed)


# ---------------------------------------------------------------------------
# Cluster correlator.
# ---------------------------------------------------------------------------

def test_cluster_k_equals_n_matches_mf():
    w = pss_time_domain(25, 128)
    table = kmeans_cluster(w.body, 128, root=25)
    rng = np.random.default_rng(20)
    for _ in range(10):
        buf = _noise(rng, 170)
        got = cluster_correlate(buf, table, "sliding")
        ref = mf_correlate(buf, w, "sliding")
        err = np.abs(got - ref).max() / ref.max()
        assert err < 1e-10


def test_cluster_op_tally():
    w = pss_time_domain(25, 128)
    table = kmeans_cluster(w.body, 16, root=25)
    rng = np.random.default_rng(22)
    trace = cluster_correlate(_noise(rng, 128 + 49), table)
    assert len(trace) == 50


def test_cluster_scale_covariance():
    table = kmeans_cluster(pss_time_domain(25, 64).body, 6, root=25)
    rng = np.random.default_rng(23)
    buf = _noise(rng, 100)
    base = cluster_correlate(buf, table)
    scaled = cluster_correlate(3j * buf, table)
    np.testing.assert_allclose(scaled, 9 * base, rtol=1e-12)


# ---------------------------------------------------------------------------
# Complexity reporting.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(("oversample", "brute_cm", "opt_cm"),
                         [(1, 64, 33), (2, 128, 65)])
def test_bench_ops_matched_filters(oversample, brute_cm, opt_cm):
    brute = bench_ops(EngineConfig("mf_brute", oversample=oversample))
    assert brute["cm_per_sample"] == brute_cm
    assert brute["ca_per_sample"] == brute_cm - 1
    opt = bench_ops(EngineConfig("mf_opt", oversample=oversample))
    assert opt["cm_per_sample"] == opt_cm
    # Folded adds per distinct correlator, (2N - 1) / 2, are fractional.
    assert opt["ca_per_sample"] == (2 * 64 * oversample - 1) / 2
    # A matched filter moves no data under either architecture.
    for config in (EngineConfig("mf_brute", oversample=oversample),
                   EngineConfig("mf_opt", oversample=oversample)):
        assert bench_ops(config, architecture="shift_register")["data_moves"] == 0


@pytest.mark.parametrize("k", [6, 8, 16])
@pytest.mark.parametrize("oversample", [1, 2])
def test_bench_ops_cluster(k, oversample):
    config = EngineConfig("cluster", oversample=oversample, num_clusters=k)
    rep = bench_ops(config)
    n = 64 * oversample
    assert rep["cm_per_sample"] == k
    assert rep["ca_per_sample"] == n - 1
    assert rep["data_moves"] == 0
    shift = bench_ops(config, architecture="shift_register")
    assert shift["cm_per_sample"] == k
    assert shift["data_moves"] == n


@pytest.mark.parametrize("config", [EngineConfig("mf_brute"),
                                    EngineConfig("mf_opt"),
                                    EngineConfig("cluster", num_clusters=8)],
                         ids=lambda c: c.kind)
def test_bench_ops_rejects_unknown_architecture(config):
    with pytest.raises(ValueError, match="architecture"):
        bench_ops(config, architecture="systolic")

