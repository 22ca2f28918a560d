"""Detection engines, calibration, and the experiment drivers."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pssdet import (
    AcquisitionResult,
    BatchEvaluator,
    ChannelScenario,
    DETECT_TOLERANCE,
    EngineConfig,
    acquisition_cdf,
    acquisition_experiment,
    add_cyclic_prefix,
    calibrate_threshold,
    calibrate_thresholds,
    cluster_correlate,
    conjugate_table,
    detect,
    embed_pss_in_halfframe,
    kmeans_cluster,
    median_time_ci,
    mf_correlate,
    mf_correlate_optimized,
    pmd_crossing_db,
    pmd_experiment,
    pss_time_domain,
    wilson_ci,
)
from pssdet.correlator import _windows
from pssdet.detector import (
    CALIBRATION,
    TRIAL_ROOT,
    TRIALS,
    PmdPoint,
    _cached_batch,
    _score,
    _trial_chunk,
    _trial_scenario,
    engine_coefficients,
)
from pssdet import channel as ch
from pssdet.pss import PSS_ROOTS
from pssdet.channel import (
    HALF_FRAME,
    HALF_FRAME_LEN,
    JAKES,
    REST,
    HALF_FRAME_SEC,
    NOISE_FLOOR_VARIANCE,
    TU6_TAPS,
    burst_region,
)


def noise(rng, length, variance=1.0):
    z = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return np.sqrt(variance / 2.0) * z


# ---------------------------------------------------------------------------
# Engine configuration.
# ---------------------------------------------------------------------------

def test_engine_keys():
    assert EngineConfig("mf_opt", oversample=1).key == "mf_opt_os1"
    assert EngineConfig("cluster", num_clusters=8).key == "cluster_k8_os2"
    assert EngineConfig("mf_brute").size_n == 128
    assert EngineConfig("mf_brute", oversample=1).size_n == 64
    assert EngineConfig("mf_brute", oversample=1).decimation == 2
    assert EngineConfig("cluster", num_clusters=8).decimation == 1


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig("fft")
    with pytest.raises(ValueError):
        EngineConfig("mf_opt", oversample=3)
    with pytest.raises(ValueError):
        EngineConfig("cluster")  # needs num_clusters
    with pytest.raises(ValueError):
        EngineConfig("cluster", num_clusters=0)
    with pytest.raises(ValueError, match=r"\[1, 64\], got 65"):
        EngineConfig("cluster", oversample=1, num_clusters=65)  # K > N
    with pytest.raises(ValueError):
        EngineConfig("mf_opt", num_clusters=8)


def test_capture_decimation():
    # The 1x front end keeps the even native samples only.
    rng = np.random.default_rng(0)
    r = noise(rng, 400)
    odd_changed = r.copy()
    odd_changed[1::2] = noise(rng, 200)
    batch = BatchEvaluator([EngineConfig("mf_opt", oversample=1),
                            EngineConfig("mf_opt", oversample=2)])
    half_a, full_a = batch.metric_values(r)
    half_b, full_b = batch.metric_values(odd_changed)
    assert half_a.shape == (200 - 64 + 1, 3)
    assert full_a.shape == (400 - 128 + 1, 3)
    np.testing.assert_array_equal(half_a, half_b)
    assert not np.allclose(full_a, full_b)


# ---------------------------------------------------------------------------
# Batch metrics against the reference correlators, at both rates.  The
# references get their waveforms and tables from pss and clustering
# directly, never from the engine under test.
# ---------------------------------------------------------------------------

def _one_engine_values(config, r):
    return BatchEvaluator([config]).metric_values(r)[0]


def _waveforms(size_n):
    return tuple(pss_time_domain(u, size_n) for u in (25, 29, 34))


def _tables(size_n, k):
    t25 = kmeans_cluster(pss_time_domain(25, size_n).body, k, root=25)
    t29 = kmeans_cluster(pss_time_domain(29, size_n).body, k, root=29)
    return t25, t29, conjugate_table(t29)


def test_mf_engine_matches_reference_trace():
    rng = np.random.default_rng(1)
    r = noise(rng, 600)
    for oversample, decim in ((1, 2), (2, 1)):
        values = _one_engine_values(
            EngineConfig("mf_brute", oversample=oversample), r)
        for col, w in enumerate(_waveforms(64 * oversample)):
            trace = mf_correlate(r[::decim], w, "sliding")
            np.testing.assert_allclose(values[:, col], trace, rtol=1e-10)


def test_optimized_engine_matches_folded_reference():
    rng = np.random.default_rng(2)
    r = noise(rng, 600)
    for oversample, decim in ((1, 2), (2, 1)):
        values = _one_engine_values(
            EngineConfig("mf_opt", oversample=oversample), r)
        traces = mf_correlate_optimized(r[::decim], _waveforms(64 * oversample),
                                        "sliding")
        for col in range(3):
            np.testing.assert_allclose(values[:, col], traces[col], rtol=1e-10)


def test_cluster_engine_matches_reference_trace():
    rng = np.random.default_rng(3)
    r = noise(rng, 500)
    for oversample, decim in ((1, 2), (2, 1)):
        values = _one_engine_values(
            EngineConfig("cluster", num_clusters=8, oversample=oversample), r)
        for col, table in enumerate(_tables(64 * oversample, 8)):
            trace = cluster_correlate(r[::decim], table, "sliding")
            np.testing.assert_allclose(values[:, col], trace, rtol=1e-10)


def test_half_rate_cluster_engine_uses_small_grid():
    coef = engine_coefficients(EngineConfig("cluster", num_clusters=6, oversample=1))
    expected = [t.quantized_template() for t in _tables(64, 6)]
    np.testing.assert_array_equal(coef, np.conj(np.stack(expected, axis=1)))
    assert coef.shape == (64, 3)
    # Six clusters: at most six distinct coefficients per root.
    assert all(len(np.unique(coef[:, col])) <= 6 for col in range(3))


# ---------------------------------------------------------------------------
# Batch evaluation.
# ---------------------------------------------------------------------------

def test_batch_peaks_match_single_engine_metrics():
    configs = [
        EngineConfig("mf_opt", oversample=1),
        EngineConfig("mf_opt", oversample=2),
        EngineConfig("cluster", num_clusters=8),
        EngineConfig("cluster", num_clusters=16, oversample=1),
    ]
    batch = BatchEvaluator(configs)
    rng = np.random.default_rng(4)
    for _ in range(5):
        r = noise(rng, 2000)
        peaks = batch.peaks(r)
        for cfg, peak in zip(configs, peaks):
            values = _one_engine_values(cfg, r)
            lag, root_idx = divmod(int(np.argmax(values)), 3)
            assert peak[1] == lag
            assert peak[2] == root_idx
            assert abs(peak[0] - values[lag, root_idx]) < 1e-9 * values[lag, root_idx]


ENGINE_POOL = (
    EngineConfig("mf_brute", oversample=1),
    EngineConfig("mf_brute", oversample=2),
    EngineConfig("mf_opt", oversample=1),
    EngineConfig("mf_opt", oversample=2),
    EngineConfig("cluster", num_clusters=6, oversample=1),
    EngineConfig("cluster", num_clusters=8, oversample=2),
    EngineConfig("cluster", num_clusters=16, oversample=2),
)


def _shortest_stream(configs):
    """Fewest native samples that give every engine one full window."""
    return max(c.size_n * c.decimation - (c.decimation - 1) for c in configs)


@st.composite
def _batch_and_length(draw):
    configs = tuple(draw(st.lists(st.sampled_from(ENGINE_POOL), min_size=1,
                                  max_size=5, unique=True)))
    length = draw(st.integers(_shortest_stream(configs), 6444))
    return configs, length


@settings(deadline=None)
@given(case=_batch_and_length(), seed=st.integers(0, 2**32 - 1))
@example(case=((ENGINE_POOL[3],), 128), seed=0)  # exactly N
@example(case=((ENGINE_POOL[2],), 127), seed=0)  # exactly N after decimation
@example(case=(ENGINE_POOL, HALF_FRAME_LEN), seed=2)
@example(case=(ENGINE_POOL, 4021), seed=3)  # prime at 2x, and 2011 at 1x
def test_batch_metric_matches_window_products(case, seed):
    configs, length = case
    r = noise(np.random.default_rng(seed), length)
    batch = BatchEvaluator(configs)
    peaks = batch.peaks(r)
    for config, values, peak in zip(configs, batch.metric_values(r), peaks):
        w = _windows(r[::config.decimation], config.size_n, "sliding")
        ref = np.abs(w @ engine_coefficients(config)) ** 2
        assert values.shape == ref.shape
        assert np.max(np.abs(values - ref)) <= 1e-12 * ref.max()
        second, top = np.partition(ref.ravel(), -2)[-2:]
        if top - second > 1e-9 * top:
            assert peak[1:] == divmod(int(np.argmax(ref)), 3)


def test_metric_values_survive_buffer_reuse():
    # A half frame, a ten-half-frame stream that resizes the buffers, and
    # a half frame again: every result must equal a fresh evaluator's,
    # also after later calls have reused the buffers.
    configs = [EngineConfig("mf_opt", oversample=1),
               EngineConfig("cluster", num_clusters=8)]
    rng = np.random.default_rng(6)
    streams = [noise(rng, n * HALF_FRAME_LEN) for n in (1, 10, 1)]
    batch = BatchEvaluator(configs)
    results = [batch.metric_values(r) for r in streams]
    for r, got in zip(streams, results):
        for a, b in zip(got, BatchEvaluator(configs).metric_values(r)):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# The trial loop's gate: window maxima of the true root near the true start.
# ---------------------------------------------------------------------------

def _window_max(values, config, start, root_idx):
    """Largest FFT metric of one root within the tolerance of a native
    start, or -inf when no valid lag is that close."""
    lags = np.arange(len(values))
    tolerance = DETECT_TOLERANCE[config.oversample]
    near = np.abs(lags - start / config.decimation) <= tolerance
    return values[near, root_idx].max() if near.any() else -np.inf


@st.composite
def _batch_stream_start(draw):
    configs, length = draw(_batch_and_length())
    return configs, length, draw(st.integers(0, length + 20))


@settings(deadline=None)
@given(case=_batch_stream_start(), root_idx=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(case=(ENGINE_POOL, HALF_FRAME_LEN, 3), root_idx=0, seed=0)  # clipped low
@example(case=(ENGINE_POOL, HALF_FRAME_LEN, HALF_FRAME_LEN - 125), root_idx=1,
         seed=1)  # clipped high, odd start
@example(case=(ENGINE_POOL, 4000, 2001), root_idx=2, seed=2)  # os1 half-sample centre
@example(case=((ENGINE_POOL[2],), 200, 160), root_idx=0, seed=3)  # no valid os1 lag
def test_window_peaks_match_fft_metric(case, root_idx, seed):
    configs, length, start = case
    r = noise(np.random.default_rng(seed), length)
    batch = BatchEvaluator(configs)
    got = batch.window_peaks(r, start, root_idx)
    assert got.shape == (len(configs),)
    for config, values, g in zip(configs, batch.metric_values(r), got):
        want = _window_max(values, config, start, root_idx)
        if want == -np.inf:
            assert g == -np.inf
        else:
            assert abs(g - want) <= 1e-12 * want


MIXED = (
    EngineConfig("mf_opt", oversample=1),
    EngineConfig("mf_opt", oversample=2),
    EngineConfig("cluster", num_clusters=6, oversample=1),
    EngineConfig("cluster", num_clusters=16, oversample=2),
)


@pytest.fixture(scope="module")
def mixed_thresholds():
    lam = calibrate_thresholds(MIXED, pfa=0.1, trials=200, seed=15)
    return tuple(lam[c.key] for c in MIXED)


def _chunk_args(thresholds, point, seed, max_hf):
    return dict(configs=MIXED, thresholds=thresholds, point=point, seed=seed,
                p=0, max_hf=max_hf)


def _full_trial_chunk(kwargs, trials):
    """A reference trial loop with no gate and no selective pass: every
    visited half frame is drawn whole, gets the full pass and is scored
    by ``_score`` for each engine still searching."""
    configs, thresholds = kwargs["configs"], kwargs["thresholds"]
    batch = BatchEvaluator(configs)
    tx = add_cyclic_prefix(pss_time_domain(TRIAL_ROOT, 128))
    first = np.zeros((trials, len(configs)), dtype=np.int64)
    for t in range(trials):
        trial = np.random.SeedSequence(kwargs["seed"],
                                       spawn_key=(TRIALS, kwargs["p"], t))
        scen = _trial_scenario(trial, kwargs["point"], len(tx.samples))
        body = scen.timing_offset + tx.cp_len
        done = first[t]
        for i in range(kwargs["max_hf"]):
            if done.all():
                break
            peaks = batch.peaks(embed_pss_in_halfframe(tx, scen, half_frame=i).samples)
            for e, config in enumerate(configs):
                if not done[e] and _score(peaks[e], config, thresholds[e],
                                          TRIAL_ROOT, body):
                    done[e] = i + 1
    return first


def _channel_point(fading, cfo_ppm, snr_db):
    if fading == "static":
        return ChannelScenario(snr_db=snr_db, cfo_ppm=cfo_ppm)
    return ChannelScenario(taps=TU6_TAPS, fading=fading, snr_db=snr_db,
                           cfo_ppm=cfo_ppm,
                           doppler_hz=50.0 if fading == "rayleigh_jakes" else 0.0)


@settings(deadline=None, max_examples=12)
@given(fading=st.sampled_from(["static", "rayleigh_block", "rayleigh_jakes"]),
       cfo_ppm=st.sampled_from([0.0, 5.0, -5.0, 4.0]), snr_db=st.floats(-12.0, 0.0),
       cap=st.sampled_from([1, 30]), seed=st.integers(0, 2**32))
@example(fading="static", cfo_ppm=0.0, snr_db=-12.0, cap=30, seed=0)
@example(fading="rayleigh_block", cfo_ppm=5.0, snr_db=-5.0, cap=30, seed=1)
@example(fading="rayleigh_jakes", cfo_ppm=5.0, snr_db=0.0, cap=1, seed=2)
@example(fading="rayleigh_jakes", cfo_ppm=0.0, snr_db=-8.0, cap=30, seed=3)
def test_gated_trial_loop_matches_full_loop(mixed_thresholds, fading, cfo_ppm,
                                            snr_db, cap, seed):
    point = _channel_point(fading, cfo_ppm, snr_db)
    kwargs = _chunk_args(mixed_thresholds, point, seed, cap)
    np.testing.assert_array_equal(_trial_chunk(0, 4, **kwargs),
                                  _full_trial_chunk(kwargs, 4))


def test_gate_skips_half_frames_that_cannot_score(monkeypatch, mixed_thresholds):
    # TU6 block fading at 5 ppm: the correlation peak often leaves the
    # tolerance window, so most half frames skip the full pass.
    point = _channel_point("rayleigh_block", 5.0, -5.0)
    kwargs = _chunk_args(mixed_thresholds, point, 16, 30)
    full = _full_trial_chunk(kwargs, 4)
    calls = []
    peaks = BatchEvaluator.peaks
    monkeypatch.setattr(BatchEvaluator, "peaks",
                        lambda self, x, **kw: calls.append(1) or peaks(self, x, **kw))
    first = _trial_chunk(0, 4, **kwargs)
    np.testing.assert_array_equal(first, full)
    assert first.any()
    half_frames = sum(row.max() if row.all() else 30 for row in first)
    assert len(calls) < half_frames / 2


@pytest.mark.parametrize("ulps_below", [0, 1])
def test_gate_at_threshold_boundary(ulps_below):
    # Thresholds exactly at each engine's in-window FFT peak (nobody
    # scores: the metric must exceed the threshold) and one ulp below it
    # (everybody does): the gate must open in both cases.
    point, seed = ChannelScenario(snr_db=0.0), 17
    tx = add_cyclic_prefix(pss_time_domain(TRIAL_ROOT, 128))
    trial = np.random.SeedSequence(seed, spawn_key=(TRIALS, 0, 0))
    scen = _trial_scenario(trial, point, len(tx.samples))
    stream = embed_pss_in_halfframe(tx, scen)
    root_idx = PSS_ROOTS.index(TRIAL_ROOT)
    lam = []
    fft_values = _cached_batch(MIXED).metric_values(stream.samples)
    for config, values in zip(MIXED, fft_values):
        peak = _window_max(values, config, stream.pss_starts[0], root_idx)
        lam.append(np.nextafter(peak, -np.inf) if ulps_below else peak)
    kwargs = _chunk_args(tuple(lam), point, seed, 1)
    first = _trial_chunk(0, 1, **kwargs)
    np.testing.assert_array_equal(first, _full_trial_chunk(kwargs, 1))
    np.testing.assert_array_equal(first, [[ulps_below] * len(MIXED)])



@pytest.mark.parametrize("taps", [((0, 0.0),), TU6_TAPS], ids=["static", "tu6"])
@pytest.mark.parametrize("theta", [0, 1, 2, 7, 9, 4321, "last"])
def test_gate_reads_only_the_burst_region(taps, theta):
    # The trial loop gates on burst_region's samples alone, so they must
    # be the full half frame's, at a lo that keeps the os1 decimation
    # phase, and cover every sample each rate group's window reads.
    max_delay = taps[-1][0]
    if theta == "last":
        theta = HALF_FRAME_LEN - 137 - max_delay
    tx = add_cyclic_prefix(pss_time_domain(TRIAL_ROOT, 128))
    batch = BatchEvaluator(MIXED)
    fading = "static" if len(taps) == 1 else "rayleigh_block"
    scen = ChannelScenario(taps=taps, fading=fading, snr_db=-5.0, cfo_ppm=5.0,
                           timing_offset=theta, seed=8)
    start = theta + tx.cp_len
    for i in range(2):
        lo, region = burst_region(tx, scen, half_frame=i)
        full = embed_pss_in_halfframe(tx, scen, half_frame=i).samples
        np.testing.assert_array_equal(region, full[lo:lo + len(region)])
        outside = full.copy()
        outside[:lo] = outside[lo + len(region):] = np.nan
        for root_idx in range(3):
            want = batch.window_peaks(full, start, root_idx)
            assert np.array_equal(
                batch.window_peaks(region, start - lo, root_idx), want)
            assert np.array_equal(
                batch.window_peaks(outside, start, root_idx), want)


def test_gated_out_half_frames_never_draw_their_rest_noise(monkeypatch,
                                                           mixed_thresholds):
    point = _channel_point("rayleigh_block", 5.0, -5.0)
    kwargs = _chunk_args(mixed_thresholds, point, 16, 30)
    log = []
    keyed = ch.keyed_rng
    monkeypatch.setattr(ch, "keyed_rng",
                        lambda seed, *key: log.append(key) or keyed(seed, *key))
    peaks = BatchEvaluator.peaks
    monkeypatch.setattr(BatchEvaluator, "peaks",
                        lambda self, x, **kw: log.append("pass") or peaks(self, x, **kw))
    first = _trial_chunk(0, 4, **kwargs)
    passes = log.count("pass")
    rest = [k for k, key in enumerate(log) if key[2:] == (REST,)]
    # Every REST generator is built by the embed of a half frame that
    # then gets the full pass.  The region key is built exactly once per
    # visited half frame (the embed reuses the region the gate read), in
    # order, and most visited half frames never get the pass.
    assert all(log[k + 1] == "pass" for k in rest)
    assert len(rest) == passes
    regions = [key for key in log if len(key) == 2 and key[0] == HALF_FRAME]
    visited = [row.max() if row.all() else 30 for row in first]
    assert regions == [(HALF_FRAME, i) for n in visited for i in range(n)]
    assert passes < (len(regions) - passes) / 2


def test_trial_loop_transforms_at_most_half_the_columns(monkeypatch,
                                                        mixed_thresholds):
    # The chunk of test_gate_skips_half_frames_that_cannot_score: on each
    # half frame the gate passes, the full pass would inverse-transform
    # all three columns of every engine.
    point = _channel_point("rayleigh_block", 5.0, -5.0)
    kwargs = _chunk_args(mixed_thresholds, point, 16, 30)
    full = _full_trial_chunk(kwargs, 4)
    rows, passes = [], []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft",
                        lambda a, *args, **kw: rows.append(len(a)) or ifft(a, *args, **kw))
    peaks = BatchEvaluator.peaks
    monkeypatch.setattr(BatchEvaluator, "peaks",
                        lambda self, x, **kw: passes.append(1) or peaks(self, x, **kw))
    np.testing.assert_array_equal(_trial_chunk(0, 4, **kwargs), full)
    assert passes
    assert sum(rows) <= len(passes) * 3 * len(MIXED) / 2


def _pass_transforms(monkeypatch, kwargs):
    """Run one trial chunk; per two-stage pass, the lengths of the 1-D
    forward FFTs it ran (the stream's, or the local check's 2N points)."""
    passes = []
    fft = np.fft.fft

    def counting(a, *args, **kw):
        out = fft(a, *args, **kw)
        if passes and out.ndim == 1:
            passes[-1].append(len(out))
        return out

    monkeypatch.setattr(np.fft, "fft", counting)
    peaks = BatchEvaluator.peaks
    monkeypatch.setattr(BatchEvaluator, "peaks",
                        lambda self, x, **kw: passes.append([]) or peaks(self, x, **kw))
    _trial_chunk(0, 4, **kwargs)
    return passes


@pytest.mark.parametrize("cfo_ppm", [0.0, 5.0])
def test_local_check_skips_most_full_length_transforms(monkeypatch, mixed_thresholds,
                                                       cfo_ppm):
    # The chunk of test_gate_skips_half_frames_that_cannot_score.  At
    # 5 ppm the peak mostly sits 51 native samples early, which the
    # 2N-point local check sees, so most passes never transform the
    # stream; at 0 ppm the trial loop does not run the check.
    point = _channel_point("rayleigh_block", cfo_ppm, -5.0)
    passes = _pass_transforms(monkeypatch, _chunk_args(mixed_thresholds, point, 16, 30))
    assert passes
    local = [n for lengths in passes for n in lengths if n in (128, 256)]
    full = [lengths for lengths in passes if HALF_FRAME_LEN in lengths
            or HALF_FRAME_LEN // 2 in lengths]
    if cfo_ppm:
        assert local
        assert len(full) <= len(passes) / 2
    else:
        assert not local


def test_local_check_leaves_exact_ties_to_stage_1():
    # A 40-sample block tiled over the stream makes the metric repeat
    # every 40 native lags, so every lag's value recurs outside the
    # tolerance window up to FFT rounding.  With thresholds below each
    # window maximum the local check must leave those near-ties to
    # stage 1, and the selective pass must decide as the full pass.
    r = np.tile(noise(np.random.default_rng(40), 40), HALF_FRAME_LEN // 40)
    batch = BatchEvaluator(MIXED)
    full = batch.peaks(r)
    starts = {s for p, c in zip(full, MIXED)
              for s in range(p[1] * c.decimation - 30, p[1] * c.decimation + 30)}
    starts = sorted(s for s in starts | set(range(0, HALF_FRAME_LEN, 97)) if s >= 0)
    detected = set()
    for root_idx in range(3):
        for start in starts:
            lam = list(0.5 * batch.window_peaks(r, start, root_idx))
            got = batch.peaks(r, start=start, root_idx=root_idx, thresholds=lam,
                              local_check=True)
            for e, (config, g, p) in enumerate(zip(MIXED, got, full)):
                detects = _score(p, config, lam[e], PSS_ROOTS[root_idx], start)
                assert g == (p if detects else None)
                if detects:
                    detected.add(e)
    # Each engine detects near its full-pass peak.
    assert detected == set(range(len(MIXED)))


@pytest.mark.parametrize("root_idx", [0, 1, 2])
def test_selective_pass_breaks_exact_ties_like_the_full_pass(root_idx):
    # On an all-zero stream every root ties at every lag, so with a
    # negative threshold the full pass peaks at root 25, lag 0, and
    # detects exactly where the true start is within tolerance of lag 0,
    # with or without the local check.
    batch = BatchEvaluator(MIXED)
    zeros = np.zeros(HALF_FRAME_LEN, dtype=complex)
    full = batch.peaks(zeros)
    assert full == [(0.0, 0, 0)] * len(MIXED)
    lam = [-1.0] * len(MIXED)
    for start, local_check in itertools.product(range(30), [False, True]):
        got = batch.peaks(zeros, start=start, root_idx=root_idx, thresholds=lam,
                          local_check=local_check)
        for config, g, p in zip(MIXED, got, full):
            near = start / config.decimation <= DETECT_TOLERANCE[config.oversample]
            detects = root_idx == 0 and near
            assert _score(p, config, -1.0, PSS_ROOTS[root_idx], start) == detects
            assert g == (p if detects else None)


@settings(deadline=None)
@given(case=_batch_and_length(), root_idx=st.integers(0, 2),
       tx_root_idx=st.integers(0, 2), amplitude=st.floats(0.0, 1.0),
       offset=st.integers(-12, 12), scale=st.floats(0.0, 1.2),
       asked=st.lists(st.booleans(), min_size=7, max_size=7),
       seed=st.integers(0, 2**32 - 1), local_check=st.booleans())
@example(case=(ENGINE_POOL, HALF_FRAME_LEN), root_idx=0, tx_root_idx=0,
         amplitude=1.0, offset=3, scale=0.5, asked=[True] * 7, seed=0,
         local_check=False)  # all detect
@example(case=(ENGINE_POOL, 2000), root_idx=0, tx_root_idx=1, amplitude=1.0,
         offset=-8, scale=0.0, asked=[True] * 7, seed=3,
         local_check=False)  # root 29 wins stage 2
@example(case=(ENGINE_POOL, HALF_FRAME_LEN), root_idx=0, tx_root_idx=0,
         amplitude=1.0, offset=3, scale=0.5, asked=[True] * 7, seed=0,
         local_check=True)  # all detect, and the local check keeps them all
@example(case=(ENGINE_POOL, HALF_FRAME_LEN), root_idx=0, tx_root_idx=0,
         amplitude=1.0, offset=-12, scale=0.5, asked=[True] * 7, seed=0,
         local_check=True)  # the peak outside every window
@example(case=(ENGINE_POOL, 255), root_idx=0, tx_root_idx=0, amplitude=1.0,
         offset=0, scale=0.5, asked=[True] * 7, seed=1,
         local_check=True)  # 2N points at os1 only
def test_selective_peaks_decide_like_the_full_pass(case, root_idx, tx_root_idx,
                                                   amplitude, offset, scale,
                                                   asked, seed, local_check):
    # A burst of one root in noise (amplitude per sample against the
    # unit noise floor), a true start near it and thresholds below and
    # above each engine's peak: an asked engine gets its full peak
    # exactly when _score accepts that peak, and None otherwise, with
    # or without the local check.
    configs, length = case
    rng = np.random.default_rng(seed)
    r = noise(rng, length)
    body = pss_time_domain(PSS_ROOTS[tx_root_idx], 128).body
    body = body / np.sqrt(np.mean(np.abs(body) ** 2))
    pos = int(rng.integers(0, max(length - len(body), 0) + 1))
    burst = amplitude * body[:length - pos]
    r[pos:pos + len(burst)] += burst
    start = max(pos + offset, 0)
    batch = BatchEvaluator(configs)
    full = batch.peaks(r)
    lam = [p[0] * scale if a else None for p, a in zip(full, asked)]
    got = batch.peaks(r, start=start, root_idx=root_idx, thresholds=lam,
                      local_check=local_check)
    for config, g, p, threshold in zip(configs, got, full, lam):
        if threshold is None:
            assert g is None
        else:
            detects = _score(p, config, threshold, PSS_ROOTS[root_idx], start)
            assert g == (p if detects else None)


# ---------------------------------------------------------------------------
# Detection decisions.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oversample", [1, 2])
def test_detect_clean_stream(oversample):
    tx = add_cyclic_prefix(pss_time_domain(29, 128))
    stream = embed_pss_in_halfframe(tx, ChannelScenario(timing_offset=643, seed=1))
    # A unit-gain noiseless burst peaks at the squared template energy,
    # (62/128)^2 at either rate.
    config = EngineConfig("mf_opt", oversample=oversample)
    result = detect(stream, config, threshold=0.1)
    assert result.detected
    assert result.correct
    assert result.root == 29
    start = stream.pss_starts[0] / config.decimation
    assert abs(result.lag - start) <= DETECT_TOLERANCE[oversample]


# Noiseless static channel, root 25, timing offset 3000 (body start
# 3009): the error of each engine's argmax lag, in native samples, and
# its largest metric within the tolerance window over its peak, against
# CFO in ppm.  From 5 ppm on at 2x, and from 4 ppm on at 1x, the peak
# sits 51 native samples early, outside every tolerance window.
CFO_ORACLE_ENGINES = (
    EngineConfig("mf_opt"),
    EngineConfig("cluster", num_clusters=16),
    EngineConfig("cluster", num_clusters=8),
    EngineConfig("cluster", num_clusters=6),
    EngineConfig("mf_opt", oversample=1),
    EngineConfig("cluster", num_clusters=16, oversample=1),
    EngineConfig("cluster", num_clusters=8, oversample=1),
    EngineConfig("cluster", num_clusters=6, oversample=1),
)
CFO_ORACLE = {
    0.0: ((0, 0, 0, 0, -1, -1, -1, -1), (1.0,) * 8),
    2.0: ((0, 0, 0, 0, 1, 1, 1, 1), (1.0,) * 8),
    3.0: ((0, 0, 0, 0, 1, 1, 1, 1), (1.0,) * 8),
    4.0: ((0, 0, 0, 0, -51, -51, -51, -51),
          (1.0, 1.0, 1.0, 1.0, 0.642, 0.668, 0.710, 0.683)),
    5.0: ((-51,) * 8, (0.506, 0.516, 0.501, 0.491, 0.273, 0.288, 0.318, 0.279)),
    6.0: ((-51,) * 8, (0.147, 0.164, 0.143, 0.137, 0.078, 0.086, 0.102, 0.073)),
}


@pytest.mark.parametrize("cfo_ppm", sorted(CFO_ORACLE))
def test_cfo_moves_the_noiseless_peak(cfo_ppm):
    tx = add_cyclic_prefix(pss_time_domain(TRIAL_ROOT, 128))
    stream = embed_pss_in_halfframe(
        tx, ChannelScenario(cfo_ppm=cfo_ppm, timing_offset=3000))
    start = stream.pss_starts[0]
    batch = BatchEvaluator(CFO_ORACLE_ENGINES)
    peaks = batch.peaks(stream.samples)
    near = batch.window_peaks(stream.samples, start, 0)
    errors, ratios = CFO_ORACLE[cfo_ppm]
    for config, (metric, lag, root_idx), error, ratio, window in zip(
            CFO_ORACLE_ENGINES, peaks, errors, ratios, near):
        assert root_idx == 0
        assert lag * config.decimation - start == error
        assert abs(window / metric - ratio) < 5e-4
        # The shift lies within the local check's reach of N/2 lags.
        assert abs(error) / config.decimation <= config.size_n / 2
    # So the local check rules out exactly the engines whose peak left
    # the tolerance window.
    lam = [0.0] * len(CFO_ORACLE_ENGINES)
    for group in batch._groups:
        asked = list(range(len(group.idx)))
        kept = group._local_check(stream.samples, start, 0, asked)
        assert kept == [j for j in asked
                        if abs(errors[group.idx[j]]) / group.decim <= group.tolerance]
    got = batch.peaks(stream.samples, start=start, root_idx=0, thresholds=lam,
                      local_check=True)
    assert [g is not None for g in got] == [
        _score(p, c, 0.0, TRIAL_ROOT, start) for p, c in zip(peaks, CFO_ORACLE_ENGINES)]


def test_detect_respects_threshold():
    tx = add_cyclic_prefix(pss_time_domain(25, 128))
    stream = embed_pss_in_halfframe(tx, ChannelScenario(timing_offset=100, seed=2))
    result = detect(stream, EngineConfig("mf_opt"), threshold=np.inf)
    assert not result.detected
    assert result.correct is False


def test_score_tolerance_edges():
    tx = add_cyclic_prefix(pss_time_domain(25, 128))
    stream = embed_pss_in_halfframe(tx, ChannelScenario(timing_offset=100, seed=3))
    config = EngineConfig("mf_opt", oversample=2)
    root, start = stream.true_root, int(stream.pss_starts[0])
    tol = int(DETECT_TOLERANCE[2])
    assert _score((5.0, start + tol, 0), config, 1.0, root, start)
    assert not _score((5.0, start + tol + 1, 0), config, 1.0, root, start)
    assert not _score((5.0, start, 1), config, 1.0, root, start)  # wrong root
    assert not _score((0.5, start, 0), config, 1.0, root, start)  # under threshold


# ---------------------------------------------------------------------------
# Threshold calibration.
# ---------------------------------------------------------------------------

def test_calibration_monotone_in_pfa():
    cfg = EngineConfig("mf_opt", oversample=1)
    strict = calibrate_threshold(cfg, pfa=0.01, trials=400, seed=6)
    loose = calibrate_threshold(cfg, pfa=0.5, trials=400, seed=6)
    assert strict > loose > 0


def test_calibrated_threshold_hits_target_pfa():
    cfg = [EngineConfig("mf_opt"), EngineConfig("cluster", num_clusters=8)]
    lam = calibrate_thresholds(cfg, pfa=0.1, trials=2000, seed=7)
    batch = BatchEvaluator(cfg)
    rng = np.random.default_rng(70_001)
    hits = np.zeros(2)
    trials = 2000
    for _ in range(trials):
        peaks = batch.peaks(noise(rng, HALF_FRAME_LEN, NOISE_FLOOR_VARIANCE))
        for i, c in enumerate(cfg):
            hits[i] += peaks[i][0] > lam[c.key]
    for i in range(2):
        assert abs(hits[i] / trials - 0.1) < 0.025


def test_calibration_validation():
    with pytest.raises(ValueError):
        calibrate_threshold(EngineConfig("mf_opt"), pfa=0.0)
    with pytest.raises(ValueError):
        calibrate_threshold(EngineConfig("mf_opt"), trials=50)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        calibrate_threshold(EngineConfig("mf_opt"), trials=100, seed=-5)


def test_calibration_trial_draws_from_its_key():
    cfg = [EngineConfig("mf_opt", oversample=1), EngineConfig("mf_opt")]
    batch = BatchEvaluator(cfg)
    maxima = []
    for t in range(100):
        rng = np.random.default_rng(
            np.random.SeedSequence(3, spawn_key=(CALIBRATION, t)))
        maxima.append([p[0] for p in batch.peaks(noise(rng, HALF_FRAME_LEN))])
    want = np.quantile(maxima, 0.9, axis=0)
    lam = calibrate_thresholds(cfg, pfa=0.1, trials=100, seed=3)
    np.testing.assert_array_equal([lam[c.key] for c in cfg], want)


def test_generator_keys_are_distinct():
    # Every purpose and index of the seed tree gets its own stream, and
    # a seed at or above 2**32 does not alias a smaller seed with a
    # longer key (as plain list seeds would: [2**32 + 1, 0, 3] and
    # [1, 1, 0, 3] hash alike).
    keys = {
        "calibration trial 3": (1, (CALIBRATION, 3)),
        "point 0 trial 3": (1, (TRIALS, 0, 3)),
        "its half frame 0": (1, (TRIALS, 0, 3, HALF_FRAME, 0)),
        "its half frame 1": (1, (TRIALS, 0, 3, HALF_FRAME, 1)),
        "the rest of its half frame 0": (1, (TRIALS, 0, 3, HALF_FRAME, 0, REST)),
        "the rest of its half frame 1": (1, (TRIALS, 0, 3, HALF_FRAME, 1, REST)),
        "its Jakes rays": (1, (TRIALS, 0, 3, JAKES)),
        "point 1 trial 3": (1, (TRIALS, 1, 3)),
        "seed 2 calibration trial 3": (2, (CALIBRATION, 3)),
        "seed 2**32 + 1 calibration trial 3": (2**32 + 1, (CALIBRATION, 3)),
        "seed 2**32 + 1 point 0 trial 3": (2**32 + 1, (TRIALS, 0, 3)),
    }
    draws = {
        name: tuple(np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=key)).integers(0, 2**63, 4))
        for name, (seed, key) in keys.items()
    }
    assert len(set(draws.values())) == len(keys)


# ---------------------------------------------------------------------------
# Statistics helpers.
# ---------------------------------------------------------------------------

def test_wilson_ci_known_values():
    lo, hi = wilson_ci(10, 100)
    assert abs(lo - 0.0552) < 1e-3
    assert abs(hi - 0.1744) < 1e-3
    lo, hi = wilson_ci(0, 50)
    assert lo == 0.0
    assert hi > 0
    with pytest.raises(ValueError):
        wilson_ci(1, 0)


def _point(key, snr, pmd):
    return PmdPoint(engine_key=key, snr_db=snr, trials=100,
                    misses=int(round(pmd * 100)), pmd=pmd,
                    ci_lo=max(0.0, pmd - 0.05), ci_hi=min(1.0, pmd + 0.05))


def test_pmd_crossing_interpolation():
    points = [_point("e", -8.0, 0.30), _point("e", -6.0, 0.05)]
    # Linear between the two grid points: 0.1 is reached at -6.4 dB.
    assert abs(pmd_crossing_db(points, "e") - (-6.4)) < 1e-12


def test_pmd_crossing_requires_bracket():
    points = [_point("e", -8.0, 0.5), _point("e", -6.0, 0.3)]
    with pytest.raises(ValueError):
        pmd_crossing_db(points, "e")
    with pytest.raises(ValueError):
        pmd_crossing_db([_point("e", -8.0, 0.3)], "e")


def test_trial_scenario_offset_range():
    point = ChannelScenario(taps=((0, 0.0), (10, -3.0)), snr_db=-5.0)
    hf = 9600
    sym = 137
    offsets = set()
    for t in range(200):
        trial = np.random.SeedSequence(8, spawn_key=(TRIALS, 0, t))
        scen = _trial_scenario(trial, point, sym)
        assert 0 <= scen.timing_offset <= hf - sym - 10
        assert scen.snr_db == -5.0
        assert scen.taps == point.taps
        # The offset is the first draw of the trial's own generator, and
        # the trial's seed carries on to its half frames.
        assert scen.timing_offset == np.random.default_rng(trial).integers(
            0, hf - sym - 10 + 1)
        assert scen.seed is trial
        offsets.add(scen.timing_offset)
    assert len(offsets) > 150


# ---------------------------------------------------------------------------
# Experiment drivers (small-scale smoke; statistics live in acceptance).
# ---------------------------------------------------------------------------

ENGINES = [EngineConfig("mf_opt"), EngineConfig("cluster", num_clusters=8)]
# Near the pfa = 0.1 calibration point for unit-variance noise.
FIXED_LAMBDA = {"mf_opt_os2": 6.0, "cluster_k8_os2": 5.5}


def test_pmd_experiment_reproducible_and_jobs_invariant():
    kwargs = dict(engines=ENGINES, snr_grid_db=[-4.0, 0.0], trials=24,
                  base_seed=9, thresholds=FIXED_LAMBDA)
    a = pmd_experiment(**kwargs)
    b = pmd_experiment(**kwargs)
    c = pmd_experiment(**kwargs, jobs=2)
    assert [(p.engine_key, p.snr_db, p.misses) for p in a] \
        == [(p.engine_key, p.snr_db, p.misses) for p in b] \
        == [(p.engine_key, p.snr_db, p.misses) for p in c]


def test_pmd_experiment_point_fields():
    points = pmd_experiment(ENGINES, [0.0], trials=16, base_seed=10,
                            thresholds=FIXED_LAMBDA)
    assert len(points) == 2
    for p in points:
        assert p.trials == 16
        assert p.pmd == p.misses / 16
        assert p.ci_lo <= p.pmd <= p.ci_hi
    # High SNR on a clean channel: the full matched filter misses nothing.
    assert points[0].engine_key == "mf_opt_os2"
    assert points[0].misses == 0


def test_acquisition_easy_conditions_take_one_half_frame():
    results = acquisition_experiment(
        ENGINES, trials=6, base_seed=11, snr_db=10.0, cfo_ppm=0.0,
        taps=((0, 0.0),), fading="static", max_half_frames=8,
        thresholds=FIXED_LAMBDA,
    )
    assert len(results) == 12
    for r in results:
        assert not r.censored
        assert r.half_frames == 1
        assert r.time_ms == pytest.approx(HALF_FRAME_SEC * 1e3)


def test_acquisition_censoring_at_cap():
    results = acquisition_experiment(
        [EngineConfig("mf_opt")], trials=3, base_seed=12, snr_db=-30.0,
        cfo_ppm=0.0, taps=((0, 0.0),), fading="static", max_half_frames=4,
        thresholds={"mf_opt_os2": np.inf},
    )
    for r in results:
        assert r.censored
        assert r.half_frames == 4


def test_acquisition_jobs_invariant():
    kwargs = dict(engines=ENGINES, trials=8, base_seed=13, snr_db=0.0,
                  cfo_ppm=5.0, fading="rayleigh_block", max_half_frames=6,
                  thresholds=FIXED_LAMBDA)
    a = acquisition_experiment(**kwargs)
    b = acquisition_experiment(**kwargs, jobs=2)
    assert [(r.engine_key, r.trial, r.half_frames, r.censored) for r in a] \
        == [(r.engine_key, r.trial, r.half_frames, r.censored) for r in b]


@pytest.mark.parametrize("channel", [
    dict(taps=((0, 0.0),), fading="static", cfo_ppm=0.0),
    dict(taps=TU6_TAPS, fading="rayleigh_block", cfo_ppm=5.0),
    dict(taps=TU6_TAPS, fading="rayleigh_jakes", cfo_ppm=1.0, doppler_hz=50.0),
], ids=["awgn", "tu6_block_cfo", "tu6_jakes"])
def test_pmd_is_one_half_frame_acquisition(channel):
    # Acquisition is one experiment point, so it shares its trial keys
    # with point 0 of a sweep: point 0 of a sweep, or of a one-point
    # sweep at a later grid SNR, misses exactly the trials a
    # one-half-frame acquisition at that SNR censors.
    grid = (-10.0, -5.0)
    trials = 100
    kwargs = dict(trials=trials, base_seed=14, thresholds=FIXED_LAMBDA, **channel)
    sweep = pmd_experiment(ENGINES, grid, **kwargs)
    misses = []
    for p, snr_db in enumerate(grid):
        points = (pmd_experiment(ENGINES, [snr_db], **kwargs) if p
                  else sweep[:len(ENGINES)])
        acq = acquisition_experiment(ENGINES, snr_db=snr_db, max_half_frames=1,
                                     **kwargs)
        for c, point in zip(ENGINES, points):
            assert point.snr_db == snr_db
            censored = sum(r.censored for r in acq if r.engine_key == c.key)
            assert point.misses == censored
            misses.append(censored)
    # Both outcomes occur, so the comparison can tell them apart.
    assert 0 < sum(misses) < trials * len(misses)


def test_self_calibration_equals_calibrate_at_the_same_seed(monkeypatch):
    used = []
    calibrate = calibrate_thresholds
    monkeypatch.setattr(
        "pssdet.detector.calibrate_thresholds",
        lambda *args, **kwargs: used.append(calibrate(*args, **kwargs)) or used[-1])
    kwargs = dict(trials=40, base_seed=5, calibration_trials=150)
    own = pmd_experiment(ENGINES, [-6.0], **kwargs)
    acquisition_experiment(ENGINES, max_half_frames=2, **kwargs)
    lam = calibrate_thresholds(ENGINES, trials=150, seed=5)
    assert used == [lam, lam]
    given = pmd_experiment(ENGINES, [-6.0], **kwargs, thresholds=lam)
    assert own == given


def test_jakes_acquisition_synthesizes_only_visited_half_frames(monkeypatch):
    regions, counted = [], []

    def region(*args, **kwargs):
        regions.append(kwargs["half_frame"])
        return burst_region(*args, **kwargs)

    def counting(*args, **kwargs):
        stream = embed_pss_in_halfframe(*args, **kwargs)
        counted.append(len(stream.samples))
        return stream

    monkeypatch.setattr("pssdet.detector.burst_region", region)
    monkeypatch.setattr("pssdet.detector.embed_pss_in_halfframe", counting)
    cap = 200
    results = acquisition_experiment(
        ENGINES, trials=4, base_seed=6, snr_db=0.0, cfo_ppm=0.0,
        fading="rayleigh_jakes", doppler_hz=5.56, max_half_frames=cap,
        thresholds=FIXED_LAMBDA)
    visited = sum(max(r.half_frames for r in results if r.trial == t)
                  for t in range(4))
    assert visited < 4 * cap
    # Every visited half frame synthesizes its burst region; only those
    # the gate passes synthesize in full.
    assert len(regions) == visited
    assert len(counted) <= visited
    assert sum(counted) == HALF_FRAME_LEN * len(counted)


def test_experiments_reject_negative_seeds_before_calibrating(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("calibrate_thresholds was reached")

    monkeypatch.setattr("pssdet.detector.calibrate_thresholds", reached)
    for thresholds in (None, FIXED_LAMBDA):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            pmd_experiment(ENGINES, [-5.0], trials=4, base_seed=-5,
                           thresholds=thresholds)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            acquisition_experiment(ENGINES, trials=4, base_seed=-5,
                                   thresholds=thresholds)


def test_repeated_engines_are_rejected_before_any_work(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a calibration or trial chunk was run")

    monkeypatch.setattr("pssdet.detector._chunked", reached)
    c = EngineConfig("mf_opt", oversample=1)
    engines = [c, EngineConfig("cluster", num_clusters=8), c]
    match = "more than once: mf_opt_os1"
    with pytest.raises(ValueError, match=match):
        calibrate_thresholds(engines, trials=100, seed=0)
    for thresholds in (None, {"mf_opt_os1": 6.0, "cluster_k8_os2": 6.0}):
        with pytest.raises(ValueError, match=match):
            pmd_experiment(engines, [-5.0], trials=4, thresholds=thresholds)
        with pytest.raises(ValueError, match=match):
            acquisition_experiment(engines, trials=4, thresholds=thresholds)


def test_nan_thresholds_are_rejected_before_any_trial(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a trial chunk was run")

    monkeypatch.setattr("pssdet.detector._chunked", reached)
    lam = {"mf_opt_os2": np.nan, "cluster_k8_os2": 5.5}
    match = "NaN threshold for mf_opt_os2"
    with pytest.raises(ValueError, match=match):
        pmd_experiment(ENGINES, [-5.0], trials=4, thresholds=lam)
    with pytest.raises(ValueError, match=match):
        acquisition_experiment(ENGINES, trials=4, thresholds=lam)
    tx = add_cyclic_prefix(pss_time_domain(25, 128))
    stream = embed_pss_in_halfframe(
        tx, ChannelScenario(snr_db=5.0, timing_offset=800, seed=40))
    with pytest.raises(ValueError, match=match):
        detect(stream, ENGINES[0], np.nan)
    # +inf stays a valid threshold: it never detects.
    assert not detect(stream, ENGINES[0], np.inf).detected


def test_process_pool_is_capped_at_the_cpu_count(monkeypatch):
    # A stand-in pool that records its size and maps in this process, so
    # the test starts no process whatever the job count.
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("pssdet.detector.ProcessPoolExecutor", InProcessPool,
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    lam = calibrate_thresholds(ENGINES, trials=100, seed=3, jobs=8)
    assert workers and max(workers) <= 2
    assert lam == calibrate_thresholds(ENGINES, trials=100, seed=3, jobs=1)


@pytest.mark.parametrize("bad", [
    dict(snr_db=1e6), dict(snr_db=3070.0), dict(snr_db=np.nan),
    dict(fading="rayleigh_jakes"), dict(cfo_ppm=np.inf), dict(trials=0),
    dict(taps=((0, 0.0), (9500, 0.0))),
])
def test_experiments_validate_before_calibrating(monkeypatch, bad):
    def reached(*args, **kwargs):
        raise AssertionError("calibrate_thresholds was reached")

    monkeypatch.setattr("pssdet.detector.calibrate_thresholds", reached)
    kwargs = dict(trials=4, fading="rayleigh_block", cfo_ppm=0.0)
    kwargs.update(bad)
    snr_db = kwargs.pop("snr_db", -5.0)
    with pytest.raises(ValueError):
        pmd_experiment(ENGINES, [-5.0, snr_db], **kwargs)
    with pytest.raises(ValueError):
        acquisition_experiment(ENGINES, snr_db=snr_db, **kwargs)


def test_acquisition_cdf_rows():
    results = [
        AcquisitionResult("e", 0, 1, 5.0, False),
        AcquisitionResult("e", 1, 3, 15.0, False),
        AcquisitionResult("e", 2, 4, 20.0, True),
    ]
    rows = acquisition_cdf(results, max_half_frames=5)
    assert len(rows) == 5
    times = [t for _, t, _ in rows]
    assert times == [5.0, 10.0, 15.0, 20.0, 25.0]
    cdf = [c for _, _, c in rows]
    assert cdf == sorted(cdf)
    assert cdf[0] == pytest.approx(1 / 3)
    assert cdf[-1] == pytest.approx(2 / 3)  # censored trial never counts


def test_median_time_ci():
    results = [
        AcquisitionResult("e", t, t + 1, 5.0 * (t + 1), False)
        for t in range(99)
    ]
    median, lo, hi = median_time_ci(results, "e")
    assert median == pytest.approx(5.0 * 50)
    assert lo <= median <= hi
    censored = [AcquisitionResult("x", t, 4, 20.0, True) for t in range(9)]
    median, _, hi = median_time_ci(censored, "x")
    assert median == np.inf and hi == np.inf
    with pytest.raises(ValueError):
        median_time_ci(results, "missing")
