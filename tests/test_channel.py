"""Channel model checks: taps, fading, CFO, framing, stream files."""

import dataclasses
import json

import numpy as np
import pytest

from pssdet import (
    ChannelScenario,
    add_cyclic_prefix,
    embed_pss_in_halfframe,
    merge_taps,
    mf_correlate,
    pss_time_domain,
    read_stream,
    write_stream,
)
from pssdet.channel import (
    BURST_PAD,
    CARRIER_HZ,
    HALF_FRAME,
    JAKES,
    NOISE_FLOOR_VARIANCE,
    REST,
    SAMPLE_RATE_HZ,
    TU6_DELAYS_US,
    TU6_POWERS_DB,
    TU6_TAPS,
    _JakesProcess,
    _tap_gains,
    burst_region,
    floor_noise,
)


# ---------------------------------------------------------------------------
# Scenario plumbing.
# ---------------------------------------------------------------------------

def test_scenario_normalizes_tap_powers():
    sc = ChannelScenario(taps=((0, -3.0), (2, 0.0), (5, -2.0)))
    assert abs(sc.linear_powers.sum() - 1.0) < 1e-12
    np.testing.assert_array_equal(sc.delays, [0, 2, 5])
    # The taps are kept as given; only linear_powers normalizes.
    assert sc.taps == ((0, -3.0), (2, 0.0), (5, -2.0))


def test_scenario_replace_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        delays = np.sort(rng.choice(40, size=n, replace=False))
        taps = tuple(zip(delays.tolist(), rng.uniform(-30.0, 10.0, n).tolist()))
        sc = ChannelScenario(taps=taps)
        copy = dataclasses.replace(sc, seed=1)
        assert copy.taps == sc.taps
        np.testing.assert_array_equal(copy.linear_powers, sc.linear_powers)


def _keyed(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _half_frames(w, sc, count):
    """Half frames 0 .. count-1 of one trial, end to end."""
    return np.concatenate([embed_pss_in_halfframe(w, sc, half_frame=i).samples
                           for i in range(count)])


def test_scenario_validation():
    with pytest.raises(ValueError, match="seed"):
        ChannelScenario(seed=-1)
    with pytest.raises(ValueError):
        ChannelScenario(taps=())
    with pytest.raises(ValueError):
        ChannelScenario(taps=((-1, 0.0),))
    with pytest.raises(ValueError):
        ChannelScenario(taps=((0, 0.0), (0, -3.0)))
    # A -inf tap is a silent one, but NaN, +inf and all-silent powers
    # normalize to NaN gains.
    ChannelScenario(taps=((0, 0.0), (3, -np.inf)))
    for power in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tap powers"):
            ChannelScenario(taps=((0, 0.0), (3, power)))
    with pytest.raises(ValueError, match="tap powers"):
        ChannelScenario(taps=((0, -np.inf), (3, -np.inf)))
    # Finite dB values whose linear sum overflows (to inf, or raising
    # OverflowError) or underflows to zero leave no channel to normalize.
    for taps in (((0, 3080.0), (2, 3080.0)), ((0, 4000.0),), ((0, -4000.0),)):
        with pytest.raises(ValueError, match="tap powers"):
            ChannelScenario(taps=taps)
    with pytest.raises(ValueError):
        ChannelScenario(fading="ricean")
    with pytest.raises(ValueError):
        ChannelScenario(fading="rayleigh_jakes")  # doppler missing
    with pytest.raises(ValueError):
        ChannelScenario(timing_offset=-1)
    # Delays, offsets and int seeds are whole numbers: no float is
    # truncated and no bool or string stands for one.
    for field, kwargs in [("tap delays", dict(taps=((0, 0.0), (2.7, -3.0)))),
                          ("tap delays", dict(taps=((0, 0.0), (True, -3.0)))),
                          ("tap delays", dict(taps=(("3", 0.0),))),
                          ("timing_offset", dict(timing_offset=300.5)),
                          ("timing_offset", dict(timing_offset=True)),
                          ("seed", dict(seed=1.5)),
                          ("seed", dict(seed=True)),
                          ("seed", dict(seed="3"))]:
        with pytest.raises(ValueError, match=field):
            ChannelScenario(**kwargs)
    # numpy integers are ints.
    ChannelScenario(taps=((np.int64(0), 0.0),), timing_offset=np.int64(5),
                    seed=np.uint32(7))
    # +inf SNR means noiseless; NaN and -inf have no meaning, and past
    # 300 dB the burst amplitude overflows or the metric turns NaN.
    ChannelScenario(snr_db=300.0)
    for field, value in [("snr_db", np.nan), ("snr_db", -np.inf),
                         ("snr_db", 300.5), ("snr_db", 3070.0), ("snr_db", 1e6),
                         ("cfo_ppm", np.nan), ("cfo_ppm", np.inf),
                         ("doppler_hz", np.nan), ("doppler_hz", np.inf)]:
        with pytest.raises(ValueError, match=field):
            ChannelScenario(**{field: value})


def test_cfo_conversion():
    # 5 ppm of the 2 GHz carrier.
    sc = ChannelScenario(cfo_ppm=5.0)
    assert abs(sc.cfo_hz - 10e3) < 1e-9


def test_cfo_must_stay_below_half_the_sample_rate():
    # 480 ppm of the 2 GHz carrier is half of 1.92 MHz: from there on the
    # ramp aliases, and 1e300 ppm turns it NaN.
    assert abs(480e-6 * CARRIER_HZ - SAMPLE_RATE_HZ / 2) < 1e-6
    for ppm in (479.99, -479.99, 0.0):
        ChannelScenario(cfo_ppm=ppm)
    for ppm in (480.0, -480.0, 1000.0, -1e300, 1e300):
        with pytest.raises(ValueError, match=r"cfo_ppm must lie strictly within \+-480 ppm"):
            ChannelScenario(cfo_ppm=ppm)


def test_tu6_profile_quantization():
    # 1.92 samples per microsecond.
    taps = [(int(round(d * 1.92)), p) for d, p in zip(TU6_DELAYS_US, TU6_POWERS_DB)]
    assert [d for d, _ in taps] == [0, 0, 1, 3, 4, 10]
    assert merge_taps(taps) == TU6_TAPS
    assert [d for d, _ in TU6_TAPS] == [0, 1, 3, 4, 10]
    # Linear power is conserved by the merge.
    lin = sum(10 ** (p / 10) for _, p in taps)
    lin_merged = sum(10 ** (p / 10) for _, p in TU6_TAPS)
    assert abs(lin - lin_merged) < 1e-12


def test_tu6_scenario_builds():
    sc = ChannelScenario(taps=TU6_TAPS, snr_db=-5.0,
                         fading="rayleigh_block", seed=4)
    assert len(sc.taps) == 5
    assert abs(sc.linear_powers.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Noiseless embedding: placement, multipath, CFO.
# ---------------------------------------------------------------------------

def test_identity_channel_passthrough():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario()  # single tap, static, no noise, no CFO
    expected = np.zeros(2 * 9600, dtype=complex)
    expected[:137] = w.samples
    expected[9600: 9600 + 137] = w.samples
    np.testing.assert_allclose(_half_frames(w, sc, 2), expected, atol=1e-15)


def test_timing_offset_places_burst():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario(timing_offset=50)
    stream = embed_pss_in_halfframe(w, sc)
    assert np.all(stream.samples[:50] == 0)
    assert np.all(stream.samples[50 + 137:] == 0)
    np.testing.assert_allclose(stream.samples[50: 50 + 137], w.samples,
                               atol=1e-15)
    trace = mf_correlate(stream.samples, pss_time_domain(25, 128), "sliding")
    assert int(np.argmax(trace)) == 50 + 9
    assert stream.pss_starts == (50 + 9,)


def test_cfo_applies_phase_ramp():
    w = add_cyclic_prefix(pss_time_domain(29, 128))
    sc = ChannelScenario(cfo_ppm=5.0, timing_offset=10)
    # The ramp runs on the trial's absolute sample index, so it stays
    # continuous from one half frame to the next.
    for i in (0, 1):
        stream = embed_pss_in_halfframe(w, sc, half_frame=i)
        n = np.arange(137) + i * 9600 + 10
        ramp = np.exp(2j * np.pi * sc.cfo_hz * n / SAMPLE_RATE_HZ)
        np.testing.assert_allclose(stream.samples[10: 10 + 137],
                                   w.samples * ramp, atol=1e-12)


def test_multipath_superposition():
    w = add_cyclic_prefix(pss_time_domain(34, 128))
    sc = ChannelScenario(taps=((0, 0.0), (3, 0.0)), timing_offset=20)
    stream = embed_pss_in_halfframe(w, sc)
    g = np.sqrt(0.5)
    expected = np.zeros(9600, dtype=complex)
    expected[20: 20 + 137] += g * w.samples
    expected[23: 23 + 137] += g * w.samples
    np.testing.assert_allclose(stream.samples, expected, atol=1e-12)


def _per_tap_reference(w, sc, seed, count):
    """Noiseless half frames 0 .. count-1 of a trial at integer ``seed``,
    built tap by tap, each tap with its own CFO ramp: block gains from
    each half frame's key, one set of Jakes processes from the trial's
    JAKES key, evaluated on the absolute sample index."""
    out = np.zeros(count * 9600, dtype=complex)
    procs = None
    if sc.fading == "rayleigh_jakes":
        rays = _keyed(seed, JAKES)
        procs = [_JakesProcess(p, sc.doppler_hz, rays) for p in sc.linear_powers]
    for i in range(count):
        if procs is None:
            gains = _tap_gains(np.sqrt(sc.linear_powers), sc.fading,
                               _keyed(seed, HALF_FRAME, i))
        for m, d in enumerate(sc.delays):
            n = np.arange(len(w.samples)) + i * 9600 + sc.timing_offset + d
            g = gains[m] if procs is None else procs[m].at(n)
            ramp = np.exp(2j * np.pi * sc.cfo_hz * n / SAMPLE_RATE_HZ)
            out[n] += g * w.samples * ramp
    return out


@pytest.mark.parametrize("fading, doppler_hz", [
    ("rayleigh_block", 0.0), ("rayleigh_jakes", 50.0),
])
def test_embed_matches_per_tap_reference(fading, doppler_hz):
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    # Offsets 0 and 9453 (9600 - 137 - 10, the last TU6 leaves) clip the
    # burst region to the half frame's first and last sample.
    for theta in (300, 0, 9453):
        sc = ChannelScenario(taps=TU6_TAPS, fading=fading, cfo_ppm=5.0,
                             doppler_hz=doppler_hz, timing_offset=theta, seed=17)
        np.testing.assert_allclose(_half_frames(w, sc, 2),
                                   _per_tap_reference(w, sc, 17, 2), rtol=1e-12)


# ---------------------------------------------------------------------------
# Fading statistics.
# ---------------------------------------------------------------------------

def test_block_rayleigh_tap_statistics():
    sc = ChannelScenario(taps=TU6_TAPS, fading="rayleigh_block")
    rng = np.random.default_rng(123)
    amps = np.sqrt(sc.linear_powers)
    draws = np.stack([_tap_gains(amps, sc.fading, rng) for _ in range(10_000)])
    powers = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(powers, sc.linear_powers, rtol=0.05)
    assert np.abs(draws.mean(axis=0)).max() < 0.02


def test_static_gains_are_deterministic_amplitudes():
    sc = ChannelScenario(taps=((0, 0.0), (2, -3.0)))
    rng = np.random.default_rng(0)
    g = _tap_gains(np.sqrt(sc.linear_powers), sc.fading, rng)
    np.testing.assert_allclose(g, np.sqrt(sc.linear_powers), atol=1e-15)


def test_jakes_process_power_and_continuity():
    rng = np.random.default_rng(7)
    proc = _JakesProcess(0.5, 5.56, rng)  # 3 km/h at 2 GHz
    n = np.arange(200_000)
    g = proc.at(n)
    assert abs(np.mean(np.abs(g) ** 2) - 0.5) < 0.05
    # Absolute-index evaluation makes chunked synthesis seamless.
    np.testing.assert_array_equal(
        np.concatenate([proc.at(n[:1000]), proc.at(n[1000:2000])]), g[:2000]
    )


# ---------------------------------------------------------------------------
# Half-frame embedding.
# ---------------------------------------------------------------------------

def test_embed_geometry():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario(timing_offset=1000, seed=5)
    # Every half frame of a trial has the burst at the same place.
    for i in range(3):
        stream = embed_pss_in_halfframe(w, sc, half_frame=i)
        assert len(stream.samples) == 9600
        assert stream.true_root == 25
        np.testing.assert_array_equal(stream.pss_starts, [1000 + 9])


def test_embed_noiseless_is_just_the_burst():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario(timing_offset=300, seed=5)
    stream = embed_pss_in_halfframe(w, sc)
    np.testing.assert_allclose(stream.samples[300: 300 + 137], w.samples,
                               atol=1e-15)
    mask = np.ones(9600, dtype=bool)
    mask[300: 300 + 137] = False
    assert np.all(stream.samples[mask] == 0)


def test_embed_signal_amplitude_tracks_snr():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    snr_db = 6.0
    sc = ChannelScenario(snr_db=snr_db, timing_offset=200, seed=21)
    stream = embed_pss_in_halfframe(w, sc)
    # Remove the exact same noise realization the embed drew: the burst
    # region [lo, hi) from half frame 0's key (a static channel draws
    # no gains first), every other sample from its REST key.
    lo, hi = (200 - BURST_PAD) // 2 * 2, 200 + 137 + BURST_PAD

    def floor(key, n):
        rng = _keyed(21, *key)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.sqrt(NOISE_FLOOR_VARIANCE / 2.0) * z

    rest = floor((HALF_FRAME, 0, REST), 9600 - (hi - lo))
    noise = np.concatenate([rest[:lo], floor((HALF_FRAME, 0), hi - lo), rest[lo:]])
    sig = stream.samples - noise
    body = sig[200 + 9: 200 + 9 + 128]
    measured = np.mean(np.abs(body) ** 2) / NOISE_FLOOR_VARIANCE
    assert abs(10 * np.log10(measured) - snr_db) < 1e-9


def test_embed_noise_floor_is_unit_variance():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario(snr_db=-60.0, seed=3)
    assert abs(np.mean(np.abs(_half_frames(w, sc, 4)) ** 2) - 1.0) < 0.05


def test_floor_noise_keeps_the_two_draw_order():
    # Real parts from the first L draws, imaginary parts from the next L:
    # the same values and generator state as two standard_normal(L) calls.
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    want = np.sqrt(NOISE_FLOOR_VARIANCE / 2.0) * (
        a.standard_normal(1000) + 1j * a.standard_normal(1000))
    got = floor_noise(b, 1000)
    np.testing.assert_array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


def test_embed_block_fading_varies_per_frame():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario(snr_db=np.inf, fading="rayleigh_block",
                         timing_offset=0, seed=11)
    samples = _half_frames(w, sc, 2)
    first = samples[:137]
    second = samples[9600: 9600 + 137]
    # Same burst, independent complex gains.
    assert not np.allclose(first, second)
    ratio = second[np.abs(first) > 1e-9] / first[np.abs(first) > 1e-9]
    assert np.std(np.abs(ratio)) < 1e-9


def test_embed_rejects_overflowing_offset():
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    with pytest.raises(ValueError):
        embed_pss_in_halfframe(w, ChannelScenario(timing_offset=9500))
    with pytest.raises(ValueError, match="half_frame"):
        embed_pss_in_halfframe(w, ChannelScenario(), half_frame=-1)


@pytest.mark.parametrize("half_frame", [0, 3])
@pytest.mark.parametrize("scenario", [
    dict(snr_db=-5.0),
    dict(taps=TU6_TAPS, fading="rayleigh_block", snr_db=-5.0, cfo_ppm=5.0),
    dict(taps=TU6_TAPS, fading="rayleigh_jakes", doppler_hz=50.0, snr_db=-5.0,
         cfo_ppm=5.0),
    dict(taps=TU6_TAPS, fading="rayleigh_block", cfo_ppm=5.0),
], ids=["static", "tu6_block_5ppm", "tu6_jakes", "noiseless"])
def test_embed_around_a_held_region_draws_the_same_half_frame(scenario, half_frame):
    w = add_cyclic_prefix(pss_time_domain(25, 128))
    sc = ChannelScenario(timing_offset=4321, seed=9, **scenario)
    region = burst_region(w, sc, half_frame=half_frame)
    held = embed_pss_in_halfframe(w, sc, half_frame=half_frame, region=region)
    plain = embed_pss_in_halfframe(w, sc, half_frame=half_frame)
    assert np.array_equal(held.samples, plain.samples)
    np.testing.assert_array_equal(held.pss_starts, plain.pss_starts)


def test_embed_is_reproducible():
    w = add_cyclic_prefix(pss_time_domain(29, 128))
    sc = ChannelScenario(taps=TU6_TAPS, snr_db=-5.0,
                         fading="rayleigh_block", cfo_ppm=5.0,
                         timing_offset=777, seed=101)
    np.testing.assert_array_equal(_half_frames(w, sc, 2), _half_frames(w, sc, 2))
    # A half frame is the same whether or not earlier ones were drawn.
    np.testing.assert_array_equal(
        embed_pss_in_halfframe(w, sc, half_frame=1).samples,
        _half_frames(w, sc, 2)[9600:])


# ---------------------------------------------------------------------------
# Stream files.
# ---------------------------------------------------------------------------

def test_stream_round_trip(tmp_path):
    w = add_cyclic_prefix(pss_time_domain(34, 128))
    sc = ChannelScenario(snr_db=0.0, timing_offset=400, seed=2)
    stream = embed_pss_in_halfframe(w, sc)
    path = tmp_path / "capture.iq"
    write_stream(stream, path)
    back = read_stream(path)
    np.testing.assert_array_equal(back.samples, stream.samples)
    assert back.true_root == 34
    assert back.pss_starts == stream.pss_starts == (400 + 9,)
    side = (tmp_path / "capture.iq.json").read_text()
    assert '"sample_rate_hz": 1920000.0,' in side
    assert json.loads(side) == {"sample_rate_hz": 1.92e6, "true_root": 34,
                                "pss_starts": [409]}


def test_stream_reads_sidecar_with_half_frame_len(tmp_path):
    # Sidecars written before the key was dropped still read.
    from pssdet import write_iq

    path = tmp_path / "old.iq"
    write_iq(path, np.ones(9600, dtype=complex))
    (tmp_path / "old.iq.json").write_text(json.dumps({
        "sample_rate_hz": SAMPLE_RATE_HZ, "true_root": 29,
        "pss_starts": [409], "half_frame_len": 9600}))
    back = read_stream(path)
    assert back.true_root == 29
    assert back.pss_starts == (409,)
    assert len(back.samples) == 9600


_SIDECAR = {"sample_rate_hz": SAMPLE_RATE_HZ, "true_root": 25, "pss_starts": [409]}


@pytest.mark.parametrize("meta, message", [
    ({}, "lacks sample_rate_hz, true_root, pss_starts$"),
    ({"sample_rate_hz": SAMPLE_RATE_HZ, "true_root": 25}, "lacks pss_starts$"),
    ({**_SIDECAR, "sample_rate_hz": None}, "sample_rate_hz must be a number"),
    ({**_SIDECAR, "sample_rate_hz": True}, "sample_rate_hz must be a number"),
    ({**_SIDECAR, "sample_rate_hz": "1.92e6"}, "sample_rate_hz must be a number"),
    ({**_SIDECAR, "sample_rate_hz": 30.72e6}, "sample_rate_hz must be 1.92e[+]06 Hz, "
                                              "got 3.072e[+]07 Hz"),
    ({**_SIDECAR, "true_root": 25.0}, "true_root must be an int or null"),
    ({**_SIDECAR, "true_root": False}, "true_root must be an int or null"),
    ({**_SIDECAR, "pss_starts": 100}, "pss_starts must be a list of ints"),
    ({**_SIDECAR, "pss_starts": [409.0]}, "pss_starts must be a list of ints"),
    ({**_SIDECAR, "pss_starts": [True]}, "pss_starts must be a list of ints"),
    # The file holds 16 samples.
    ({**_SIDECAR, "true_root": 7}, "true_root must be null or one of"),
    ({**_SIDECAR, "pss_starts": [2**70]}, r"pss_starts must be sample indices in \[0, 16\)"),
    ({**_SIDECAR, "pss_starts": [3, -5]}, r"pss_starts must be sample indices in \[0, 16\)"),
    ({**_SIDECAR, "pss_starts": [16]}, r"pss_starts must be sample indices in \[0, 16\)"),
], ids=["empty", "no_starts", "null_rate", "bool_rate", "string_rate", "other_rate",
        "float_root", "bool_root", "number_starts", "float_starts", "bool_starts",
        "other_root", "huge_start", "negative_start", "start_past_end"])
def test_stream_sidecar_must_hold_every_key(tmp_path, meta, message):
    from pssdet import write_iq

    path = tmp_path / "partial.iq"
    write_iq(path, np.zeros(16, dtype=complex))
    (tmp_path / "partial.iq.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message):
        read_stream(path)


def test_iq_file_must_hold_whole_samples(tmp_path):
    path = tmp_path / "torn.iq"
    path.write_bytes(bytes(17))
    with pytest.raises(ValueError, match="17 bytes"):
        read_stream(path)


def test_stream_without_sidecar_gets_defaults(tmp_path):
    from pssdet import write_iq

    path = tmp_path / "bare.iq"
    write_iq(path, np.zeros(16, dtype=complex))
    back = read_stream(path)
    assert back.true_root is None
    assert back.pss_starts == ()
