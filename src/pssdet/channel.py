"""Channel simulation: multipath, fading, CFO, noise, frame assembly.

The reference geometry is the LTE half frame: the PSS occurs once per
5 ms, i.e. every 9600 samples at the native 1.92 MHz rate.  Received
streams are synthesized as r(n) = e^{j 2 pi f n / fs} * sum_m h_m(n)
s(n - theta - d_m) + z(n) with integer tap delays d_m on the sampling
grid and circularly symmetric Gaussian noise z.

embed_pss_in_halfframe fixes the noise floor at unit variance and
scales the signal amplitude to the requested SNR, so that a detection
threshold calibrated once on noise-only streams stays valid across
every SNR point of a Monte Carlo run.

The rate (1.92 MHz, the only one a stream has), the 2 GHz carrier
behind ppm CFO values and the TU6 taps are constants.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math
import os

import numpy as np

from .pss import PSS_ROOTS, read_iq, write_iq, write_text

HALF_FRAME_SEC = 5e-3
SAMPLE_RATE_HZ = 1.92e6
HALF_FRAME_LEN = int(round(SAMPLE_RATE_HZ * HALF_FRAME_SEC))
CARRIER_HZ = 2e9
NOISE_FLOOR_VARIANCE = 1.0
# Above this the signal amplitude overflows or the metric turns NaN.
MAX_SNR_DB = 300.0
JAKES_RAYS = 16
# A CFO of half the sample rate or more aliases: 480 ppm of CARRIER_HZ.
MAX_CFO_PPM = SAMPLE_RATE_HZ / 2 / CARRIER_HZ * 1e6

FADING_MODES = ("static", "rayleigh_block", "rayleigh_jakes")

# Spawn-key purposes below a trial's seed (see keyed_rng): half frame i
# draws its block gains and its burst region's noise from (HALF_FRAME, i)
# and the noise of every other sample from (HALF_FRAME, i, REST); the
# Jakes rays of all of them come from (JAKES,).
HALF_FRAME, JAKES, REST = 0, 1, 2

# Native samples of noise either side of the received burst in a half
# frame's burst region.  The detector's tolerance windows reach up to
# 9 samples past the end of a single-tap burst, so this must be at
# least that.
BURST_PAD = 16

# COST 207 Typical Urban, 6 taps: (delay in microseconds, mean power in dB).
TU6_DELAYS_US = (0.0, 0.2, 0.5, 1.6, 2.3, 5.0)
TU6_POWERS_DB = (-3.0, 0.0, -2.0, -6.0, -8.0, -10.0)


def _whole(name, value) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ChannelScenario:
    """One reproducible channel draw.

    ``taps`` are (delay_samples, mean_power_db) pairs with non-negative
    strictly increasing integer delays and powers whose linear values
    10**(p/10) sum to a positive finite number (-inf is a silent tap;
    NaN, +inf, all-silent taps and sums that overflow or underflow are
    rejected).  They are kept as given and
    ``linear_powers`` normalizes them to sum to one, so a copy made with
    ``dataclasses.replace`` has exactly the same channel.  ``snr_db``
    must be finite and at most MAX_SNR_DB, or +inf for noiseless runs;
    ``cfo_ppm`` and ``doppler_hz`` must be finite, and the CFO must lie
    strictly within +-MAX_CFO_PPM (half the sample rate).  ``timing_offset``
    is theta in samples.  ``seed`` is the trial's SeedSequence; a
    non-negative int s stands for SeedSequence(s).  Delays, offsets and
    int seeds must be ints (numpy integers included, bools not).
    """

    taps: tuple = ((0, 0.0),)
    fading: str = "static"
    snr_db: float = np.inf
    cfo_ppm: float = 0.0
    timing_offset: int = 0
    doppler_hz: float = 0.0
    seed: np.random.SeedSequence | int = 0

    def __post_init__(self):
        if (not isinstance(self.seed, np.random.SeedSequence)
                and _whole("seed", self.seed) < 0):
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        taps = tuple((_whole("tap delays", d), float(p)) for d, p in self.taps)
        if not taps:
            raise ValueError("scenario needs at least one tap")
        delays = [d for d, _ in taps]
        if delays[0] < 0 or any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError(
                f"tap delays must be non-negative and strictly increasing, got {delays}"
            )
        powers = [p for _, p in taps]
        try:
            total = sum(10.0 ** (p / 10.0) for p in powers)
        except OverflowError:
            total = np.inf
        # NaN fails both comparisons.
        if not 0.0 < total < np.inf:
            raise ValueError(
                f"tap powers must be dB values whose linear powers sum to a "
                f"positive finite number, got {powers}"
            )
        if not (-np.inf < self.snr_db <= MAX_SNR_DB or self.snr_db == np.inf):
            raise ValueError(f"snr_db must be finite and at most {MAX_SNR_DB:g}, "
                             f"or +inf, got {self.snr_db}")
        if not (np.isfinite(self.cfo_ppm) and np.isfinite(self.doppler_hz)):
            raise ValueError(
                f"cfo_ppm and doppler_hz must be finite, "
                f"got {self.cfo_ppm} and {self.doppler_hz}"
            )
        if not abs(self.cfo_ppm) < MAX_CFO_PPM:
            raise ValueError(
                f"cfo_ppm must lie strictly within +-{MAX_CFO_PPM:g} ppm (half the "
                f"{SAMPLE_RATE_HZ:g} Hz sample rate at a {CARRIER_HZ:g} Hz "
                f"carrier), got {self.cfo_ppm}"
            )
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}, got {self.fading!r}")
        if self.fading == "rayleigh_jakes" and self.doppler_hz <= 0:
            raise ValueError("rayleigh_jakes fading needs doppler_hz > 0")
        if _whole("timing_offset", self.timing_offset) < 0:
            raise ValueError("timing_offset must be non-negative")
        object.__setattr__(self, "taps", taps)

    @property
    def delays(self) -> np.ndarray:
        return np.array([d for d, _ in self.taps], dtype=np.int64)

    @property
    def linear_powers(self) -> np.ndarray:
        """Mean linear tap powers, normalized to sum to one."""
        linear = np.array([10.0 ** (p / 10.0) for _, p in self.taps])
        return linear / linear.sum()

    @property
    def cfo_hz(self) -> float:
        return self.cfo_ppm * 1e-6 * CARRIER_HZ


def merge_taps(taps) -> tuple:
    """Combine same-delay taps by adding their linear powers."""
    acc: dict[int, float] = {}
    for d, p in taps:
        acc[int(d)] = acc.get(int(d), 0.0) + 10.0 ** (p / 10.0)
    return tuple(
        (d, float(10.0 * np.log10(acc[d]))) for d in sorted(acc)
    )


# COST 207 TU delays quantized to the 1.92 MHz grid, powers in dB.  The
# first two delays land on the same sample and merge into one tap.
TU6_TAPS = merge_taps(
    (int(round(d * 1e-6 * SAMPLE_RATE_HZ)), p)
    for d, p in zip(TU6_DELAYS_US, TU6_POWERS_DB)
)


@dataclass(frozen=True)
class RxStream:
    """A received sample stream at SAMPLE_RATE_HZ plus the ground truth
    for scoring: the transmitted root and the body start of each burst."""

    samples: np.ndarray
    true_root: int | None = None
    pss_starts: tuple = ()


def keyed_rng(seed, *key: int) -> np.random.Generator:
    """The generator of ``key`` below ``seed`` (a SeedSequence, or a
    non-negative int s standing for SeedSequence(s)): the same entropy,
    the spawn key extended by ``key``.  Keys of different length or
    value give independent streams, the way SeedSequence.spawn does."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.default_rng(
        np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + key))


def floor_noise(rng, n):
    """n samples of circularly symmetric Gaussian noise of variance
    NOISE_FLOOR_VARIANCE: the first n standard normals drawn are the
    real parts and the next n the imaginary parts, so the values and
    the generator state after equal those of two standard_normal(n)
    calls."""
    noise = np.empty(n, dtype=complex)
    noise.real, noise.imag = rng.standard_normal((2, n))
    noise *= np.sqrt(NOISE_FLOOR_VARIANCE / 2.0)
    return noise


def _tap_gains(amps, fading, rng):
    """One block-fading draw: complex gain per tap, whose mean power is
    amps**2 (the static gains are the amplitudes themselves)."""
    if fading == "static":
        return amps.astype(complex)
    draw = rng.standard_normal(len(amps)) + 1j * rng.standard_normal(len(amps))
    return amps * draw / np.sqrt(2.0)


class _JakesProcess:
    """Sum-of-sinusoids Rayleigh process, one instance per tap.

    g(n) = sqrt(p / M) * sum_i exp(j (2 pi fd cos(alpha_i) n Ts + phi_i))
    with independent uniform ray angles and phases.  Unit mean power,
    approximately Clarke-spectrum correlated across samples, evaluated
    at absolute sample indices so multi-frame runs stay continuous.
    """

    def __init__(self, power, doppler, rng, rays=JAKES_RAYS):
        self.amp = np.sqrt(power / rays)
        self.omega = 2.0 * np.pi * doppler * np.cos(rng.uniform(0, 2 * np.pi, rays))
        self.omega /= SAMPLE_RATE_HZ
        self.phase = rng.uniform(0, 2 * np.pi, rays)

    def at(self, n: np.ndarray) -> np.ndarray:
        return self.amp * np.exp(
            1j * (np.outer(n, self.omega) + self.phase)
        ).sum(axis=1)


@dataclass(frozen=True)
class BurstPlan:
    """What burst_region needs of one trial that no half frame changes:
    the region's bounds [lo, hi), the tap delays, the tap amplitudes
    sqrt(linear_powers) and the burst scaled to the SNR.  A trial loop
    builds it once (``burst_plan``) and passes it to every half frame."""

    lo: int
    hi: int
    delays: np.ndarray
    amps: np.ndarray
    burst: np.ndarray


def burst_plan(w, scenario: ChannelScenario) -> BurstPlan:
    """The BurstPlan of waveform ``w`` under ``scenario``."""
    theta = scenario.timing_offset
    delays = scenario.delays
    n_rx = len(w.samples) + int(delays[-1])
    if theta + n_rx > HALF_FRAME_LEN:
        raise ValueError(
            f"timing_offset {theta} leaves no room for the symbol in a "
            f"{HALF_FRAME_LEN}-sample half frame"
        )
    amp = 1.0
    if np.isfinite(scenario.snr_db):
        body_power = float(np.mean(np.abs(w.body) ** 2))
        amp = math.sqrt(10.0 ** (scenario.snr_db / 10.0) * NOISE_FLOOR_VARIANCE / body_power)
    return BurstPlan(lo=max(theta - BURST_PAD, 0) // 2 * 2,
                     hi=min(theta + n_rx + BURST_PAD, HALF_FRAME_LEN),
                     delays=delays, amps=np.sqrt(scenario.linear_powers),
                     burst=amp * w.samples)


def burst_region(w, scenario: ChannelScenario, *, half_frame: int = 0, plan=None):
    """(lo, region): native samples [lo, lo + len(region)) of half frame
    ``half_frame``, exactly as embed_pss_in_halfframe synthesizes them.

    The region runs from BURST_PAD samples before the timing offset,
    rounded down to an even index so that every other sample keeps the
    half frame's decimation phase, to BURST_PAD samples past the last
    tap's copy of the burst, both clipped to the half frame.  Its
    generator is keyed (HALF_FRAME, i) below scenario.seed and draws
    the block-fading tap gains first, then the region's noise.  ``plan``
    is ``burst_plan(w, scenario)``, built here when not given.
    """
    if half_frame < 0:
        raise ValueError(f"half_frame must be non-negative, got {half_frame}")
    plan = plan or burst_plan(w, scenario)
    theta, delays, burst = scenario.timing_offset, plan.delays, plan.burst
    n_rx = len(burst) + int(delays[-1])
    rng = keyed_rng(scenario.seed, HALF_FRAME, half_frame)

    # One burst of n_rx samples: the taps' gains times the burst,
    # summed, then one CFO ramp.
    first = half_frame * HALF_FRAME_LEN + theta
    idx = np.arange(first, first + n_rx)
    if scenario.fading == "rayleigh_jakes":
        rays = keyed_rng(scenario.seed, JAKES)
        gains = [
            _JakesProcess(p, scenario.doppler_hz, rays).at(idx[d: d + len(burst)])
            for p, d in zip(scenario.linear_powers, delays)
        ]
    else:
        gains = _tap_gains(plan.amps, scenario.fading, rng)

    if np.isfinite(scenario.snr_db):
        region = floor_noise(rng, plan.hi - plan.lo)
    else:
        region = np.zeros(plan.hi - plan.lo, dtype=complex)
    rx = np.zeros(n_rx, dtype=complex)
    for gain, d in zip(gains, delays):
        rx[d: d + len(burst)] += gain * burst
    if scenario.cfo_hz:
        rx *= np.exp(2j * np.pi * scenario.cfo_hz * idx / SAMPLE_RATE_HZ)
    region[theta - plan.lo: theta - plan.lo + n_rx] += rx
    return plan.lo, region


def embed_pss_in_halfframe(w, scenario: ChannelScenario, *, half_frame: int = 0,
                           region=None) -> RxStream:
    """Synthesize half frame ``half_frame`` of a trial: HALF_FRAME_LEN
    samples with one PSS burst.

    The noise floor is fixed at unit variance and the waveform is
    scaled so that the mean body-sample power equals
    10^(snr_db / 10) * floor.  Half frame i covers the trial's absolute
    samples [i * HALF_FRAME_LEN, (i + 1) * HALF_FRAME_LEN); the CFO ramp
    and Jakes fading run on those absolute indices, so consecutive half
    frames are continuous.  The samples around the burst are
    burst_region's ``(lo, samples)``, which a caller that already holds
    them passes as ``region``, inserted at lo into one floor_noise draw
    of the other samples from the key (HALF_FRAME, i, REST) below
    scenario.seed (zeros on a noiseless run).  The reported pss_starts
    holds the symbol body position (after the cyclic prefix) within
    the half frame.
    """
    lo, burst = region or burst_region(w, scenario, half_frame=half_frame)
    n_rest = HALF_FRAME_LEN - len(burst)
    rest = (floor_noise(keyed_rng(scenario.seed, HALF_FRAME, half_frame, REST), n_rest)
            if np.isfinite(scenario.snr_db) else np.zeros(n_rest, dtype=complex))
    return RxStream(
        samples=np.insert(rest, lo, burst),
        true_root=w.root,
        pss_starts=(scenario.timing_offset + w.cp_len,),
    )


# ---------------------------------------------------------------------------
# Stream files: raw IQ next to a small JSON sidecar with the metadata.
# ---------------------------------------------------------------------------

def write_stream(stream: RxStream, iq_path) -> None:
    write_iq(iq_path, stream.samples)
    meta = {
        "sample_rate_hz": SAMPLE_RATE_HZ,
        "true_root": stream.true_root,
        "pss_starts": list(stream.pss_starts),
    }
    write_text(f"{iq_path}.json", json.dumps(meta, indent=2) + "\n")


def read_stream(iq_path) -> RxStream:
    samples = read_iq(iq_path)
    side = f"{iq_path}.json"
    if not os.path.exists(side):
        return RxStream(samples=samples)
    with open(side) as f:
        meta = json.load(f)
    missing = [k for k in ("sample_rate_hz", "true_root", "pss_starts")
               if not isinstance(meta, dict) or k not in meta]
    if missing:
        raise ValueError(f"stream sidecar {side} lacks {', '.join(missing)}")
    rate, root, starts = meta["sample_rate_hz"], meta["true_root"], meta["pss_starts"]
    # JSON values have exact types, so type() keeps bools out of the ints.
    for key, ok, kind in (
        ("sample_rate_hz", type(rate) in (int, float), "a number"),
        ("true_root", root is None or type(root) is int, "an int or null"),
        ("pss_starts", type(starts) is list and all(type(s) is int for s in starts),
         "a list of ints"),
    ):
        if not ok:
            raise ValueError(f"stream sidecar {side}: {key} must be {kind}, "
                             f"got {meta[key]!r}")
    if rate != SAMPLE_RATE_HZ:
        raise ValueError(f"stream sidecar {side}: sample_rate_hz must be "
                         f"{SAMPLE_RATE_HZ:g} Hz, got {rate:g} Hz")
    if root is not None and root not in PSS_ROOTS:
        raise ValueError(f"stream sidecar {side}: true_root must be null or one of "
                         f"{PSS_ROOTS}, got {root!r}")
    if not all(0 <= s < len(samples) for s in starts):
        raise ValueError(f"stream sidecar {side}: pss_starts must be sample "
                         f"indices in [0, {len(samples)}), got {starts!r}")
    return RxStream(samples=samples, true_root=root, pss_starts=tuple(starts))
