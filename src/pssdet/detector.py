"""Detection pipeline: engines, CFAR thresholds, Monte Carlo runs.

Streams are always synthesized at the native 1.92 MHz rate, where the
PSS spans 128 samples.  An engine configured with oversample = 2 works
on that stream directly; oversample = 1 models the cheaper front end
that keeps every other sample, so its correlators run with 64-sample
templates on a 4800-sample half frame and pay the classical penalties
(half the symbol energy, and a fractional timing offset whenever the
burst lands on an odd native sample).

Every engine's detection metric is a set of inner products between
sliding windows and three fixed coefficient vectors: the conjugated
PSS bodies for the matched filters, the conjugated cluster-quantized
templates for the clustered engine (the per-cluster sums times the
conjugated means telescope to exactly that product).  The simulation
therefore evaluates all engines through one shared window matrix and
a single matrix product per stream (:class:`BatchEvaluator`, also
behind :func:`detect`).  Operation counts are booked only in
:mod:`pssdet.correlator`, per architecture: brute, symmetry-folded
with conjugate-root sharing, or K-term clustered accumulation.  Those
architecture implementations are verified against these products in
the tests; rerunning them per trial would only slow the Monte Carlo
down without changing any decision.

Thresholds are constant-false-alarm: the (1 - Pfa) quantile of the
per-attempt maximum metric over noise-only half frames, stored per
engine configuration.  Experiments keep the noise floor at unit
variance and move the signal amplitude instead, so one calibration
serves every SNR point.

Seeds split additively: trial t of a run uses base_seed + t, and each
experiment point strides its base by 10**6 so points never overlap.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .channel import ChannelScenario, RxStream, embed_pss_in_halfframe
from .clustering import ClusterTable, conjugate_table, kmeans_cluster
from .correlator import _magnitude_sq, _windows
from .pss import PSS_ROOTS, add_cyclic_prefix, pss_time_domain

ENGINE_KINDS = ("mf_brute", "mf_opt", "cluster")
NATIVE_SAMPLE_RATE_HZ = ch.DEFAULT_SAMPLE_RATE_HZ

# Acceptance window around the true body start, in engine-grid samples
# (about half the cyclic prefix either side).
DETECT_TOLERANCE = {1: 4.0, 2: 9.0}

POINT_SEED_STRIDE = 10**6
CALIBRATION_SEED_STRIDE = 777 * POINT_SEED_STRIDE
DEFAULT_PFA = 0.1
WILSON_Z = 1.96


@dataclass(frozen=True)
class EngineConfig:
    """One detector configuration: engine kind, rate, cluster count."""

    kind: str
    oversample: int = 2
    num_clusters: int | None = None

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"kind must be one of {ENGINE_KINDS}, got {self.kind!r}")
        if self.oversample not in (1, 2):
            raise ValueError(f"oversample must be 1 or 2, got {self.oversample}")
        if self.kind == "cluster":
            if not self.num_clusters or self.num_clusters < 1:
                raise ValueError("cluster engine needs num_clusters >= 1")
        elif self.num_clusters is not None:
            raise ValueError(f"{self.kind} takes no num_clusters")

    @property
    def size_n(self) -> int:
        return 64 * self.oversample

    @property
    def key(self) -> str:
        if self.kind == "cluster":
            return f"cluster_k{self.num_clusters}_os{self.oversample}"
        return f"{self.kind}_os{self.oversample}"


class PreparedEngine:
    """An EngineConfig with its templates or tables built."""

    def __init__(self, config: EngineConfig):
        self.config = config
        n = config.size_n
        self.waveforms = tuple(pss_time_domain(u, n) for u in PSS_ROOTS)
        self.tables: tuple[ClusterTable, ...] | None = None
        if config.kind == "cluster":
            t25 = kmeans_cluster(self.waveforms[0].body, config.num_clusters, root=25)
            t29 = kmeans_cluster(self.waveforms[1].body, config.num_clusters, root=29)
            self.tables = (t25, t29, conjugate_table(t29))
            templates = [t.quantized_template() for t in self.tables]
        else:
            templates = [w.body for w in self.waveforms]
        # One column of conjugated coefficients per root, so a metric
        # evaluation is windows @ coef followed by squared magnitude.
        self.coef = np.conj(np.stack(templates, axis=1))

    @property
    def decimation(self) -> int:
        return 2 if self.config.oversample == 1 else 1


class BatchEvaluator:
    """Shared-window metric evaluation for several engines at once.

    Engines at the same oversample factor see identical windows, so
    their coefficient columns stack into one matrix product per
    stream.  Raw metric values may differ between batches of different
    composition at the matrix-blocking rounding level, never more.
    """

    def __init__(self, configs):
        self.engines = [PreparedEngine(c) for c in configs]
        self._groups = []
        for decim in (1, 2):
            members = [
                (i, e) for i, e in enumerate(self.engines) if e.decimation == decim
            ]
            if members:
                coef = np.concatenate([e.coef for _, e in members], axis=1)
                size_n = members[0][1].config.size_n
                self._groups.append((decim, size_n, [i for i, _ in members], coef))

    def metric_values(self, native_samples: np.ndarray):
        """Per engine: metric values per (lag on the engine grid, root)."""
        out = [None] * len(self.engines)
        for decim, size_n, idx, coef in self._groups:
            # The contiguous window copy is the largest array here; as a
            # temporary it is freed before the next group builds its own.
            w = _windows(native_samples[::decim], size_n, "sliding")
            values = _magnitude_sq(np.ascontiguousarray(w) @ coef)
            for j, i in enumerate(idx):
                out[i] = values[:, 3 * j: 3 * j + 3]
        return out

    def peaks(self, native_samples: np.ndarray):
        """Per engine: (metric, lag on the engine grid, root index)."""
        out = []
        for values in self.metric_values(native_samples):
            lag, root_idx = divmod(int(np.argmax(values)), 3)
            out.append((float(values[lag, root_idx]), lag, root_idx))
        return out


def _score(peak, engine: PreparedEngine, threshold: float, stream: RxStream) -> bool:
    metric, lag, root_idx = peak
    if metric <= threshold or PSS_ROOTS[root_idx] != stream.true_root:
        return False
    grid_starts = stream.pss_starts / engine.decimation
    lag_err = float(np.min(np.abs(grid_starts - lag)))
    return lag_err <= DETECT_TOLERANCE[engine.config.oversample]


@dataclass(frozen=True)
class DetectionResult:
    engine_key: str
    detected: bool
    root: int
    lag: int
    metric: float
    threshold: float
    correct: bool | None


def detect(stream: RxStream, config: EngineConfig, threshold: float) -> DetectionResult:
    """One detection attempt over everything the stream holds.

    The stream must be at the native 1.92 MHz rate.  The global maximum
    of the metric over all lags and the three roots is compared against
    the threshold.  When the stream carries ground truth, ``correct``
    additionally requires the winning root to match and the winning lag
    to fall within the engine's tolerance of the nearest true body
    start (converted to the engine's sample grid).
    """
    if stream.sample_rate_hz != NATIVE_SAMPLE_RATE_HZ:
        raise ValueError(
            f"detect needs a {NATIVE_SAMPLE_RATE_HZ:g} Hz stream, "
            f"got {stream.sample_rate_hz:g} Hz"
        )
    batch = _cached_batch((config,))
    peak = batch.peaks(stream.samples)[0]
    metric, lag, root_idx = peak

    correct = None
    if stream.true_root is not None and len(stream.pss_starts):
        correct = _score(peak, batch.engines[0], threshold, stream)

    return DetectionResult(
        engine_key=config.key,
        detected=metric > threshold,
        root=PSS_ROOTS[root_idx],
        lag=int(lag),
        metric=metric,
        threshold=float(threshold),
        correct=correct,
    )


# ---------------------------------------------------------------------------
# Threshold calibration.
# ---------------------------------------------------------------------------

def _noise_halfframe(rng, length, variance=ch.NOISE_FLOOR_VARIANCE):
    z = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return np.sqrt(variance / 2.0) * z


def _calibrate_chunk(start, stop, payload):
    configs, length, variance, seed = payload
    batch = _cached_batch(configs)
    out = np.empty((stop - start, len(configs)))
    for t in range(start, stop):
        rng = np.random.default_rng(seed + t)
        peaks = batch.peaks(_noise_halfframe(rng, length, variance))
        out[t - start] = [p[0] for p in peaks]
    return out


def calibrate_thresholds(
    engines,
    pfa: float = DEFAULT_PFA,
    trials: int = 2000,
    seed: int = 0,
    stream_len: int | None = None,
    noise_variance: float = ch.NOISE_FLOOR_VARIANCE,
    jobs: int = 1,
) -> dict[str, float]:
    """Empirical (1 - pfa) quantiles of the noise-only maximum metric.

    Each trial synthesizes one native-rate half frame of pure noise
    shared by every engine; each engine keeps its maximum metric over
    lags and roots, and its threshold is the linear-interpolated
    quantile of those maxima.  Scaling the noise variance by c scales
    every threshold by c.
    """
    if not (0.0 < pfa < 1.0):
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    if trials < 100:
        raise ValueError("calibration needs at least 100 trials")
    configs = tuple(engines)
    length = stream_len or int(round(NATIVE_SAMPLE_RATE_HZ * ch.HALF_FRAME_SEC))
    payload = (configs, length, noise_variance, seed)
    maxima = np.concatenate(_chunked(_calibrate_chunk, trials, jobs, payload))
    quantiles = np.quantile(maxima, 1.0 - pfa, axis=0)
    return {c.key: float(q) for c, q in zip(configs, quantiles)}


def calibrate_threshold(
    engine: EngineConfig,
    pfa: float = DEFAULT_PFA,
    trials: int = 2000,
    seed: int = 0,
    stream_len: int | None = None,
    noise_variance: float = ch.NOISE_FLOOR_VARIANCE,
    jobs: int = 1,
) -> float:
    """Single-engine convenience wrapper around calibrate_thresholds."""
    table = calibrate_thresholds(
        [engine], pfa=pfa, trials=trials, seed=seed, stream_len=stream_len,
        noise_variance=noise_variance, jobs=jobs,
    )
    return next(iter(table.values()))


# ---------------------------------------------------------------------------
# Missed-detection probability sweep.
# ---------------------------------------------------------------------------

def wilson_ci(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class PmdPoint:
    engine_key: str
    kind: str
    num_clusters: int | None
    oversample: int
    snr_db: float
    trials: int
    misses: int
    pmd: float
    ci_lo: float
    ci_hi: float


def _trial_scenario(rng, snr_db, taps, fading, cfo_ppm, doppler, sym_len):
    hf = int(round(NATIVE_SAMPLE_RATE_HZ * ch.HALF_FRAME_SEC))
    max_delay = max(d for d, _ in taps)
    theta = int(rng.integers(0, hf - sym_len - max_delay + 1))
    return ChannelScenario(
        taps=taps,
        fading=fading,
        snr_db=snr_db,
        cfo_ppm=cfo_ppm,
        doppler_hz=doppler,
        timing_offset=theta,
        seed=int(rng.integers(0, 2**63)),
    )


def _pmd_chunk(start, stop, payload):
    (configs, thresholds, snr_db, taps, fading, cfo_ppm, doppler,
     root, base_seed) = payload
    batch = _cached_batch(configs)
    tx = add_cyclic_prefix(pss_time_domain(root, 128))
    misses = np.zeros(len(configs), dtype=np.int64)
    for t in range(start, stop):
        rng = np.random.default_rng(base_seed + t)
        scen = _trial_scenario(rng, snr_db, taps, fading, cfo_ppm, doppler,
                               len(tx.samples))
        stream = embed_pss_in_halfframe(tx, scen)
        peaks = batch.peaks(stream.samples)
        for i, engine in enumerate(batch.engines):
            if not _score(peaks[i], engine, thresholds[i], stream):
                misses[i] += 1
    return misses


def pmd_experiment(
    engines,
    snr_grid_db,
    trials: int,
    base_seed: int = 0,
    thresholds: dict[str, float] | None = None,
    pfa: float = DEFAULT_PFA,
    calibration_trials: int = 2000,
    taps=((0, 0.0),),
    fading: str = "static",
    cfo_ppm: float = 0.0,
    doppler_hz: float = 0.0,
    root: int = 25,
    jobs: int = 1,
    verbose: bool = False,
) -> list[PmdPoint]:
    """Missed-detection probability over an SNR grid.

    Every trial draws its own timing offset and noise, embeds the PSS
    of ``root`` in one native half frame, and runs all engines on the
    same stream (the comparisons are paired).  A detection counts only
    if it is correct: above threshold, right root, timing within
    tolerance.  Thresholds are calibrated here unless supplied.
    """
    configs = list(engines)
    if thresholds is None:
        thresholds = calibrate_thresholds(
            configs, pfa=pfa, trials=calibration_trials,
            seed=base_seed + CALIBRATION_SEED_STRIDE, jobs=jobs,
        )
    lam = [thresholds[c.key] for c in configs]

    points = []
    for p, snr_db in enumerate(snr_grid_db):
        point_seed = base_seed + (p + 1) * POINT_SEED_STRIDE
        payload = (tuple(configs), tuple(lam), float(snr_db), tuple(taps),
                   fading, cfo_ppm, doppler_hz, root, point_seed)
        misses = sum(_chunked(_pmd_chunk, trials, jobs, payload))
        for c, m in zip(configs, misses):
            lo, hi = wilson_ci(int(m), trials)
            points.append(PmdPoint(
                engine_key=c.key, kind=c.kind, num_clusters=c.num_clusters,
                oversample=c.oversample, snr_db=float(snr_db), trials=trials,
                misses=int(m), pmd=m / trials, ci_lo=lo, ci_hi=hi,
            ))
        if verbose:
            line = "  ".join(
                f"{c.key}={m / trials:.4f}" for c, m in zip(configs, misses)
            )
            print(f"snr {snr_db:+.1f} dB: {line}", flush=True)
    return points


def pmd_crossing_db(points, engine_key: str, level: float = 0.1) -> float:
    """SNR where an engine's Pmd curve crosses ``level``, by linear
    interpolation between the bracketing grid points."""
    series = sorted(
        (p.snr_db, p.pmd) for p in points if p.engine_key == engine_key
    )
    if len(series) < 2:
        raise ValueError(f"need at least two points for {engine_key}")
    for (s0, p0), (s1, p1) in zip(series, series[1:]):
        if (p0 - level) * (p1 - level) <= 0 and p0 != p1:
            return s0 + (s1 - s0) * (p0 - level) / (p0 - p1)
    raise ValueError(f"{engine_key}: no grid interval brackets Pmd={level}")


# ---------------------------------------------------------------------------
# Acquisition time runs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcquisitionResult:
    engine_key: str
    trial: int
    half_frames: int
    time_ms: float
    censored: bool


def _acq_chunk(start, stop, payload):
    (configs, thresholds, snr_db, taps, fading, cfo_ppm, doppler,
     root, base_seed, max_hf) = payload
    batch = _cached_batch(configs)
    tx = add_cyclic_prefix(pss_time_domain(root, 128))
    hf = int(round(NATIVE_SAMPLE_RATE_HZ * ch.HALF_FRAME_SEC))
    rows = []
    for t in range(start, stop):
        rng = np.random.default_rng(base_seed + t)
        scen = _trial_scenario(rng, snr_db, taps, fading, cfo_ppm, doppler,
                               len(tx.samples))
        done = [0] * len(configs)

        if fading == "rayleigh_jakes":
            # One continuous stream per trial keeps the Doppler process
            # correlated across half frames.
            full = embed_pss_in_halfframe(tx, scen, frame_count=max_hf)

            def frame(i):
                return dataclasses.replace(
                    full, samples=full.samples[i * hf: (i + 1) * hf],
                    pss_starts=full.pss_starts[:1],
                )
        else:
            def frame(i):
                if i == 0:
                    return embed_pss_in_halfframe(tx, scen)
                # Rebuilt from the given taps: renormalizing the already
                # normalized powers can move them by an ulp.
                fresh = dataclasses.replace(
                    scen, taps=taps, seed=int(rng.integers(0, 2**63))
                )
                return embed_pss_in_halfframe(tx, fresh)

        for i in range(max_hf):
            if all(done):
                break
            stream = frame(i)
            peaks = batch.peaks(stream.samples)
            for e, engine in enumerate(batch.engines):
                if not done[e] and _score(peaks[e], engine, thresholds[e], stream):
                    done[e] = i + 1
        for e, config in enumerate(configs):
            frames = done[e] if done[e] else max_hf
            rows.append(AcquisitionResult(
                engine_key=config.key, trial=t, half_frames=frames,
                time_ms=frames * ch.HALF_FRAME_SEC * 1e3,
                censored=not done[e],
            ))
    return rows


def acquisition_experiment(
    engines,
    trials: int,
    base_seed: int = 0,
    snr_db: float = -5.0,
    cfo_ppm: float = 5.0,
    taps=None,
    fading: str = "rayleigh_block",
    doppler_hz: float = 0.0,
    max_half_frames: int = 200,
    thresholds: dict[str, float] | None = None,
    pfa: float = DEFAULT_PFA,
    calibration_trials: int = 2000,
    root: int = 25,
    jobs: int = 1,
) -> list[AcquisitionResult]:
    """Half frames needed until the first correct detection.

    Each trial fixes one timing offset, then plays half frames through
    fresh fading draws until every engine has acquired or the cap is
    reached (censored trials keep the cap as their time).  All engines
    see the same streams, so acquisition times are paired.
    """
    configs = list(engines)
    taps = tuple(taps) if taps is not None else ch.merge_taps(ch.tu6_profile())
    if fading == "rayleigh_jakes" and doppler_hz <= 0:
        raise ValueError("rayleigh_jakes fading needs doppler_hz > 0")
    if max_half_frames < 1:
        raise ValueError("max_half_frames must be at least 1")
    if thresholds is None:
        thresholds = calibrate_thresholds(
            configs, pfa=pfa, trials=calibration_trials,
            seed=base_seed + CALIBRATION_SEED_STRIDE, jobs=jobs,
        )
    lam = [thresholds[c.key] for c in configs]
    payload = (tuple(configs), tuple(lam), float(snr_db), taps, fading,
               cfo_ppm, doppler_hz, root, base_seed, max_half_frames)
    chunks = _chunked(_acq_chunk, trials, jobs, payload)
    rows: list[AcquisitionResult] = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows


def acquisition_cdf(results, max_half_frames: int = 200):
    """Per-engine CDF rows (engine_key, time_ms, cdf) on the 5 ms grid."""
    keys = sorted({r.engine_key for r in results})
    rows = []
    for key in keys:
        times = np.array([
            r.time_ms if not r.censored else np.inf
            for r in results if r.engine_key == key
        ])
        n = len(times)
        for i in range(1, max_half_frames + 1):
            t_ms = i * ch.HALF_FRAME_SEC * 1e3
            rows.append((key, t_ms, float(np.count_nonzero(times <= t_ms) / n)))
    return rows


def median_time_ci(results, engine_key: str, z: float = WILSON_Z):
    """Median acquisition time with an order-statistic confidence band.

    Censored trials enter as +inf, so a median landing on a censored
    value signals that more than half the trials never acquired.
    Returns (median_ms, lo_ms, hi_ms).
    """
    times = np.sort(np.array([
        r.time_ms if not r.censored else np.inf
        for r in results if r.engine_key == engine_key
    ]))
    n = len(times)
    if n == 0:
        raise ValueError(f"no results for engine {engine_key}")
    median = float(np.median(times))
    half = z * math.sqrt(n) / 2.0
    lo_rank = max(0, int(math.floor(n / 2.0 - half)))
    hi_rank = min(n - 1, int(math.ceil(n / 2.0 + half)))
    return median, float(times[lo_rank]), float(times[hi_rank])


# ---------------------------------------------------------------------------
# Shared trial-chunking machinery.  Workers rebuild engines from their
# configs; a per-process cache keeps that cost to one build per config
# set.
# ---------------------------------------------------------------------------

_BATCH_CACHE: dict[tuple[EngineConfig, ...], BatchEvaluator] = {}


def _cached_batch(configs) -> BatchEvaluator:
    key = tuple(configs)
    batch = _BATCH_CACHE.get(key)
    if batch is None:
        batch = BatchEvaluator(key)
        _BATCH_CACHE[key] = batch
    return batch


def _chunk_runner(args):
    fn, start, stop, payload = args
    return fn(start, stop, payload)


def _chunked(fn, trials, jobs, payload):
    """Run fn(start, stop, payload) over [0, trials) in bounded workers.

    Results come back in chunk order, and every trial derives its
    randomness from its own index, so the output is identical for any
    job count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    jobs = max(1, int(jobs))
    if jobs == 1:
        return [fn(0, trials, payload)]
    chunk = max(1, math.ceil(trials / (4 * jobs)))
    spans = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(
            _chunk_runner, [(fn, s, e, payload) for s, e in spans]
        ))
