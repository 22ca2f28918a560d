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
therefore evaluates all engines of one rate as one block correlation
per stream, by one FFT of the stream's own length against every
coefficient column at once (:class:`BatchEvaluator`, also behind
:func:`detect`).  FFT rounding differs from that of a direct sum of
products by about 1e-15 of the largest metric.  The per-engine
operation counts are closed-form formulas in
:func:`pssdet.correlator.bench_ops`, and the reference correlators
there (brute, symmetry-folded with conjugate-root sharing, or K-term
clustered accumulation) are verified against these correlations in
the tests; rerunning them per trial would only slow the Monte Carlo
down without changing any decision.

Thresholds are constant-false-alarm: the (1 - Pfa) quantile of the
per-attempt maximum metric over noise-only half frames, stored per
engine configuration.  Experiments keep the noise floor at unit
variance and move the signal amplitude instead, so one calibration
serves every SNR point.

Both experiments run one trial loop, which finds each engine's first
correctly detecting half frame up to a cap.  Pmd is the share of
trials with none when the cap is one half frame.  A correct detection
is the engine's global maximum, on the true root, within the tolerance
window around the true start and above the threshold, so the loop
transforms only the columns that can decide one:
  - A gate first reads the true root's metric over that window by
    direct inner products (:meth:`BatchEvaluator.window_peaks`, at most
    19 windows per rate).  An engine is in play when it is still
    searching and its window maximum exceeds threshold * (1 -
    GATE_MARGIN); GATE_MARGIN = 1e-9 is six orders wider than the
    FFT/direct rounding gap, so no engine that would score is left out.
    With no engine in play the half frame gets no pass at all.
  - On a channel with a nonzero CFO, which moves the correlation peak
    (51 native samples early at 5 ppm), a local check comes next: one
    2N-point FFT per rate of the 2N samples from N/2 before the true
    start gives the true root's metric at every lag within N/2 of it,
    and an engine whose largest lag there outside the window beats the
    largest inside by more than GATE_MARGIN is dropped, since its
    global maximum cannot lie in the window.  A rate group left with
    no engine skips its forward FFT of the stream.
  - Stage 1 inverse-transforms the true root's column of each engine
    still in play, one batch per rate: the engine can only detect if
    that column's earliest maximum is above the threshold and within
    the window.
  - Stage 2 transforms the other two roots' columns of just those
    engines: the engine detects unless one of them is larger.  Exact
    ties go to the lowest root, then the earliest lag, as in the full
    pass, and a row transforms bit-identically alone or in a batch, so
    the decisions and every output equal those of a full pass.
:func:`detect` and calibration read every column of every engine;
``BatchEvaluator.metric_values`` (over ``_RateGroup.values``) remains
the full view of the metric that the tests check everything against.

Each experiment builds one ChannelScenario per SNR point, which
validates it before any calibration; every trial is a copy of it made
with dataclasses.replace, differing only in timing offset and seed.
The trial loop synthesizes each half frame it visits by index: its
burst region (channel.burst_region), which the gate reads, and only
when the gate passes the rest around it, so no sample is drawn twice.

Every generator of a run comes from one rule:
default_rng(SeedSequence(seed, spawn_key=(purpose, ...))).
Calibration trial t uses (CALIBRATION, t).  Trial t of experiment
point p uses (TRIALS, p, t) for its timing offset; its half frame i
draws its block gains and then the noise of its burst region from
(TRIALS, p, t, HALF_FRAME, i) and the noise of every other sample from
(TRIALS, p, t, HALF_FRAME, i, REST), and its Jakes rays come from
(TRIALS, p, t, JAKES).  Both half-frame keys depend only on the trial
and the index, so a gated-out half frame, which never builds its REST
key, leaves every other draw as it is.  Distinct seeds or
keys give independent streams, as SeedSequence.spawn children do, so
runs at nearby seeds share no trials, and each trial depends only on
its own key, whatever the job count.  Seeds must be non-negative.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .channel import (
    HALF_FRAME_LEN,
    ChannelScenario,
    RxStream,
    burst_plan,
    burst_region,
    embed_pss_in_halfframe,
)
from .clustering import root_tables
from .correlator import EngineConfig, distinct_engines
from .pss import PSS_ROOTS, add_cyclic_prefix, pss_time_domain

# Every Monte Carlo trial transmits this root.
TRIAL_ROOT = 25

# Acceptance window around the true body start, in engine-grid samples:
# one cyclic prefix (CP_LENGTH of the engine's FFT size) either side.
DETECT_TOLERANCE = {1: 4.0, 2: 9.0}

# Relative margin of the trial loop's gate (see the module docstring):
# FFT and direct metrics differ by about 1e-15 of the largest metric.
GATE_MARGIN = 1e-9

# Spawn-key purposes of a run's seed (see the module docstring).
CALIBRATION, TRIALS = 0, 1
DEFAULT_PFA = 0.1
WILSON_Z = 1.96
# The Pmd level whose SNR crossing the engines are compared at.
PMD_CROSSING_LEVEL = 0.1


def engine_coefficients(config: EngineConfig) -> np.ndarray:
    """N x 3 conjugated template coefficients, one column per root in
    PSS_ROOTS: a metric is |windows @ coef|^2."""
    n = config.size_n
    if config.kind == "cluster":
        templates = [t.quantized_template()
                     for t in root_tables(n, config.num_clusters)]
    else:
        templates = [pss_time_domain(u, n).body for u in PSS_ROOTS]
    return np.conj(np.stack(templates, axis=1))


class _RateGroup:
    """The engines at one oversample factor, correlated by one FFT of
    the stream's own length L.

    Each coefficient column, zero-padded to L, correlates circularly
    with the stream; that equals the sliding correlation at every lag
    0 ... L - N, because no window there wraps.  The stream goes
    through one FFT.  The full pass (``evaluate``) puts all column
    products through one inverse FFT; the trial loop's pass
    (``detections``) puts the products of the columns it selects by
    (engine, root) into the leading rows of the same buffer and
    inverse-transforms those, in at most two batches.  The column
    spectra and buffers are kept for the last stream length seen, so
    steady runs allocate nothing per stream.  The trial loop's local
    check (``_local_check``) correlates just 2N samples the same way,
    against the column spectra at 2N points, built on its first use.
    """

    def __init__(self, config, idx, coef):
        self.decim, self.size_n, self.idx = config.decimation, config.size_n, idx
        self.tolerance = DETECT_TOLERANCE[config.oversample]
        self.coef = coef
        self.bands = {}
        self.length = None

    def _resize(self, length):
        self.length = length
        # Columns x L, so every transform runs over a contiguous axis.
        self.spectrum = np.ascontiguousarray(
            np.conj(np.fft.fft(np.conj(self.coef.T), n=length)))
        self.products = np.empty(self.spectrum.shape, dtype=complex)
        # Columns x lags, over the real parts of the products: column
        # 3j + r is engine j's root r, so each engine's three rows are
        # one block.
        self.metric = self.products.real[:, :length - self.size_n + 1]

    def _forward(self, native_samples):
        """The spectrum of one native-rate stream on the engine grid."""
        x = np.asarray(native_samples)[::self.decim]
        if len(x) < self.size_n:
            raise ValueError(
                f"buffer of {len(x)} samples is shorter than N = {self.size_n}")
        if len(x) != self.length:
            self._resize(len(x))
        return np.fft.fft(x)

    def _inverse(self, rows):
        """Inverse-transform the leading ``rows`` products in one batch;
        return their metric rows (a view of the buffer)."""
        head = self.products[:rows]
        np.fft.ifft(head, axis=-1, out=head)
        # |.|^2 of the valid lags: square real and imaginary parts in
        # place, then add each pair into the real part.
        parts = head.view(float)[:, :2 * self.metric.shape[1]]
        np.square(parts, out=parts)
        metric = self.metric[:rows]
        np.add(metric, parts[:, 1::2], out=metric)
        return metric

    def _columns(self, spectrum, columns):
        """The metric of the given coefficient columns, in that order:
        each product lands in a leading row of the buffer, so no
        spectrum-sized copy is made."""
        for k, c in enumerate(columns):
            np.multiply(spectrum, self.spectrum[c], out=self.products[k])
        return self._inverse(len(columns))

    def evaluate(self, native_samples):
        """Fill the metric buffer for one native-rate stream."""
        np.multiply(self._forward(native_samples), self.spectrum, out=self.products)
        self._inverse(len(self.products))

    def detections(self, native_samples, start, root_idx, thresholds,
                   local_check=False):
        """Per engine j: ``peak(j)`` if that detects root ``root_idx`` at
        native body start ``start`` (above ``thresholds[j]``, within the
        tolerance), else None.  Engines whose threshold is None are
        skipped.

        With ``local_check``, ``_local_check`` first drops the engines
        whose metric within N/2 lags of the start already peaks outside
        the window; with no engine left the stream is not transformed.
        Stage 1 transforms root ``root_idx``'s column of each engine
        left; stage 2 transforms the other two columns only of the
        engines whose stage-1 peak (earliest argmax) is above threshold
        and in the window.  Such an engine detects unless another
        root's maximum beats its peak; a tie goes to the lower root, as
        in ``peak``.  Rows transform bit-identically alone or in a
        batch, so each decision is the full pass's.
        """
        out = [None] * len(self.idx)
        asked = [j for j, lam in enumerate(thresholds) if lam is not None]
        if local_check and asked:
            asked = self._local_check(native_samples, start, root_idx, asked)
        if not asked:
            return out
        spectrum = self._forward(native_samples)
        metric = self._columns(spectrum, [3 * j + root_idx for j in asked])
        lags = metric.argmax(axis=1)
        values = metric.max(axis=1)
        lam = np.array([thresholds[j] for j in asked])
        near = np.abs(start / self.decim - lags) <= self.tolerance
        passed = np.flatnonzero((values > lam) & near)
        if not len(passed):
            return out
        others = [r for r in range(3) if r != root_idx]
        rivals = self._columns(spectrum, [3 * asked[k] + r for k in passed
                                          for r in others])
        rivals = rivals.max(axis=1).reshape(len(passed), len(others))
        peak = values[passed, None]
        wins = np.where(np.array(others) < root_idx, rivals < peak, rivals <= peak)
        for k in passed[wins.all(axis=1)]:
            out[asked[k]] = float(values[k]), int(lags[k]), root_idx
        return out

    @functools.cached_property
    def _local_spectrum(self):
        """Every coefficient column's spectrum at 2N points."""
        return np.conj(np.fft.fft(np.conj(self.coef.T), n=2 * self.size_n))

    def _local_check(self, native_samples, start, root_idx, asked):
        """The engines of ``asked`` whose root ``root_idx`` metric near
        native body start ``start`` does not rule out a detection there.

        The 2N engine-grid samples from N/2 before the start (clipped to
        the stream) go through one 2N-point FFT; against each engine's
        column spectrum at 2N they give its metric at the N + 1 lags
        those samples hold in full, every lag within N/2 of the start.
        An engine is dropped when the largest of those lags outside the
        tolerance window, times (1 - GATE_MARGIN), beats the largest
        inside: the column's global maximum then lies outside the
        window, so the engine cannot detect.  GATE_MARGIN is six orders
        wider than the FFT rounding gap, so ties and near-ties stay for
        stage 1 to decide.
        """
        x = np.asarray(native_samples)[::self.decim]
        n = self.size_n
        if len(x) < 2 * n:
            return asked
        center = start / self.decim
        lo = min(max(math.floor(center) - n // 2, 0), len(x) - 2 * n)
        columns = self._local_spectrum[[3 * j + root_idx for j in asked]]
        corr = np.fft.ifft(np.fft.fft(x[lo:lo + 2 * n]) * columns, axis=-1)
        metric = np.abs(corr[:, :n + 1]) ** 2
        near = np.abs(center - np.arange(lo, lo + n + 1)) <= self.tolerance
        inside = metric[:, near].max(axis=1, initial=-np.inf)
        outside = metric[:, ~near].max(axis=1)
        return [j for j, out, ins in zip(asked, outside, inside)
                if not out * (1.0 - GATE_MARGIN) > ins]

    def values(self, j):
        """Engine j's metric per (lag, root), as a new array."""
        return self.metric[3 * j:3 * j + 3].T.copy()

    def _band(self, root_idx):
        """One root's column of every engine, shifted down one row per
        lag of a tolerance window: the samples from a window's first lag
        on, times this matrix, give every engine's inner product at each
        of its lags (column lag * engines + engine)."""
        engines = len(self.idx)
        lags = int(2 * self.tolerance) + 1
        band = np.zeros((self.size_n + lags - 1, lags, engines), dtype=complex)
        for k in range(lags):
            band[k:k + self.size_n, k] = self.coef[:, root_idx::3]
        return band.reshape(self.size_n + lags - 1, lags * engines)

    def window_peak(self, native_samples, start, root_idx):
        """Per engine: the largest metric of one root over the lags
        within the detection tolerance of native position ``start``,
        from direct inner products; -inf if no such lag is valid."""
        x = np.asarray(native_samples)[::self.decim]
        center = start / self.decim
        lo = max(math.ceil(center - self.tolerance), 0)
        hi = min(math.floor(center + self.tolerance), len(x) - self.size_n)
        lags = hi - lo + 1
        if lags < 1:
            return np.full(len(self.idx), -np.inf)
        if root_idx not in self.bands:
            self.bands[root_idx] = self._band(root_idx)
        band = self.bands[root_idx][:lags + self.size_n - 1, :lags * len(self.idx)]
        magnitudes = np.abs(x[lo:hi + self.size_n] @ band).reshape(lags, -1)
        return magnitudes.max(axis=0) ** 2

    def peak(self, j):
        """Engine j's (metric, lag, root index) at its maximum.  Exact
        ties go to the lowest root index, then the earliest lag."""
        block = self.metric[3 * j:3 * j + 3]
        root_idx, lag = divmod(int(np.argmax(block)), block.shape[1])
        return float(block[root_idx, lag]), lag, root_idx


class BatchEvaluator:
    """Metric evaluation for several engines at once.

    Engines at the same oversample factor share one decimated stream,
    so their coefficient columns share one pass per stream: one forward
    FFT of the whole stream, one product with the columns' spectra at
    that length (computed on the first stream of each length) and one
    inverse FFT.  ``peaks`` with thresholds runs the trial loop's
    two-stage pass instead (``_RateGroup.detections``).
    The values equal the sliding-window inner products up to FFT
    rounding, about 1e-15 of the largest metric.  ``metric_values`` is
    the tests' full view of the metric; no run reads it.  The evaluator
    reuses its buffers from stream to stream, so one instance must not
    be shared between threads; ``metric_values`` returns arrays the
    caller owns.
    """

    def __init__(self, configs):
        self.configs = tuple(configs)
        self._groups = []
        for decim in (1, 2):
            idx = [i for i, c in enumerate(self.configs) if c.decimation == decim]
            if idx:
                coef = np.concatenate([engine_coefficients(self.configs[i])
                                       for i in idx], axis=1)
                self._groups.append(_RateGroup(self.configs[idx[0]], idx, coef))

    def _per_engine(self, native_samples, read):
        out = [None] * len(self.configs)
        for group in self._groups:
            group.evaluate(native_samples)
            for j, i in enumerate(group.idx):
                out[i] = read(group, j)
        return out

    def metric_values(self, native_samples: np.ndarray):
        """Per engine: metric values per (lag on the engine grid, root)."""
        return self._per_engine(native_samples, _RateGroup.values)

    def peaks(self, native_samples: np.ndarray, *, start=None, root_idx=0,
              thresholds=None, local_check=False):
        """Per engine: (metric, lag on the engine grid, root index).

        With per-engine ``thresholds`` only the engines whose threshold
        is not None are evaluated, and each gets its peak if that
        detects root ``root_idx`` at native body start ``start`` (as
        ``_score`` rules), else None (``_RateGroup.detections``).
        ``local_check`` first rules out, by one 2N-point correlation per
        rate, the engines whose metric peaks outside the tolerance
        window within N/2 lags of the start; the trial loop asks for it
        when the channel has a CFO.  A rate group with no engine left is
        skipped, forward FFT included.
        """
        if thresholds is None:
            return self._per_engine(native_samples, _RateGroup.peak)
        out = [None] * len(self.configs)
        for group in self._groups:
            found = group.detections(native_samples, start, root_idx,
                                     [thresholds[i] for i in group.idx],
                                     local_check)
            for i, peak in zip(group.idx, found):
                out[i] = peak
        return out

    def window_peaks(self, native_samples: np.ndarray, start, root_idx: int):
        """Per engine: the largest metric of root ``root_idx`` over the
        lags within DETECT_TOLERANCE of native position ``start`` (on
        the engine grid, clipped to the valid lags), as an array.

        These are direct inner products, one vector-matrix product per
        rate group (the window's samples times the root's coefficients
        shifted once per lag, built on first use), so they cost a few
        windows, not a pass over the stream; they equal
        ``metric_values`` at those lags up to FFT rounding.
        """
        out = np.empty(len(self.configs))
        for group in self._groups:
            out[group.idx] = group.window_peak(native_samples, start, root_idx)
        return out


def _score(peak, config: EngineConfig, threshold: float, root: int, start) -> bool:
    """Whether ``peak`` detects ``root`` at native body start ``start``."""
    metric, lag, root_idx = peak
    return (metric > threshold and PSS_ROOTS[root_idx] == root
            and abs(start / config.decimation - lag) <= DETECT_TOLERANCE[config.oversample])


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
    if math.isnan(threshold):
        raise ValueError(f"NaN threshold for {config.key}")
    peak = _cached_batch((config,)).peaks(stream.samples)[0]
    metric, lag, root_idx = peak

    correct = None
    if stream.true_root is not None and len(stream.pss_starts):
        correct = any(_score(peak, config, threshold, stream.true_root, s)
                      for s in stream.pss_starts)

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

def _check_seed(seed):
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _calibrate_chunk(start, stop, *, configs, seed):
    batch = _cached_batch(configs)
    out = np.empty((stop - start, len(configs)))
    for t in range(start, stop):
        rng = ch.keyed_rng(seed, CALIBRATION, t)
        peaks = batch.peaks(ch.floor_noise(rng, HALF_FRAME_LEN))
        out[t - start] = [p[0] for p in peaks]
    return out


def calibrate_thresholds(
    engines,
    pfa: float = DEFAULT_PFA,
    trials: int = 2000,
    seed: int = 0,
    jobs: int = 1,
) -> dict[str, float]:
    """Empirical (1 - pfa) quantiles of the noise-only maximum metric.

    Each trial synthesizes one native-rate half frame of noise at the
    experiments' floor (NOISE_FLOOR_VARIANCE), shared by every engine;
    each engine keeps its maximum metric over lags and roots, and its
    threshold is the linear-interpolated quantile of those maxima.
    Trial t draws from the key (CALIBRATION, t) below ``seed``, which
    must be non-negative.  Each engine may appear only once.
    """
    configs = distinct_engines(engines)
    _check_seed(seed)
    if not (0.0 < pfa < 1.0):
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    if trials < 100:
        raise ValueError("calibration needs at least 100 trials")
    chunk = functools.partial(_calibrate_chunk, configs=configs, seed=seed)
    maxima = np.concatenate(_chunked(chunk, trials, jobs))
    quantiles = np.quantile(maxima, 1.0 - pfa, axis=0)
    return {c.key: float(q) for c, q in zip(configs, quantiles)}


def calibrate_threshold(
    engine: EngineConfig,
    pfa: float = DEFAULT_PFA,
    trials: int = 2000,
    seed: int = 0,
    jobs: int = 1,
) -> float:
    """Single-engine convenience wrapper around calibrate_thresholds."""
    table = calibrate_thresholds([engine], pfa=pfa, trials=trials, seed=seed,
                                 jobs=jobs)
    return next(iter(table.values()))


# ---------------------------------------------------------------------------
# The trial loop both experiments run.
# ---------------------------------------------------------------------------

def _trial_scenario(trial: np.random.SeedSequence, point: ChannelScenario, sym_len):
    """The trial's copy of ``point``: its seed, and a timing offset
    drawn from that seed's own generator."""
    max_delay = int(point.delays.max())
    rng = np.random.default_rng(trial)
    theta = int(rng.integers(0, HALF_FRAME_LEN - sym_len - max_delay + 1))
    return dataclasses.replace(point, timing_offset=theta, seed=trial)


def _trial_chunk(start, stop, *, configs, thresholds, point, seed, p, max_hf):
    """Per trial and engine: the 1-based half frame of the first correct
    detection, or 0 if none came within max_hf half frames.

    The loop visits half frames in order and synthesizes each one's
    burst region (``burst_region``), from its own key.  A gate reads
    the true root's metric over each engine's tolerance window around
    the true start, which lies inside that region
    (``BatchEvaluator.window_peaks``).  A correct detection is a global
    maximum on the true root, inside that window and above the
    threshold, so an engine whose window maximum is at most
    ``threshold * (1 - GATE_MARGIN)`` cannot score here; when that holds
    for every engine still searching, the pass is skipped and the
    rest of the half frame is never drawn.  Otherwise
    ``embed_pss_in_halfframe`` completes the half frame around the
    region the gate read, drawing the rest from its own key, so the
    random draws do not depend on what is scored, and the two-stage
    pass of ``BatchEvaluator.peaks`` decides the engines still in play,
    after its local check when the channel has a nonzero CFO.  The
    trial's ``burst_plan`` is built once and serves every half frame.
    """
    batch = _cached_batch(configs)
    tx = add_cyclic_prefix(pss_time_domain(TRIAL_ROOT, 128))
    root_idx = PSS_ROOTS.index(TRIAL_ROOT)
    gates = [lam * (1.0 - GATE_MARGIN) for lam in thresholds]
    shifted = point.cfo_hz != 0.0
    first = np.zeros((stop - start, len(configs)), dtype=np.int64)
    for t in range(start, stop):
        trial = np.random.SeedSequence(seed, spawn_key=(TRIALS, p, t))
        scen = _trial_scenario(trial, point, len(tx.samples))
        body = scen.timing_offset + tx.cp_len
        plan = burst_plan(tx, scen)
        done = [0] * len(configs)
        for i in range(max_hf):
            if all(done):
                break
            lo, region = burst_region(tx, scen, half_frame=i, plan=plan)
            near = batch.window_peaks(region, body - lo, root_idx)
            asked = [None if d or v <= g else lam
                     for d, v, g, lam in zip(done, near, gates, thresholds)]
            if all(lam is None for lam in asked):
                continue
            peaks = batch.peaks(embed_pss_in_halfframe(
                tx, scen, half_frame=i, region=(lo, region)).samples,
                start=body, root_idx=root_idx, thresholds=asked,
                local_check=shifted)
            for e, peak in enumerate(peaks):
                if peak is not None:
                    done[e] = i + 1
        first[t - start] = done
    return first


def _experiment_thresholds(configs, point, thresholds, trials, pfa,
                           calibration_trials, seed, jobs):
    """Per-engine thresholds, calibrated here at ``seed`` unless
    supplied.  Callers build (and so validate) their channels first;
    ``point`` is one, whose tap delays must leave room for the burst."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    burst = add_cyclic_prefix(pss_time_domain(TRIAL_ROOT, 128)).samples
    limit = HALF_FRAME_LEN - len(burst)
    if point.delays[-1] > limit:
        raise ValueError(f"largest tap delay {point.delays[-1]} leaves no room for "
                         f"the burst in a half frame (at most {limit})")
    _check_seed(seed)
    if thresholds is None:
        thresholds = calibrate_thresholds(
            configs, pfa=pfa, trials=calibration_trials, seed=seed, jobs=jobs,
        )
    lam = tuple(thresholds[c.key] for c in configs)
    nan = [c.key for c, x in zip(configs, lam) if math.isnan(x)]
    if nan:
        raise ValueError(f"NaN threshold for {', '.join(nan)}")
    return lam


# ---------------------------------------------------------------------------
# Missed-detection probability sweep.
# ---------------------------------------------------------------------------

def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at WILSON_Z."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class PmdPoint:
    engine_key: str
    snr_db: float
    trials: int
    misses: int
    pmd: float
    ci_lo: float
    ci_hi: float


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
    jobs: int = 1,
    verbose: bool = False,
) -> list[PmdPoint]:
    """Missed-detection probability over an SNR grid.

    Pmd is acquisition capped at one half frame: a trial misses when an
    engine has no correct detection (above threshold, right root,
    timing within tolerance) in it.  All engines run on the same
    stream, so the comparisons are paired.  Trial t of point p draws
    from the key (TRIALS, p, t) below base_seed.  Each engine may appear
    only once.
    """
    configs = distinct_engines(engines)
    scenarios = [
        ChannelScenario(taps=taps, fading=fading, snr_db=float(s),
                        cfo_ppm=cfo_ppm, doppler_hz=doppler_hz)
        for s in snr_grid_db
    ]
    if not scenarios:
        raise ValueError("the SNR grid is empty")
    lam = _experiment_thresholds(configs, scenarios[0], thresholds, trials, pfa,
                                 calibration_trials, base_seed, jobs)
    points = []
    for p, scenario in enumerate(scenarios):
        snr_db = scenario.snr_db
        chunk = functools.partial(_trial_chunk, configs=configs, thresholds=lam,
                                  point=scenario, seed=base_seed, p=p, max_hf=1)
        first = np.concatenate(_chunked(chunk, trials, jobs))
        misses = np.count_nonzero(first == 0, axis=0)
        for c, m in zip(configs, misses):
            lo, hi = wilson_ci(int(m), trials)
            points.append(PmdPoint(
                engine_key=c.key, snr_db=snr_db, trials=trials, misses=int(m),
                pmd=m / trials, ci_lo=lo, ci_hi=hi,
            ))
        if verbose:
            line = "  ".join(
                f"{c.key}={m / trials:.4f}" for c, m in zip(configs, misses)
            )
            print(f"snr {snr_db:+.1f} dB: {line}", flush=True)
    return points


def pmd_crossing_db(points, engine_key: str) -> float:
    """SNR where an engine's Pmd curve crosses PMD_CROSSING_LEVEL, by
    linear interpolation between the bracketing grid points."""
    level = PMD_CROSSING_LEVEL
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


def acquisition_experiment(
    engines,
    trials: int,
    base_seed: int = 0,
    snr_db: float = -5.0,
    cfo_ppm: float = 5.0,
    taps=ch.TU6_TAPS,
    fading: str = "rayleigh_block",
    doppler_hz: float = 0.0,
    max_half_frames: int = 200,
    thresholds: dict[str, float] | None = None,
    pfa: float = DEFAULT_PFA,
    calibration_trials: int = 2000,
    jobs: int = 1,
) -> list[AcquisitionResult]:
    """Half frames needed until the first correct detection.

    Each trial fixes one timing offset, then plays half frames through
    fresh fading draws until every engine has acquired or the cap is
    reached (censored trials keep the cap as their time).  All engines
    see the same streams, so acquisition times are paired.  The run is
    one experiment point: trial t draws from the key (TRIALS, 0, t)
    below base_seed.  Each engine may appear only once.
    """
    configs = distinct_engines(engines)
    scenario = ChannelScenario(taps=taps, fading=fading, snr_db=float(snr_db),
                               cfo_ppm=cfo_ppm, doppler_hz=doppler_hz)
    if max_half_frames < 1:
        raise ValueError("max_half_frames must be at least 1")
    lam = _experiment_thresholds(configs, scenario, thresholds, trials, pfa,
                                 calibration_trials, base_seed, jobs)
    chunk = functools.partial(_trial_chunk, configs=configs, thresholds=lam,
                              point=scenario, seed=base_seed, p=0,
                              max_hf=max_half_frames)
    first = np.concatenate(_chunked(chunk, trials, jobs))
    rows = []
    for t, row in enumerate(first.tolist()):
        for config, acquired in zip(configs, row):
            frames = acquired or max_half_frames
            rows.append(AcquisitionResult(
                engine_key=config.key, trial=t, half_frames=frames,
                time_ms=frames * ch.HALF_FRAME_SEC * 1e3,
                censored=not acquired,
            ))
    return rows


def _sorted_times(results, engine_key: str) -> np.ndarray:
    """One engine's acquisition times in ms, sorted, censored as +inf."""
    return np.sort([r.time_ms if not r.censored else np.inf
                    for r in results if r.engine_key == engine_key])


def acquisition_cdf(results, max_half_frames: int = 200):
    """Per-engine CDF rows (engine_key, time_ms, cdf) on the 5 ms grid."""
    grid = [i * ch.HALF_FRAME_SEC * 1e3 for i in range(1, max_half_frames + 1)]
    rows = []
    for key in sorted({r.engine_key for r in results}):
        times = _sorted_times(results, key)
        counts = np.searchsorted(times, grid, side="right").tolist()
        rows.extend((key, t_ms, c / len(times)) for t_ms, c in zip(grid, counts))
    return rows


def median_time_ci(results, engine_key: str):
    """Median acquisition time with an order-statistic confidence band.

    Censored trials enter as +inf, so a median landing on a censored
    value signals that more than half the trials never acquired.
    Returns (median_ms, lo_ms, hi_ms).
    """
    times = _sorted_times(results, engine_key)
    n = len(times)
    if n == 0:
        raise ValueError(f"no results for engine {engine_key}")
    median = float(np.median(times))
    half = WILSON_Z * math.sqrt(n) / 2.0
    lo_rank = max(0, int(math.floor(n / 2.0 - half)))
    hi_rank = min(n - 1, int(math.ceil(n / 2.0 + half)))
    return median, float(times[lo_rank]), float(times[hi_rank])


# ---------------------------------------------------------------------------
# Shared trial-chunking machinery.  A chunk function is one of the
# chunk workers above with its run's parameters bound by
# functools.partial, called as fn(start, stop).  Workers rebuild engines
# from their configs; a per-process cache keeps that cost to one build
# per config set.
# ---------------------------------------------------------------------------

@functools.cache
def _cached_batch(configs: tuple[EngineConfig, ...]) -> BatchEvaluator:
    return BatchEvaluator(configs)


def _chunked(fn, trials, jobs):
    """Run fn(start, stop) over [0, trials), as a list of chunk results.

    One job runs the whole range here.  More jobs split it into about
    4 * jobs chunks over a process pool of min(jobs, chunks, CPUs)
    workers; the pool module is imported only then.  Results come back
    in chunk order, and every trial derives its randomness from its own
    index, so the output is identical for any job count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return [fn(0, trials)]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, math.ceil(trials / (4 * jobs)))
    starts = range(0, trials, chunk)
    stops = [min(s + chunk, trials) for s in starts]
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, starts, stops))
