"""PSS correlation engines, their configurations and operation accounting.

An EngineConfig is the one description of a detector engine: its kind,
its rate and, for the cluster correlator, K.  The three kinds produce
the same detection metric y_u(m) = |sum_n r(n+m) conj(s_u(n))|^2 at
very different multiplier budgets per incoming sample:

* brute matched filter: N complex multiplications per root,
* folded matched filter: the symmetry s(n) = s(N-n) pairs the input
  samples before multiplying and the conjugate roots 29/34 share their
  partial products, leaving N/2 + 1 multiplications per distinct
  correlator (33 at N = 64, 65 at N = 128),
* cluster correlator: input samples belonging to one cluster are
  summed first and the K running sums are multiplied by the conjugate
  cluster means, K multiplications per root.

Operation counters are booked per call from the hardware
architecture's per-lag formulas (for example N complex multiplications
per lag for the brute filter) times the lag count, not from how numpy
happens to vectorize the arithmetic; bench_ops checks that they divide
exactly into per-sample counts.  The brute-force tally books each
magnitude-squared as one complex multiplication (and itemizes it again
in real_ops), which reconciles the classical N+1 per-correlation count
with the N multiplier-only count quoted per incoming sample; bench_ops
does that subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clustering import ClusterTable, root_tables
from .pss import PSS_ROOTS, PssWaveform, pss_time_domain

ENGINE_KINDS = ("mf_brute", "mf_opt", "cluster")
LAG_MODES = ("circular", "sliding")
ARCHITECTURES = ("lut_steering", "shift_register")
# Lags bench_ops runs each engine over.  Its counts are normalized per
# lag, so any lag count gives the same rows.
PROBE_LAGS = 256


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

    @property
    def decimation(self) -> int:
        """Native samples per engine sample."""
        return 2 if self.oversample == 1 else 1


def distinct_engines(engines) -> tuple[EngineConfig, ...]:
    """The engines as a tuple; an engine given more than once is an
    error, since results are reported once per engine key."""
    configs = tuple(engines)
    keys = [c.key for c in configs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ValueError(f"engines given more than once: {', '.join(repeated)}")
    return configs


@dataclass
class OpCount:
    """Arithmetic-site counters for one correlator call."""

    complex_mults: int = 0
    complex_adds: int = 0
    real_ops: int = 0
    data_moves: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.complex_mults + other.complex_mults,
            self.complex_adds + other.complex_adds,
            self.real_ops + other.real_ops,
            self.data_moves + other.data_moves,
        )


def _windows(r: np.ndarray, size_n: int, lag_mode: str) -> np.ndarray:
    """Lag-by-lag view of the input: row m holds r(m .. m+N-1).

    Circular mode wraps indices modulo N over the first N samples and
    always yields N lags; sliding mode yields len(r) - N + 1 lags.
    """
    r = np.asarray(r)
    if lag_mode not in LAG_MODES:
        raise ValueError(f"lag_mode must be one of {LAG_MODES}, got {lag_mode!r}")
    if len(r) < size_n:
        raise ValueError(f"buffer of {len(r)} samples is shorter than N = {size_n}")
    if lag_mode == "circular":
        base = r[:size_n]
        idx = (np.arange(size_n)[:, None] + np.arange(size_n)[None, :]) % size_n
        return base[idx]
    return sliding_window_view(r, size_n)


def _magnitude_sq(a: np.ndarray) -> np.ndarray:
    return a.real**2 + a.imag**2


# ---------------------------------------------------------------------------
# Brute-force matched filter.
# ---------------------------------------------------------------------------

def mf_correlate(r: np.ndarray, s: PssWaveform, lag_mode: str = "sliding"):
    """Full matched filter of a buffer against one PSS body.

    Returns (metric per lag, OpCount).  Per lag the counters book N
    complex multiplications for the products, N-1 additions for the
    sum, plus the magnitude-squared as one further complex
    multiplication (itemized again in real_ops).
    """
    body = s.body
    n = s.size_n
    w = _windows(r, n, lag_mode)
    lags = w.shape[0]
    a = w @ np.conj(body)
    values = _magnitude_sq(a)
    ops = OpCount(
        complex_mults=lags * n + lags,
        complex_adds=lags * (n - 1),
        real_ops=lags,
    )
    return values, ops


# ---------------------------------------------------------------------------
# Folded matched filter with conjugate-root sharing.
# ---------------------------------------------------------------------------

def mf_correlate_optimized(r: np.ndarray, waveforms, lag_mode: str = "sliding"):
    """All three root metrics from the symmetry-folded matched filter.

    ``waveforms`` are the PSS waveforms for roots 25, 29 and 34 at one
    grid size, in that order.  Input samples are folded pairwise,
    r(m+n) + r(m+N-n), before any multiplication; n = 0 and n = N/2
    have no fold partner.  Root 34 is served by the root-29 products
    taken without conjugation, so only two distinct correlators pay for
    multiplications: N/2 + 1 each per lag.

    Returns ((metric_25, metric_29, metric_34), OpCount).
    """
    roots = tuple(w.root for w in waveforms)
    if roots != (25, 29, 34):
        raise ValueError(f"expected waveforms for roots (25, 29, 34), got {roots}")
    n = waveforms[0].size_n
    if any(w.size_n != n for w in waveforms):
        raise ValueError("waveforms must share one grid size")
    if n % 2:
        raise ValueError("folding requires an even grid size")
    half = n // 2

    w = _windows(r, n, lag_mode)
    lags = w.shape[0]
    # folded(0) = r(m), folded(n) = r(m+n) + r(m+N-n), folded(N/2) = r(m+N/2)
    folded = np.empty((lags, half + 1), dtype=complex)
    folded[:, 0] = w[:, 0]
    folded[:, 1:half] = w[:, 1:half] + w[:, :half:-1]
    folded[:, half] = w[:, half]

    b25 = waveforms[0].body[: half + 1]
    b29 = waveforms[1].body[: half + 1]
    # conj(s_34) = s_29 exactly, so the third column reuses the root-29
    # coefficients unconjugated: those products come for free from the
    # shared real parts and are not booked as extra multiplications.
    coef = np.stack([np.conj(b25), np.conj(b29), b29], axis=1)
    a = folded @ coef
    values = _magnitude_sq(a)

    ops = OpCount(
        complex_mults=lags * 2 * (half + 1),
        complex_adds=lags * ((half - 1) + 3 * half),
        real_ops=lags * 3,
    )
    return tuple(values.T), ops


# ---------------------------------------------------------------------------
# Cluster correlator.
# ---------------------------------------------------------------------------

def _cluster_sums_row(window: np.ndarray, lut, starts) -> np.ndarray:
    return np.add.reduceat(window[lut], starts)


def _dot_means(sums: np.ndarray, means: np.ndarray) -> np.ndarray:
    # Fixed accumulation order, ascending cluster index.  BLAS is
    # deliberately avoided here so both architectures add bit-identically.
    a = sums[..., 0] * np.conj(means[0])
    for k in range(1, len(means)):
        a = a + sums[..., k] * np.conj(means[k])
    return a


def cluster_correlate(
    r: np.ndarray,
    table: ClusterTable,
    lag_mode: str = "sliding",
    architecture: str = "lut_steering",
):
    """Approximate matched filter from a cluster table.

    Per lag, the N input samples are accumulated into K per-cluster
    sums (members taken in ascending LUT position) and the sums are
    combined with the conjugate cluster means in ascending cluster
    index.  The two architectures differ only in how samples reach the
    accumulators: ``lut_steering`` reads the buffer in place through
    the LUT (no data movement), ``shift_register`` shifts every sample
    one slot per lag (N moves, booked in data_moves).  Their outputs
    are bit-identical because the summation order is fixed.

    Returns (metric per lag, OpCount).
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(
            f"architecture must be one of {ARCHITECTURES}, got {architecture!r}"
        )
    n, k = table.size_n, table.num_clusters
    lut = table.lut
    starts = table.cluster_starts()
    w = _windows(r, n, lag_mode)
    lags = w.shape[0]

    if architecture == "lut_steering":
        sums = np.add.reduceat(w[:, lut], starts, axis=1)
        a = _dot_means(sums, table.means)
    else:
        # One register pass per lag: the window is copied into the
        # register (N data moves), then accumulated exactly as above.
        a = np.empty(lags, dtype=complex)
        for m in range(lags):
            register = np.array(w[m], copy=True)
            sums = _cluster_sums_row(register, lut, starts)
            a[m] = _dot_means(sums, table.means)

    values = _magnitude_sq(a)
    ops = OpCount(
        complex_mults=lags * k,
        complex_adds=lags * ((n - k) + (k - 1)),
        real_ops=lags,
        data_moves=lags * n if architecture == "shift_register" else 0,
    )
    return values, ops


# ---------------------------------------------------------------------------
# Complexity reporting.
# ---------------------------------------------------------------------------

def bench_ops(config: EngineConfig, architecture: str = "lut_steering") -> dict:
    """Measure per-incoming-sample operation counts for one engine.

    The engine runs on a deterministic noise probe and the counters are
    normalized by the lag count.  Multiplications are reported per
    distinct correlator: per root for the brute filter (magnitude
    removed from the tally first) and for the cluster correlator, and
    per conjugate-shared pair for the folded filter.  The divisions
    must come out exact; a remainder means the counters are wrong.
    Only the folded filter's adds, (2N - 1) / 2 per pair, are
    fractional.
    """
    n = config.size_n
    rng = np.random.default_rng(0xBE2C + n)
    probe = rng.standard_normal(n + PROBE_LAGS - 1) + 1j * rng.standard_normal(
        n + PROBE_LAGS - 1
    )
    waveforms = tuple(pss_time_domain(u, n) for u in PSS_ROOTS)
    if config.kind == "mf_brute":
        calls = [mf_correlate(probe, w) for w in waveforms]
    elif config.kind == "mf_opt":
        calls = [mf_correlate_optimized(probe, waveforms)]
    else:
        calls = [cluster_correlate(probe, t, architecture=architecture)
                 for t in root_tables(n, config.num_clusters)]
    total = sum((ops for _, ops in calls), OpCount())
    # Distinct correlators: the folded filter's roots 29 and 34 share one.
    per = PROBE_LAGS * (2 if config.kind == "mf_opt" else 3)

    mults = total.complex_mults
    if config.kind == "mf_brute":
        mults -= total.real_ops  # magnitudes out
    cm, rem = divmod(mults, per)
    moves, rem_moves = divmod(total.data_moves, per)
    ca = total.complex_adds / per
    if rem or rem_moves or not (ca.is_integer() or config.kind == "mf_opt"):
        raise AssertionError(f"op counters not divisible by {per} lags")
    return {
        "engine": config.kind,
        "N": n,
        "K": config.num_clusters,
        "oversampling": config.oversample,
        "cm_per_sample": cm,
        "ca_per_sample": ca if config.kind == "mf_opt" else int(ca),
        "data_moves": moves,
    }
