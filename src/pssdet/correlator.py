"""PSS correlation engines, their configurations and operation counts.

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

The reference correlators below compute each engine's metric the way
its hardware would, and return only the metric.  The operation counts
are the hardware's per-lag formulas, which do not depend on the input
or on how numpy vectorizes the arithmetic, so bench_ops states them in
closed form instead of counting them on a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clustering import ClusterTable
from .pss import PssWaveform

ENGINE_KINDS = ("mf_brute", "mf_opt", "cluster")
LAG_MODES = ("circular", "sliding")
ARCHITECTURES = ("lut_steering", "shift_register")


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
            if self.num_clusters > self.size_n:
                raise ValueError(f"num_clusters must lie in [1, {self.size_n}], "
                                 f"got {self.num_clusters}")
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

    Returns the metric per lag.
    """
    w = _windows(r, s.size_n, lag_mode)
    return _magnitude_sq(w @ np.conj(s.body))


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

    Returns (metric_25, metric_29, metric_34).
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
    # shared real parts and are not counted as extra multiplications.
    coef = np.stack([np.conj(b25), np.conj(b29), b29], axis=1)
    return tuple(_magnitude_sq(folded @ coef).T)


# ---------------------------------------------------------------------------
# Cluster correlator.
# ---------------------------------------------------------------------------

def cluster_correlate(r: np.ndarray, table: ClusterTable, lag_mode: str = "sliding"):
    """Approximate matched filter from a cluster table.

    Per lag, the N input samples are accumulated into K per-cluster
    sums through the LUT, which reads the buffer in place, and the sums
    are combined with the conjugate cluster means.

    Returns the metric per lag.
    """
    w = _windows(r, table.size_n, lag_mode)
    sums = np.add.reduceat(w[:, table.lut], table.cluster_starts(), axis=1)
    return _magnitude_sq(sums @ np.conj(table.means))


# ---------------------------------------------------------------------------
# Complexity reporting.
# ---------------------------------------------------------------------------

def bench_ops(config: EngineConfig, architecture: str = "lut_steering") -> dict:
    """Per-incoming-sample operation counts of one engine.

    Each count is the engine's per-lag formula.  Multiplications are
    per distinct correlator: per root for the brute filter and the
    cluster correlator, and per conjugate-shared pair for the folded
    filter.  The magnitude-squared is not counted for any engine.

    * brute filter: N multiplications and N - 1 additions,
    * folded filter: N/2 + 1 multiplications; the fold takes N/2 - 1
      additions and each of the three roots N/2 to sum its products,
      2N - 1 per lag for the pair, so (2N - 1)/2, the only fractional
      count,
    * cluster correlator: K multiplications, and N - K additions into
      the cluster sums plus K - 1 to combine them.

    ``architecture`` is how samples reach a cluster correlator's
    accumulators: ``lut_steering`` reads the buffer in place,
    ``shift_register`` shifts every sample one slot per lag, N data
    moves.  The matched filters move no data either way.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(
            f"architecture must be one of {ARCHITECTURES}, got {architecture!r}"
        )
    n = config.size_n
    if config.kind == "mf_brute":
        cm, ca = n, n - 1
    elif config.kind == "mf_opt":
        cm, ca = n // 2 + 1, (2 * n - 1) / 2
    else:
        cm, ca = config.num_clusters, n - 1
    shifted = config.kind == "cluster" and architecture == "shift_register"
    return {
        "engine": config.kind,
        "N": n,
        "K": config.num_clusters,
        "oversampling": config.oversample,
        "cm_per_sample": cm,
        "ca_per_sample": ca,
        "data_moves": n if shifted else 0,
    }
