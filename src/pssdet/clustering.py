"""Lloyd clustering of PSS samples into constellation tables.

The complex time-domain PSS takes many distinct values, but most of
them huddle together in the complex plane.  Replacing each sample by
its cluster mean turns the matched filter's N complex multiplications
into K, one per cluster, at the price of a small self-interference
term.  The clustering itself is plain K-means (Lloyd), made fully
deterministic so that tables regenerate identically: greedy
farthest-point seeding, lowest-index tie-breaks in both seeding and
assignment, and a fixed empty-cluster repair rule.

Only roots 25 and 29 need to be clustered.  Root 34 is the complex
conjugate of root 29, so its table is derived by conjugate_table and
shares the partition exactly.  root_tables applies that rule and is
the one source of the tables every engine and ``pssdet cluster`` use.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .pss import CONJUGATE_ROOT, PSS_ROOTS, pss_time_domain, write_text

TABLE_SCHEMA_VERSION = 3
DEFAULT_MAX_ITERS = 100


@dataclass(frozen=True)
class ClusterTable:
    """Converged clustering of an N-sample template into K clusters.

    ``lut`` is the steering permutation: the member positions of
    cluster 0 in ascending order, then cluster 1, and so on, so entries
    at offsets sum(sizes[:k]) .. sum(sizes[:k+1])-1 list the template
    indices n with assignment[n] == k.  ``wcss_history`` records the
    within-cluster sum of squares after each Lloyd iteration;
    it is diagnostic only and is not serialized.
    """

    root: int | None
    size_n: int
    num_clusters: int
    means: np.ndarray
    sizes: np.ndarray
    assignment: np.ndarray
    lut: np.ndarray
    final_wcss: float
    converged: bool
    wcss_history: tuple = field(default=(), compare=False)

    def cluster_starts(self) -> np.ndarray:
        """Offsets of each cluster's first entry inside ``lut``."""
        return np.concatenate([[0], np.cumsum(self.sizes[:-1])]).astype(np.int64)

    def quantized_template(self) -> np.ndarray:
        """The template with every sample replaced by its cluster mean."""
        return self.means[self.assignment]


def _wcss(samples, means, assignment) -> float:
    return float(np.sum(np.abs(samples - means[assignment]) ** 2))


def _seed_farthest_point(samples, k) -> np.ndarray:
    """Greedy deterministic seeding.

    Mean 0 is sample index 0.  Each further mean is the not-yet-chosen
    sample with the largest squared distance to its nearest
    chosen mean, ties resolved toward the lowest sample index.
    """
    n = len(samples)
    chosen = [0]
    dmin = np.abs(samples - samples[0]) ** 2
    taken = np.zeros(n, dtype=bool)
    taken[0] = True
    for _ in range(1, k):
        cand = np.flatnonzero(~taken)
        pick = cand[np.argmax(dmin[cand])]
        chosen.append(int(pick))
        taken[pick] = True
        dmin = np.minimum(dmin, np.abs(samples - samples[pick]) ** 2)
    return samples[np.asarray(chosen)].copy()


def _assign(samples, means) -> np.ndarray:
    # argmin picks the lowest cluster index when several tie.
    return np.argmin(np.abs(samples[:, None] - means[None, :]) ** 2, axis=1)


def _repair_empty(samples, means, assignment, k) -> np.ndarray:
    """Move one sample into each empty cluster.

    The donor is the sample with the largest distance to its
    current mean among clusters that still hold at least two members
    (lowest sample index on ties).  Processed in ascending cluster
    index so the outcome does not depend on dict ordering.
    """
    assignment = assignment.copy()
    for k_empty in range(k):
        if np.any(assignment == k_empty):
            continue
        sizes = np.bincount(assignment, minlength=k)
        eligible = np.flatnonzero(sizes[assignment] >= 2)
        d = np.abs(samples[eligible] - means[assignment[eligible]]) ** 2
        assignment[eligible[np.argmax(d)]] = k_empty
    return assignment


def _lloyd(samples, initial_means):
    k = len(initial_means)
    means = initial_means
    assignment = np.full(len(samples), -1, dtype=np.int64)
    history = []
    converged = False
    for _ in range(DEFAULT_MAX_ITERS):
        new = _assign(samples, means)
        new = _repair_empty(samples, means, new, k)
        if np.array_equal(new, assignment):
            converged = True
            break
        assignment = new
        for j in range(k):
            means[j] = np.mean(samples[assignment == j])
        history.append(_wcss(samples, means, assignment))
    return means, assignment, history, converged


def kmeans_cluster(
    samples: np.ndarray,
    num_clusters: int,
    root: int | None = None,
) -> ClusterTable:
    """Cluster complex samples by K-means.

    Parameters
    ----------
    samples : complex array
        The N template samples to cluster.
    num_clusters : int
        K, with 1 <= K <= N.  The objective is
        sum_k sum_{n in cluster k} |s_n - mu_k|^2, minimized by Lloyd
        iterations from deterministic farthest-point seeding.
    root : int, optional
        PSS root index recorded in the table, for bookkeeping.

    Returns
    -------
    ClusterTable
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = len(samples)
    if not (1 <= num_clusters <= n):
        raise ValueError(f"num_clusters must lie in [1, {n}], got {num_clusters}")
    if root is not None and root not in PSS_ROOTS:
        raise ValueError(f"root must be one of {PSS_ROOTS} or None, got {root}")

    means, assignment, history, converged = _lloyd(
        samples, _seed_farthest_point(samples, num_clusters))

    sizes = np.bincount(assignment, minlength=num_clusters).astype(np.int64)
    lut = np.concatenate(
        [np.flatnonzero(assignment == j) for j in range(num_clusters)]
    ).astype(np.int64)
    table = ClusterTable(
        root=root,
        size_n=n,
        num_clusters=num_clusters,
        means=means,
        sizes=sizes,
        assignment=assignment.astype(np.int64),
        lut=lut,
        final_wcss=history[-1],
        converged=converged,
        wcss_history=tuple(history),
    )
    for arr in (table.means, table.sizes, table.assignment, table.lut):
        arr.setflags(write=False)
    return table


def conjugate_table(table: ClusterTable) -> ClusterTable:
    """Derive the conjugate root's table without re-clustering.

    Conjugating every sample conjugates the means and leaves distances,
    and therefore the partition and the WCSS, exactly unchanged.  Only
    the root pair (29, 34) is wired; root 25 has no conjugate partner
    in the PSS set and is rejected.
    """
    if table.root not in CONJUGATE_ROOT:
        raise ValueError(
            f"no conjugate partner for root {table.root}; only "
            f"{sorted(CONJUGATE_ROOT)} pair up"
        )
    means = np.conj(table.means)
    means.setflags(write=False)
    return dataclasses.replace(table, root=CONJUGATE_ROOT[table.root],
                               means=means)


def root_tables(size_n: int, k: int) -> tuple[ClusterTable, ...]:
    """The K-cluster tables of every PSS root at grid size N, in PSS_ROOTS
    order: roots 25 and 29 clustered, root 34 conjugated from root 29."""
    t25, t29 = (kmeans_cluster(pss_time_domain(u, size_n).body, k, root=u)
                for u in (25, 29))
    return t25, t29, conjugate_table(t29)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def save_table(table: ClusterTable, path) -> None:
    """Write a ClusterTable as JSON, atomically (see pss.write_text)."""
    doc = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "root_u": table.root,
        "N": int(table.size_n),
        "K": int(table.num_clusters),
        "means": [[float(m.real), float(m.imag)] for m in table.means],
        "sizes": [int(s) for s in table.sizes],
        "lut_pi": [int(i) for i in table.lut],
        "assignment": [int(a) for a in table.assignment],
        "final_wcss": float(table.final_wcss),
        "converged": bool(table.converged),
    }
    write_text(path, json.dumps(doc, indent=2) + "\n")
