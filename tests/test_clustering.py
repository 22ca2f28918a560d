"""Clustering invariants: Lloyd behavior, conjugation, serialization.

WCSS oracle values were computed by running the deterministic
clustering once and freezing the results; the random-partition
baseline is recomputed inline from a fixed seed.
"""

import json

import numpy as np
import pytest

from pssdet import (
    conjugate_table,
    kmeans_cluster,
    pss_time_domain,
    save_table,
)
from pssdet.clustering import TABLE_SCHEMA_VERSION, _wcss, root_tables

# Deterministic farthest-point Lloyd results on the 128-sample bodies.
# Frozen from a reference run; regenerating must reproduce them.
EXPECTED_WCSS = {
    (25, 6): 0.075581397,
    (25, 8): 0.041833116,
    (25, 16): 0.016106038,
    (29, 6): 0.060717344,
    (29, 8): 0.048075167,
    (29, 16): 0.014625481,
}


def _body(u, n=128):
    return pss_time_domain(u, n).body


# ---------------------------------------------------------------------------
# Lloyd iteration behavior.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(("u", "k"), sorted(EXPECTED_WCSS))
def test_wwcss_reaches_frozen_value(u, k):
    t = kmeans_cluster(_body(u), k, root=u)
    assert t.converged
    assert abs(t.final_wcss - EXPECTED_WCSS[(u, k)]) < 1e-8


@pytest.mark.parametrize(("u", "k"), sorted(EXPECTED_WCSS))
def test_wwcss_monotone_non_increasing(u, k):
    t = kmeans_cluster(_body(u), k, root=u)
    hist = t.wcss_history
    assert len(hist) >= 1
    for prev, cur in zip(hist, hist[1:]):
        assert cur <= prev + 1e-15
    assert t.final_wcss == hist[-1]


@pytest.mark.parametrize(("u", "k"), sorted(EXPECTED_WCSS))
def test_converged_tables_are_fixed_points(u, k):
    body = _body(u)
    t = kmeans_cluster(body, k, root=u)
    # Re-assigning against the final means must not move anything, and
    # the means must already be the member averages.
    d2 = np.abs(body[:, None] - t.means[None, :]) ** 2
    np.testing.assert_array_equal(np.argmin(d2, axis=1), t.assignment)
    for j in range(k):
        np.testing.assert_allclose(
            t.means[j], body[t.assignment == j].mean(), atol=1e-14
        )


def test_k1_collapses_to_sample_mean():
    body = _body(25)
    t = kmeans_cluster(body, 1, root=25)
    np.testing.assert_allclose(t.means[0], body.mean(), atol=1e-15)
    # Zero-mean template, so the objective equals the body energy.
    assert abs(t.final_wcss - 62 / 128) < 1e-12
    assert t.sizes.tolist() == [128]


def test_k_equals_n_is_exact():
    body = _body(25)
    t = kmeans_cluster(body, 128, root=25)
    assert t.converged
    assert t.final_wcss == 0.0
    np.testing.assert_array_equal(np.sort(t.assignment), np.arange(128))
    np.testing.assert_allclose(t.quantized_template(), body, atol=1e-15)


def test_beats_random_partitions():
    # 200 random K=16 partitions with centroid-optimal means; the
    # deterministic run must beat the best of them decisively (the
    # frozen reference margin against 1000 partitions is 23x).
    body = _body(25)
    k = 16
    rng = np.random.default_rng(2024)
    best = np.inf
    for _ in range(200):
        while True:
            a = rng.integers(0, k, size=len(body))
            if len(np.unique(a)) == k:
                break
        means = np.asarray([body[a == j].mean() for j in range(k)])
        best = min(best, _wcss(body, means, a))
    t = kmeans_cluster(body, k, root=25)
    assert t.final_wcss < 0.25 * best


def test_clustering_is_deterministic():
    a = kmeans_cluster(_body(29), 8, root=29)
    b = kmeans_cluster(_body(29), 8, root=29)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.final_wcss == b.final_wcss


def test_symmetric_samples_share_clusters():
    # s(n) = s(N - n), and identical values cannot be split by argmin.
    t = kmeans_cluster(_body(25), 8, root=25)
    n = np.arange(1, 128)
    np.testing.assert_array_equal(t.assignment[n], t.assignment[128 - n])


def test_lut_groups_members_in_order():
    t = kmeans_cluster(_body(29), 6, root=29)
    starts = t.cluster_starts()
    assert starts[0] == 0
    for j in range(6):
        stop = starts[j + 1] if j < 5 else 128
        members = t.lut[starts[j]: stop]
        assert np.all(np.diff(members) > 0)
        np.testing.assert_array_equal(t.assignment[members], j)
    np.testing.assert_array_equal(np.sort(t.lut), np.arange(128))


def test_validation_errors():
    body = _body(25)
    with pytest.raises(ValueError):
        kmeans_cluster(body, 0)
    with pytest.raises(ValueError):
        kmeans_cluster(body, 129)
    with pytest.raises(ValueError):
        kmeans_cluster(body.reshape(2, 64), 4)
    with pytest.raises(ValueError):
        kmeans_cluster(body, 4, root=26)


# ---------------------------------------------------------------------------
# Conjugate table derivation.
# ---------------------------------------------------------------------------

def test_conjugate_table_matches_direct_clustering():
    # Conjugating the samples changes no distance, so clustering the
    # root-34 body directly must give exactly the conjugated table.
    t29 = kmeans_cluster(_body(29), 8, root=29)
    t34 = conjugate_table(t29)
    assert t34.root == 34
    direct = kmeans_cluster(np.conj(_body(29)), 8, root=34)
    np.testing.assert_array_equal(t34.means, direct.means)
    np.testing.assert_array_equal(t34.assignment, direct.assignment)

    np.testing.assert_array_equal(t34.means, np.conj(t29.means))
    np.testing.assert_array_equal(t34.assignment, t29.assignment)
    np.testing.assert_array_equal(t34.lut, t29.lut)
    assert t34.final_wcss == t29.final_wcss
    # Round trip back.
    back = conjugate_table(t34)
    assert back.root == 29
    np.testing.assert_array_equal(back.means, t29.means)


@pytest.mark.parametrize("size_n", [64, 128])
def test_root_tables_in_pss_root_order(size_n):
    t25, t29, t34 = root_tables(size_n, 8)
    assert (t25.root, t29.root, t34.root) == (25, 29, 34)
    assert all(t.size_n == size_n and t.num_clusters == 8
               for t in (t25, t29, t34))
    body = pss_time_domain(25, size_n).body
    np.testing.assert_array_equal(t25.means,
                                  kmeans_cluster(body, 8, root=25).means)
    np.testing.assert_array_equal(t34.means, np.conj(t29.means))
    np.testing.assert_array_equal(t34.lut, t29.lut)


def test_conjugate_table_rejects_unpaired_roots():
    t25 = kmeans_cluster(_body(25), 8, root=25)
    with pytest.raises(ValueError):
        conjugate_table(t25)
    anon = kmeans_cluster(_body(25), 8)
    with pytest.raises(ValueError):
        conjugate_table(anon)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    t = kmeans_cluster(_body(25), 8, root=25)
    path = tmp_path / "table.json"
    save_table(t, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == TABLE_SCHEMA_VERSION == 3
    assert "weights" not in doc
    assert doc["root_u"] == 25
    assert doc["N"] == 128 and doc["K"] == 8
    means = np.array([complex(re, im) for re, im in doc["means"]])
    np.testing.assert_array_equal(means, t.means)
    np.testing.assert_array_equal(doc["assignment"], t.assignment)
    np.testing.assert_array_equal(doc["lut_pi"], t.lut)
    np.testing.assert_array_equal(doc["sizes"], t.sizes)
    assert doc["final_wcss"] == t.final_wcss
    assert doc["converged"] == t.converged


def test_save_is_rewritable_byte_identical(tmp_path):
    t = kmeans_cluster(_body(29), 16, root=29)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_table(t, a)
    save_table(t, b)
    assert a.read_bytes() == b.read_bytes()
