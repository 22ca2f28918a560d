"""Acceptance gate for the detector package.

Each test checks one shipping criterion and records a single PASS/FAIL
line with the measured numbers (shown in the terminal summary, or live
with ``pytest -s``).  The statistical criteria run seeded Monte Carlo
at full scale, so this file takes a few minutes on one core; the unit
suites elsewhere cover the same code at small scale.
"""

import json
import time

import numpy as np
import pytest

from conftest import record_criterion
from pssdet import (
    BatchEvaluator,
    EngineConfig,
    acquisition_cdf,
    acquisition_experiment,
    bench_ops,
    calibrate_thresholds,
    cluster_correlate,
    conjugate_table,
    kmeans_cluster,
    median_time_ci,
    mf_correlate,
    mf_correlate_optimized,
    pmd_crossing_db,
    pmd_experiment,
    pss_time_domain,
)
from pssdet.channel import NOISE_FLOOR_VARIANCE
from pssdet.cli import main

SEED = 20260819

ALL5 = (
    EngineConfig("mf_opt", oversample=1),
    EngineConfig("mf_opt", oversample=2),
    EngineConfig("cluster", num_clusters=6),
    EngineConfig("cluster", num_clusters=8),
    EngineConfig("cluster", num_clusters=16),
)

PMD_ENGINES = (ALL5[0], ALL5[1], ALL5[3])
PMD_GRID = (-9.0, -8.0, -7.0, -5.0, -4.0, -3.0, -2.0)
ACQ_ENGINES = (ALL5[1], ALL5[4], ALL5[3], ALL5[2])


def noise_halfframe(rng, length=9600):
    z = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return np.sqrt(NOISE_FLOOR_VARIANCE / 2.0) * z


@pytest.fixture(scope="module")
def thresholds():
    return calibrate_thresholds(ALL5, pfa=0.1, trials=4000, seed=SEED)


# ---------------------------------------------------------------------------

def test_criterion_1_full_cluster_count_recovers_matched_filter():
    t25 = kmeans_cluster(pss_time_domain(25, 128).body, 128, root=25)
    t29 = kmeans_cluster(pss_time_domain(29, 128).body, 128, root=29)
    tables = (t25, t29, conjugate_table(t29))
    waveforms = tuple(pss_time_domain(u, 128) for u in (25, 29, 34))
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        buf = noise_halfframe(rng, 128)
        for table, w in zip(tables, waveforms):
            quant = cluster_correlate(buf, table, "circular")
            exact = mf_correlate(buf, w, "circular")
            err = np.max(np.abs(quant - exact))
            worst = max(worst, err / np.max(exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 1: K=N cluster correlator "
        f"equals the matched filter on 100 buffers x 3 roots "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s)"
    )
    assert ok


def test_criterion_2_folded_filter_is_exact():
    waveforms = tuple(pss_time_domain(u, 128) for u in (25, 29, 34))
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        buf = noise_halfframe(rng, 400)
        folded = mf_correlate_optimized(buf, waveforms, "sliding")
        for trace, w in zip(folded, waveforms):
            exact = mf_correlate(buf, w, "sliding")
            err = np.max(np.abs(trace - exact))
            worst = max(worst, err / np.max(exact))
    ok = worst <= 1e-12
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 2: symmetry-folded filter "
        f"equals the brute-force filter on 100 buffers (worst rel err "
        f"{worst:.2e})"
    )
    assert ok


def test_criterion_3_per_sample_operation_counts():
    expected = [
        (EngineConfig("mf_brute", oversample=1), 64, 63.0),
        (EngineConfig("mf_brute", oversample=2), 128, 127.0),
        (EngineConfig("mf_opt", oversample=1), 33, 63.5),
        (EngineConfig("mf_opt", oversample=2), 65, 127.5),
        (EngineConfig("cluster", oversample=2, num_clusters=6), 6, 127.0),
        (EngineConfig("cluster", oversample=2, num_clusters=8), 8, 127.0),
        (EngineConfig("cluster", oversample=2, num_clusters=16), 16, 127.0),
        (EngineConfig("cluster", oversample=1, num_clusters=8), 8, 63.0),
    ]
    rows = []
    ok = True
    for config, cm, ca in expected:
        row = bench_ops(config)
        ok &= row["cm_per_sample"] == cm and row["ca_per_sample"] == ca
        rows.append(f"{row['engine']}/os{row['oversampling']}"
                    f"{'/k' + str(row['K']) if row['K'] else ''}="
                    f"{row['cm_per_sample']}cm")
    moves = bench_ops(EngineConfig("cluster", oversample=2, num_clusters=8),
                      architecture="shift_register")["data_moves"]
    ok &= moves == 128
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 3: per-sample op counts "
        f"({', '.join(rows)}; shift register moves {moves}/sample)"
    )
    assert ok


def test_criterion_4_clustered_autocorrelation_margin():
    # Frozen from the converged tables; sidelobes at circular lag
    # distance >= 2 from the peak, peak required at lag 0.
    frozen = {
        (8, 25): 20.3466, (8, 29): 16.9154, (8, 34): 16.9154,
        (16, 25): 18.3301, (16, 29): 18.9746, (16, 34): 18.9746,
    }
    ok = True
    report = []
    for k in (8, 16):
        t25 = kmeans_cluster(pss_time_domain(25, 128).body, k, root=25)
        t29 = kmeans_cluster(pss_time_domain(29, 128).body, k, root=29)
        for u, table in ((25, t25), (29, t29), (34, conjugate_table(t29))):
            body = pss_time_domain(u, 128).body
            v = cluster_correlate(body, table, "circular")
            dist = np.minimum(np.arange(128), 128 - np.arange(128))
            ratio = v[0] / v[dist >= 2].max()
            ok &= int(np.argmax(v)) == 0
            ok &= ratio >= 4.0
            ok &= abs(ratio - frozen[(k, u)]) <= 1e-3 * frozen[(k, u)]
            report.append(f"K{k}/u{u}={ratio:.1f}")
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 4: clustered template "
        f"peak-to-sidelobe ratio >= 4 ({', '.join(report)})"
    )
    assert ok


def test_criterion_5_false_alarm_rate_on_fresh_noise(thresholds):
    batch = BatchEvaluator(ALL5)
    rng = np.random.default_rng(SEED + 5)
    trials = 10_000
    hits = np.zeros(len(ALL5))
    for _ in range(trials):
        peaks = batch.peaks(noise_halfframe(rng))
        for i, cfg in enumerate(ALL5):
            hits[i] += peaks[i][0] > thresholds[cfg.key]
    pfa = hits / trials
    ok = bool(np.all(np.abs(pfa - 0.1) <= 0.02))
    detail = ", ".join(f"{c.key}={p:.4f}" for c, p in zip(ALL5, pfa))
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 5: measured Pfa within "
        f"0.1 +- 0.02 on {trials} noise-only half frames ({detail})"
    )
    assert ok


def test_criterion_6_detection_snr_gaps(thresholds):
    trials = 5000
    points = pmd_experiment(
        PMD_ENGINES, PMD_GRID, trials=trials, base_seed=SEED,
        thresholds=thresholds,
    )
    assert all(p.trials >= 5000 for p in points)
    cross = {c.key: pmd_crossing_db(points, c.key) for c in PMD_ENGINES}
    gain_over_halfrate = cross["mf_opt_os1"] - cross["cluster_k8_os2"]
    loss_vs_fullrate = abs(cross["cluster_k8_os2"] - cross["mf_opt_os2"])
    ok = gain_over_halfrate >= 1.5 and loss_vs_fullrate <= 0.5
    near = [p for p in points if p.engine_key == "cluster_k8_os2"
            and p.snr_db in (-8.0, -7.0)]
    cis = "; ".join(f"Pmd({p.snr_db:+.0f} dB)={p.pmd:.4f} "
                    f"CI[{p.ci_lo:.4f},{p.ci_hi:.4f}]" for p in near)
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 6: Pmd=0.1 crossings at "
        f"{trials} trials/point: K=8 2x beats 1x MF by "
        f"{gain_over_halfrate:.2f} dB (>= 1.5) and sits "
        f"{loss_vs_fullrate:.2f} dB from 2x MF (<= 0.5); "
        f"K=8 bracketing {cis}"
    )
    assert ok


def test_criterion_7_acquisition_time_closeness(thresholds):
    trials = 500
    runs = {}
    for label, ppm, base in (("5ppm", 5.0, SEED), ("0.1ppm", 0.1, SEED + 1000)):
        runs[label] = acquisition_experiment(
            ACQ_ENGINES, trials=trials, base_seed=base, snr_db=-5.0,
            cfo_ppm=ppm, fading="rayleigh_block", max_half_frames=200,
            thresholds=thresholds,
        )
    ok = True
    report = []
    for label, results in runs.items():
        stats = {c.key: median_time_ci(results, c.key) for c in ACQ_ENGINES}
        # CDFs never decrease.
        rows = acquisition_cdf(results)
        for c in ACQ_ENGINES:
            cdf = [r[2] for r in rows if r[0] == c.key]
            ok &= cdf == sorted(cdf)
        # Fewer clusters never acquire faster, up to CI overlap.
        order = ["mf_opt_os2", "cluster_k16_os2", "cluster_k8_os2",
                 "cluster_k6_os2"]
        for better, worse in zip(order, order[1:]):
            (mb, lb, hb), (mw, lw, hw) = stats[better], stats[worse]
            ok &= mb <= mw or (lb <= hw and lw <= hb)
        report.append(label + ": " + ", ".join(
            f"{key.replace('_os2', '')}={stats[key][0]:.1f}ms"
            f"[{stats[key][1]:.0f},{stats[key][2]:.0f}]" for key in order))
    med_16 = median_time_ci(runs["0.1ppm"], "cluster_k16_os2")[0]
    med_mf = median_time_ci(runs["0.1ppm"], "mf_opt_os2")[0]
    gap = abs(med_16 - med_mf)
    ok &= gap <= 0.5
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 7: K=16 median acquisition "
        f"within 0.5 ms of the MF at 0.1 ppm (gap {gap:.2f} ms) and "
        f"cluster-count ordering holds at both offsets "
        f"({'; '.join(report)}; {trials} trials each)"
    )
    assert ok


def test_criterion_8_clustering_convergence():
    ok = True
    report = []
    for k in (6, 8, 16):
        for u in (25, 29):
            table = kmeans_cluster(pss_time_domain(u, 128).body, k, root=u)
            hist = np.array(table.wcss_history)
            ok &= bool(np.all(np.diff(hist) <= 1e-12))
            ok &= table.converged
            # Fixed point: means are member means, assignments are the
            # distance argmin against those means.
            body = pss_time_domain(u, 128).body
            for c in range(k):
                members = body[table.assignment == c]
                ok &= bool(np.abs(members.mean() - table.means[c]) < 1e-12)
            d = np.abs(body[:, None] - table.means[None, :]) ** 2
            ok &= bool(np.array_equal(np.argmin(d, axis=1), table.assignment))
            report.append(f"K{k}/u{u}:{len(hist)}it")
    exact = kmeans_cluster(pss_time_domain(25, 128).body, 128, root=25)
    ok &= exact.final_wcss == 0.0
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 8: clustering distortion "
        f"non-increasing to a fixed point ({', '.join(report)}); "
        f"K=N distortion {exact.final_wcss}"
    )
    assert ok


def test_criterion_9_manifest_reruns_are_byte_identical(tmp_path, capsys):
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps({"mf_opt_os2": 6.0, "cluster_k8_os2": 5.5}))
    first = tmp_path / "first"
    assert main(["pmd", "--engines", "mf_opt:os2,cluster:k8:os2",
                 "--snr", "-8,-6", "--trials", "50", "--seed", "31",
                 "--thresholds", str(lam), "--output-dir", str(first)]) == 0
    assert main(["acq", "--engines", "mf_opt:os2", "--snr", "0",
                 "--ppm", "5", "--trials", "10", "--max-half-frames", "8",
                 "--profile", "tu6", "--fading", "rayleigh_block",
                 "--seed", "31", "--thresholds", str(lam),
                 "--output-dir", str(first / "acq")]) == 0

    reruns = []
    for sub, name in (("", "pmd"), ("acq", "acq")):
        manifest = json.loads((first / sub / "manifest.json").read_text())
        second = tmp_path / "second" / (sub or "pmd")
        manifest["output_dir"] = str(second)
        cfg = tmp_path / f"rerun_{name}.json"
        cfg.write_text(json.dumps(manifest))
        assert main([name, "--config", str(cfg)]) == 0
        reruns.append((first / sub, second))
    capsys.readouterr()

    ok = True
    compared = []
    for src, dst in reruns:
        for f in sorted(p.name for p in src.glob("*.csv")):
            ok &= (src / f).read_bytes() == (dst / f).read_bytes()
            compared.append(f)
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion 9: rerunning from the "
        f"written manifests reproduced {', '.join(compared)} byte for byte"
    )
    assert ok
