"""Output checks computed apart from the program.

Every check derives its expectation from a closed form or a property
that holds whatever the implementation: the CFAR union bound, the
binomial spread of an empirical quantile, Wilson intervals, the Marcum
Q function of the matched filter, order-statistic medians and the
geometric law of block fading.  Only the reference templates come from
pssdet (``pss_time_domain``, ``kmeans_cluster``), since their energies
define the bounds.  Each check returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import HALF_FRAME_MS, HALF_FRAME_SAMPLES, PFA, PMD_GRID, engine_tokens

# Per-check false-failure level of the statistical bounds.  Runs make
# thousands of checks, so each must be far stricter than 5%.
ALPHA = 1e-9
Z = 3.0  # Wilson and order-statistic interval width, in sigmas
# Largest systematic gap allowed between the 2x matched filter's Pmd and
# its single-lag closed form.  At 2500 trials per point over -10..-7 dB
# the two agreed within 0.012, inside their sampling error.
CLOSED_FORM_ALLOWANCE = 0.03
ROOTS = (25, 29, 34)
EMBEDDED_ROOT = 25  # pmd and acq embed root 25 by default


# ---------------------------------------------------------------------------
# Engines: program key, template size, lag count, template energy.
# ---------------------------------------------------------------------------

def parse_token(token: str) -> tuple[str, int | None, int]:
    kind, k, os_ = token.split(":")[0], None, 2
    for part in token.split(":")[1:]:
        if part.startswith("k"):
            k = int(part[1:])
        elif part.startswith("os"):
            os_ = int(part[2:])
    return kind, k, os_


def engine_key(token: str) -> str:
    kind, k, os_ = parse_token(token)
    return f"cluster_k{k}_os{os_}" if kind == "cluster" else f"{kind}_os{os_}"


def template_energies(token: str) -> dict[int, float]:
    """Sum of |template|^2 per root: the noise variance at the output."""
    from pssdet.clustering import kmeans_cluster
    from pssdet.pss import pss_time_domain

    kind, k, os_ = parse_token(token)
    n = 64 * os_
    bodies = {u: pss_time_domain(u, n).body for u in ROOTS}
    if kind == "cluster":
        # Root 34 is the conjugate of root 29, so it shares its energy.
        templates = {u: kmeans_cluster(bodies[u], k, root=u).quantized_template()
                     for u in (25, 29)}
        templates[34] = templates[29]
    else:
        templates = bodies
    return {u: float(np.sum(np.abs(t) ** 2)) for u, t in templates.items()}


def lag_count(token: str) -> int:
    _, _, os_ = parse_token(token)
    return HALF_FRAME_SAMPLES // (2 // os_) - 64 * os_ + 1


# ---------------------------------------------------------------------------
# Small statistics, numpy and stdlib only.
# ---------------------------------------------------------------------------

def wilson(successes: int, n: int, z: float = Z) -> tuple[float, float]:
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def binom_sf(k: int, n: int, p: float) -> float:
    """P(Binomial(n, p) >= k)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def _largest_p(k: int, n: int) -> float:
    """Largest p with P(Binomial(n, p) >= k) <= ALPHA, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if binom_sf(k, n, mid) <= ALPHA:
            lo = mid
        else:
            hi = mid
    return lo


def union_bound(token: str, pfa: float = PFA) -> float:
    """E ln(3L / pfa): the threshold whose union-bound false-alarm rate is pfa."""
    return max(template_energies(token).values()) * math.log(3 * lag_count(token) / pfa)


def quantile_bounds(token: str, trials: int, pfa: float = PFA):
    """Interval every calibrated threshold must fall in.

    The per-trial maximum M over 3L lag/root metrics satisfies
    P(M > x) >= exp(-x / E) (one lag alone) and P(M > x) <= 3L exp(-x / E)
    (union bound), E the largest template energy.  The threshold is the
    linear-interpolated (1 - pfa) quantile of ``trials`` maxima, so it
    exceeds x only if at least k_hi maxima do, and falls below x only if
    at least k_lo maxima do; pfa is moved by the binomial allowance that
    makes either event rarer than ALPHA.
    """
    e = max(template_energies(token).values())
    lags = lag_count(token)
    j = math.floor((trials - 1) * (1 - pfa))
    p_hi = _largest_p(trials - j - 1, trials)       # P(M > upper) <= p_hi
    p_lo = 1.0 - _largest_p(j + 1, trials)          # P(M < lower) <= 1 - p_lo
    return e * math.log(1.0 / p_lo), e * math.log(3 * lags / p_hi)


def chi2nc2_cdf(x: float, nc: float) -> float:
    """CDF of the noncentral chi-square with 2 degrees of freedom.

    Poisson mixture: sum_j Pois(j; nc/2) * P(Pois(x/2) >= j + 1), which
    is 1 - Q_1(sqrt(nc), sqrt(x)) in Marcum Q form.
    """
    mu = nc / 2.0
    jmax = int(mu + 20.0 * math.sqrt(mu + 1.0) + 60)
    j = np.arange(jmax + 1)
    lgam = np.array([math.lgamma(i + 1.0) for i in j])
    w = np.exp(j * math.log(mu) - mu - lgam) if mu > 0 else (j == 0).astype(float)
    half = x / 2.0
    pmf = np.exp(j * math.log(half) - half - lgam) if half > 0 else (j == 0).astype(float)
    sf = 1.0 - np.cumsum(pmf)  # P(Pois(x/2) >= j + 1)
    return float(np.clip(np.sum(w * sf), 0.0, 1.0))


def median_band(values: list[float], z: float = Z) -> tuple[float, float, float]:
    """Median and order-statistic confidence band (ranks n/2 -+ z sqrt(n)/2)."""
    v = sorted(values)
    n = len(v)
    half = z * math.sqrt(n) / 2.0
    lo = v[max(0, math.floor(n / 2.0 - half))]
    hi = v[min(n - 1, math.ceil(n / 2.0 + half))]
    return float(np.median(v)), lo, hi


def geometric_median(p: float) -> float:
    """Least m with 1 - (1 - p)^m >= 1/2: the median of a geometric law."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return 1.0
    return float(math.ceil(math.log(0.5) / math.log(1.0 - p) - 1e-12))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# Once per invocation.
# ---------------------------------------------------------------------------

def check_bench_ops(rows: list[dict], engines: str) -> list[str]:
    """Closed-form multiplies per sample: N for the brute filter, N/2 + 1
    per conjugate-shared pair for the folded one, K for clusters."""
    fails = []
    tokens = engine_tokens(engines)
    if len(rows) != len(tokens):
        return [f"bench-ops: {len(rows)} rows for {len(tokens)} engines"]
    for token, row in zip(tokens, rows):
        kind, k, os_ = parse_token(token)
        n = 64 * os_
        want = {"mf_brute": n, "mf_opt": n // 2 + 1, "cluster": k}[kind]
        if row.get("N") != n or row.get("cm_per_sample") != want:
            fails.append(f"bench-ops {token}: N={row.get('N')} "
                         f"cm_per_sample={row.get('cm_per_sample')}, want N={n} cm={want}")
    return fails


def same_files(dir_a: str, dir_b: str, names: tuple[str, ...], what: str) -> list[str]:
    fails = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                fails.append(f"{what}: {name} differs between {dir_a} and {dir_b}")
    return fails


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def check_calibrate(round_dirs, engines: str, trials: int) -> list[str]:
    bounds = {t: quantile_bounds(t, trials) for t in engine_tokens(engines)}
    fails = []
    for d in round_dirs:
        with open(os.path.join(d, "thresholds.json")) as f:
            table = json.load(f)
        for token, (lo, hi) in bounds.items():
            lam = table.get(engine_key(token))
            if not isinstance(lam, float) or not lo <= lam <= hi:
                fails.append(f"calibrate {d} {token}: threshold {lam!r} "
                             f"outside [{lo:.4f}, {hi:.4f}]")
    return fails


# ---------------------------------------------------------------------------
# pmd
# ---------------------------------------------------------------------------

def crossing_db(series: list[tuple[float, float]], level: float = 0.1) -> float:
    """First SNR where the interpolated Pmd curve falls to ``level``:
    -inf if it starts below, +inf if it never gets there."""
    if series[0][1] <= level:
        return -math.inf
    for (s0, p0), (s1, p1) in zip(series, series[1:]):
        if p1 <= level:
            return s0 + (s1 - s0) * (p0 - level) / (p0 - p1)
    return math.inf


def check_pmd(round_dirs, engines: str, trials_per_point: int,
              thresholds: dict[str, float]) -> tuple[list[str], dict]:
    tokens = engine_tokens(engines)
    keys = [engine_key(t) for t in tokens]
    misses = {(k, s): 0 for k in keys for s in PMD_GRID}
    fails = []
    for d in round_dirs:
        rows = read_csv(os.path.join(d, "pmd.csv"))
        seen = set()
        for row in rows:
            key, snr = row["engine"], float(row["snr_db"])
            n, m, pmd = int(row["trials"]), int(row["misses"]), float(row["pmd"])
            seen.add((key, snr))
            if (key, snr) not in misses or n != trials_per_point or not 0 <= m <= n \
                    or abs(pmd - m / n) > 1e-12 \
                    or not float(row["ci_lo"]) <= pmd <= float(row["ci_hi"]):
                fails.append(f"pmd {d}: bad row {row}")
                continue
            misses[key, snr] += m
        if len(rows) != len(misses) or seen != set(misses):
            fails.append(f"pmd {d}: rows do not cover engines x grid once")
    if fails:
        return fails, {}
    total = trials_per_point * len(round_dirs)
    curves = {k: [(s, misses[k, s] / total) for s in PMD_GRID] for k in keys}

    for key, series in curves.items():
        for (s0, _), (s1, _) in zip(series, series[1:]):
            hi0 = wilson(misses[key, s0], total)[1]
            lo1 = wilson(misses[key, s1], total)[0]
            if lo1 > hi0:
                fails.append(f"pmd {key}: Pmd rises from {s0} to {s1} dB "
                             f"beyond Wilson overlap")

    cross = {k: crossing_db(curves[k]) for k in keys}
    if not cross["cluster_k8_os2"] < cross["mf_opt_os1"]:
        fails.append(f"pmd: K=8 at 2x crosses Pmd=0.1 at {cross['cluster_k8_os2']} dB, "
                     f"not below the 1x matched filter at {cross['mf_opt_os1']} dB")

    # 2x matched filter against the single-lag miss probability.  The
    # output at the true lag is CN(mu, E) with |mu|^2 / E = 128 * SNR.
    # Neighbouring lags inside the detection tolerance can rescue a true
    # lag below threshold, and a noise lag can beat one above it; the two
    # move Pmd by less than CLOSED_FORM_ALLOWANCE, on top of the Wilson
    # interval of the estimate.
    e = template_energies("mf_opt:os2")[EMBEDDED_ROOT]
    lam = thresholds["mf_opt_os2"]
    closed = {}
    for s in PMD_GRID:
        snr = 10.0 ** (s / 10.0)
        p_cf = chi2nc2_cdf(2.0 * lam / e, 2.0 * 128 * snr)
        closed[s] = p_cf
        got = misses["mf_opt_os2", s]
        lo, hi = wilson(got, total)
        if not (lo - CLOSED_FORM_ALLOWANCE <= p_cf <= hi + CLOSED_FORM_ALLOWANCE):
            fails.append(f"pmd mf_opt_os2 at {s} dB: Pmd {got / total:.4f} "
                         f"(Wilson [{lo:.4f}, {hi:.4f}]) vs closed form {p_cf:.4f} "
                         f"beyond allowance {CLOSED_FORM_ALLOWANCE}")
    info = {"trials_per_point": total, "crossing_db": cross,
            "mf_opt_os2_closed_form": closed,
            "pmd": {k: dict(v) for k, v in curves.items()}}
    return fails, info


# ---------------------------------------------------------------------------
# acq
# ---------------------------------------------------------------------------

def _check_acq_round(d: str, keys: list[str], trials: int, cap: int):
    fails = []
    rows = read_csv(os.path.join(d, "acq_results.csv"))
    per_engine = {k: [] for k in keys}
    for row in rows:
        key, hf = row["engine"], int(row["half_frames"])
        censored = row["censored"]
        ok = (key in per_engine and censored in ("0", "1")
              and abs(float(row["time_ms"]) - hf * HALF_FRAME_MS) < 1e-9
              and (hf == cap if censored == "1" else 1 <= hf <= cap))
        if not ok:
            fails.append(f"acq {d}: bad row {row} (cap {cap})")
            continue
        per_engine[key].append((int(row["trial"]), hf, censored == "1"))
    for key, got in per_engine.items():
        if len(got) != trials or len({t for t, _, _ in got}) != trials:
            fails.append(f"acq {d} {key}: {len(got)} rows for {trials} trials")
    if fails:
        return fails, per_engine

    cdf = {k: [] for k in keys}
    for row in read_csv(os.path.join(d, "acq_cdf.csv")):
        if row["engine"] not in cdf:
            fails.append(f"acq {d}: cdf row for unknown engine {row['engine']}")
            continue
        cdf[row["engine"]].append((float(row["time_ms"]), float(row["cdf"])))
    for key, series in cdf.items():
        if [round(t / HALF_FRAME_MS, 9) for t, _ in series] != list(range(1, cap + 1)):
            fails.append(f"acq {d} {key}: cdf is not on the 5 ms grid 5..{cap * 5} ms")
            continue
        acquired = [hf for _, hf, c in per_engine[key] if not c]
        values = [v for _, v in series]
        if any(b < a for a, b in zip(values, values[1:])):
            fails.append(f"acq {d} {key}: cdf decreases")
        for i, v in enumerate(values, start=1):
            want = sum(hf <= i for hf in acquired) / trials
            if abs(v - want) > 1e-12:
                fails.append(f"acq {d} {key}: cdf at {i * HALF_FRAME_MS} ms is {v}, "
                             f"results give {want}")
                break
    return fails, per_engine


def check_acq(round_dirs, engines: str, trials_per_round: int,
              cap: int) -> tuple[list[str], dict]:
    tokens = engine_tokens(engines)
    keys = [engine_key(t) for t in tokens]
    pooled = {k: [] for k in keys}
    fails = []
    frames = []  # per round: sum over trials of the largest count across engines
    for d in round_dirs:
        f, per_engine = _check_acq_round(d, keys, trials_per_round, cap)
        fails += f
        by_trial = {}
        for k in keys:
            pooled[k] += per_engine[k]
            for t, hf, _ in per_engine[k]:
                by_trial[t] = max(by_trial.get(t, 0), hf)
        frames.append(sum(by_trial.values()))
    if fails:
        return fails, {"round_half_frames": frames}

    times = {k: [math.inf if c else float(hf) for _, hf, c in v] for k, v in pooled.items()}
    bands = {k: median_band(v) for k, v in times.items()}
    # Fewer clusters never acquire faster, up to interval overlap.
    clusters = sorted((parse_token(t)[1], engine_key(t)) for t in tokens
                      if parse_token(t)[0] == "cluster")
    for (_, fewer), (_, more) in zip(clusters, clusters[1:]):
        if bands[fewer][2] < bands[more][1]:
            fails.append(f"acq: {fewer} median {bands[fewer]} acquires faster than "
                         f"{more} median {bands[more]}")

    info = {"round_half_frames": frames, "median_hf": {k: b[0] for k, b in bands.items()}}
    # Block fading draws every half frame afresh, so acquisition time is
    # geometric in the first-half-frame success rate.  A censored trial
    # only says "more than cap", so both sides saturate there.
    beyond = cap + 1.0
    info["geometric_median_hf"] = {}
    for k, v in times.items():
        first = sum(t == 1.0 for t in v)
        p_lo, p_hi = wilson(first, len(v))
        lo = min(geometric_median(p_hi), beyond)
        hi = min(geometric_median(p_lo), beyond)
        info["geometric_median_hf"][k] = geometric_median(first / len(v))
        _, obs_lo, obs_hi = median_band([min(t, beyond) for t in v])
        if obs_hi < lo or hi < obs_lo:
            fails.append(f"acq {k}: median band [{obs_lo}, {obs_hi}] half frames "
                         f"misses the geometric [{lo}, {hi}] from p1={first}/{len(v)}")
    return fails, info
