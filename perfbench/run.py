#!/usr/bin/env python3
"""End-to-end benchmark of the pssdet Monte Carlo command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (see workloads.py) through
``pssdet.cli.main`` in a fresh worker process with BLAS pinned to one
thread and ``--jobs 1``, checks every output with checks.py, and prints
one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from
spans around pssdet's public functions.  The full record, with the
environment, goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))
from workloads import (  # noqa: E402
    ALL5,
    CALIBRATION_OFFSET,
    CALIBRATION_TRIALS,
    HALF_FRAME_MS,
    PMD_ENGINES,
    WORKLOADS,
    engine_tokens,
    program_seed,
)

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150

# Spans each workload must record; channel.embed has no call on noise-only
# calibration by design.
SPANS = ("cli.main", "detector.experiment", "detector.peaks",
         "clustering.kmeans_cluster", "pss.pss_time_domain", "channel.embed")
EXPECTED_SPANS = {name: SPANS if name != "calibrate" else SPANS[:-1]
                  for name in WORKLOADS}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv: list[str], what: str) -> str:
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what}: timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return proc.stdout


def pssdet(args: list[str], what: str) -> str:
    return run_child(["-m", "pssdet.cli", *args], what)


def git_commit() -> str | None:
    """HEAD of a git checkout at ROOT itself, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 <= q <= 100."""
    v = sorted(values)
    if not v:
        return 0.0
    h = (len(v) - 1) * q / 100.0
    i = math.floor(h)
    return v[i] + (v[min(i + 1, len(v) - 1)] - v[i]) * (h - i)


# ---------------------------------------------------------------------------
# Steps of one invocation.
# ---------------------------------------------------------------------------

def invocation_checks(work: Path) -> list[str]:
    """Once per invocation, untimed: closed-form op counts from
    ``pssdet bench-ops``, and a short pmd_awgn identical at --jobs 1 and 2."""
    import checks

    rows = json.loads(pssdet(["bench-ops", "--engines", ALL5], "bench-ops"))
    fails = checks.check_bench_ops(rows, ALL5)
    table = work / "union_bound_thresholds.json"
    table.write_text(json.dumps({checks.engine_key(t): checks.union_bound(t)
                                 for t in engine_tokens(PMD_ENGINES)}))
    dirs = []
    for jobs in ("1", "2"):
        d = work / f"jobs{jobs}"
        pssdet(["pmd", "--engines", PMD_ENGINES, "--snr", "-7,-4", "--trials", "12",
                "--thresholds", str(table), "--seed", "5", "--jobs", jobs,
                "--output-dir", str(d)], f"pmd --jobs {jobs}")
        dirs.append(d)
    return fails + checks.same_files(*dirs, ("pmd.csv",), "--jobs 1 vs --jobs 2")


def calibrate_thresholds(workload, seed: int, work: Path) -> Path:
    """The untimed threshold input of pmd and acq workloads."""
    out = work / "thresholds"
    pssdet(["calibrate", "--engines", workload.engines,
            "--trials", str(CALIBRATION_TRIALS),
            "--seed", str(seed + CALIBRATION_OFFSET), "--output-dir", str(out)],
           "threshold calibration")
    return out / "thresholds.json"


def setup_seconds(workload) -> list[float]:
    return [json.loads(run_child([str(BENCH_DIR / "worker.py"), "setup",
                                  workload.engines], "setup"))["setup_s"]
            for _ in range(SETUP_REPEATS)]


def run_worker(workload, seed: int, seconds: int, trace: bool,
               thresholds: Path | None, work: Path, tag: str) -> dict:
    params = {
        "workload": workload.name, "program_seed": seed, "seconds": seconds,
        "trace": trace, "thresholds": str(thresholds) if thresholds else None,
        "work_dir": str(work / "rounds"), "result_path": str(work / "result.json"),
        "spans_path": str(RESULTS / f"{tag}-spans.json"),
    }
    (work / "params.json").write_text(json.dumps(params))
    run_child([str(BENCH_DIR / "worker.py"), "run", str(work / "params.json")],
              f"{workload.name} worker")
    result = json.loads((work / "result.json").read_text())
    if not Path(result["pssdet_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported pssdet from {result['pssdet_file']}, "
                         f"not from {SRC}")
    return result


def check_rounds(workload, dirs: list[str], thresholds: Path | None):
    """Output checks over the rounds that exited 0; (fails, info).

    info["round_half_frames"] lists the half frames each round pushed
    through the engines: one per trial for calibrate and pmd, the largest
    count across engines per trial for acq."""
    import checks

    if not dirs:
        return [], {"round_half_frames": []}
    if workload.command == "acq":
        return checks.check_acq(dirs, workload.engines, workload.trials_per_round,
                                workload.max_half_frames)
    info = {"round_half_frames": [workload.trials_in_round] * len(dirs)}
    if workload.command == "calibrate":
        return checks.check_calibrate(dirs, workload.engines,
                                      workload.trials_per_round), info
    fails, pmd_info = checks.check_pmd(dirs, workload.engines,
                                       workload.trials_per_round,
                                       json.loads(thresholds.read_text()))
    return fails, {**info, **pmd_info}


def layer_metrics(workload, spans: list, half_frames: int, trials: int,
                  overhead_pct: float) -> dict:
    """Per-layer numbers from the spans of the traced rounds, and the
    number of calls each span name recorded."""
    by_name: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for sid, parent, name, start, end, frames in spans:
        by_name.setdefault(name, []).append((sid, end - start, frames))
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls = {name: len(v) for name, v in by_name.items()}
    missing = [n for n in EXPECTED_SPANS[workload.name] if not calls.get(n)]
    if missing:
        raise BenchError(f"traced run recorded no call of {', '.join(missing)}: "
                         f"the layer would read as free instead of unmeasured")

    def durations(name):
        return [d for _, d, _ in by_name.get(name, [])]

    def self_times(name):
        return [d - child_time.get(sid, 0.0) for sid, d, _ in by_name.get(name, [])]

    peaks_ms = [d * 1e3 for d in durations("detector.peaks")]
    embed_ms = [d * 1e3 for d in durations("channel.embed")]
    synthesized = sum(f for _, _, f in by_name.get("channel.embed", []))
    values = {
        "detector.peaks.calls_per_halfframe": (len(peaks_ms) / half_frames, "count"),
        "detector.peaks.ms_p50": (percentile(peaks_ms, 50), "ms"),
        "detector.peaks.ms_p99": (percentile(peaks_ms, 99), "ms"),
        "detector.experiment.self_ms_per_trial":
            (sum(self_times("detector.experiment")) * 1e3 / trials, "ms"),
        "channel.embed.calls": (len(embed_ms), "count"),
        "channel.embed.ms_p50": (percentile(embed_ms, 50), "ms"),
        "channel.embed.ms_p99": (percentile(embed_ms, 99), "ms"),
        "channel.frames_used_ratio":
            (len(peaks_ms) / synthesized if synthesized else 0.0, "ratio"),
        "clustering.kmeans_cluster.calls":
            (len(durations("clustering.kmeans_cluster")), "count"),
        "clustering.kmeans_cluster.s_total":
            (sum(durations("clustering.kmeans_cluster")), "s"),
        "pss.pss_time_domain.s_total": (sum(durations("pss.pss_time_domain")), "s"),
        "cli.main.self_s": (statistics.median(self_times("cli.main")), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, calls


def measure(workload, workload_seed: int, seconds: int, trace: bool,
            work: Path, tag: str) -> dict:
    import checks

    seed = program_seed(workload_seed)
    fails = invocation_checks(work)
    thresholds = (calibrate_thresholds(workload, seed, work)
                  if workload.needs_thresholds else None)
    setups = [] if trace else setup_seconds(workload)
    result = run_worker(workload, seed, seconds, trace, thresholds, work, tag)

    rounds = result["rounds"]
    ok = [r for r in rounds if r["code"] == 0]
    attempted = workload.trials_in_round * len(rounds)
    failed = workload.trials_in_round * (len(rounds) - len(ok))
    round_fails, info = check_rounds(workload, [r["dir"] for r in ok], thresholds)
    fails += round_fails
    frames = info.pop("round_half_frames")
    record = {"env": result["env"], "elapsed_s": result["elapsed_s"],
              "round_s": [r["s"] for r in rounds], "round_half_frames": frames,
              "info": info}

    if trace:
        untraced = result["untraced"]
        names = {"calibrate": ("thresholds.json",), "pmd": ("pmd.csv",),
                 "acq": ("acq_results.csv", "acq_cdf.csv")}[workload.command]
        for a, b in zip(rounds, untraced):
            if a["code"] != b["code"]:
                fails.append(f"round {a['round']} exits {a['code']} traced "
                             f"and {b['code']} untraced")
            elif a["code"] == 0:
                fails += checks.same_files(a["dir"], b["dir"], names,
                                           "traced vs untraced")
        # Round 0 builds the engines; pairs after it compare steady rounds.
        pairs = list(zip(rounds, untraced))[1:] or list(zip(rounds, untraced))
        overhead = (sum(a["s"] for a, _ in pairs) / sum(b["s"] for _, b in pairs)
                    - 1.0) * 100.0
        spans = json.loads((RESULTS / f"{tag}-spans.json").read_text())
        metrics, record["span_calls"] = layer_metrics(
            workload, spans, max(1, sum(frames)), max(1, attempted - failed),
            overhead)
        record["untraced_s"] = sum(b["s"] for b in untraced)
    else:
        wall = result["elapsed_s"]
        metrics = {
            "trials_per_s": {"value": (attempted - failed) / wall, "unit": "trials/s"},
            "realtime_factor": {"value": sum(frames) * HALF_FRAME_MS / 1e3 / wall,
                                "unit": "x"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        record["setup_s_samples"] = setups
    record["checks_failed"] = fails
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "pssdet" / "__init__.py").is_file():
        print(f"perfbench: no pssdet package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before this process imports numpy
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.time()
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace), work, tag)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = out.pop("record")
    record.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, started_unix=started, git_commit=git_commit(),
        nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)), **out)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for fail in record["checks_failed"]:
        print(f"check failed: {fail}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
