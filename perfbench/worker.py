"""Measured process of the benchmark: one fresh interpreter per use.

    python worker.py setup ENGINES
        Time importing pssdet and building ENGINES (waveforms, k-means
        tables, batch evaluator); print {"setup_s": ...}.

    python worker.py run PARAMS.json
        Run whole rounds of one workload through ``pssdet.cli.main``
        until the time is up and write a result JSON.  With tracing on,
        every round also runs untraced, so the overhead compares
        identical work.

run.py starts it with BLAS pinned to one thread and src/ on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def setup(engines: str) -> None:
    t0 = time.perf_counter()
    from pssdet.cli import parse_engines
    from pssdet.detector import BatchEvaluator

    BatchEvaluator(parse_engines(engines))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def run_round(cli, workload, params, work_dir, r, tracer=None) -> dict:
    """Round r: one CLI invocation, its output silenced, its time taken."""
    out = os.path.join(work_dir, f"r{r:05d}")
    argv = workload.round_argv(params["program_seed"], r, out, params["thresholds"])
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return {"round": r, "code": code, "dir": out, "s": time.perf_counter() - t0}


def environment() -> dict:
    import platform

    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(params_path: str) -> None:
    with open(params_path) as f:
        params = json.load(f)
    from workloads import WORKLOADS

    import pssdet
    from pssdet import cli

    workload = WORKLOADS[params["workload"]]
    work_dir, seconds = params["work_dir"], params["seconds"]
    result = {"pssdet_file": pssdet.__file__, "env": environment()}
    records = []
    start = time.perf_counter()
    if not params["trace"]:
        while time.perf_counter() - start < seconds:
            records.append(run_round(cli, workload, params, work_dir, len(records)))
        elapsed = time.perf_counter() - start
    else:
        # Each round runs traced and untraced, in alternating order, so
        # the overhead compares identical work under the same drift.
        from tracer import Tracer

        tracer, untraced = Tracer(), []
        while time.perf_counter() - start < seconds:
            r = len(records)
            for traced in (True, False) if r % 2 == 0 else (False, True):
                if not traced:
                    untraced.append(run_round(cli, workload, params,
                                              os.path.join(work_dir, "untraced"), r))
                    continue
                tracer.install()
                try:
                    records.append(run_round(cli, workload, params,
                                             os.path.join(work_dir, "traced"), r,
                                             tracer))
                finally:
                    tracer.uninstall()
        elapsed = sum(rec["s"] for rec in records)
        result["untraced"] = untraced
        with open(params["spans_path"], "w") as f:
            json.dump(tracer.spans, f)
    result.update(
        rounds=records,
        elapsed_s=elapsed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(params["result_path"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(arg)
    elif mode == "run":
        run(arg)
    else:
        sys.exit(f"unknown mode {mode!r}")
