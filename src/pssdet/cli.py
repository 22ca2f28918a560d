"""Command line front end.

Every experiment command resolves its parameters in three layers
(built-in defaults, then a JSON config file, then explicit flags) and
writes the resolved set to ``manifest.json`` next to its outputs.
Config values must have their flag's type.  A manifest stores the
threshold values an experiment used, not the file they came from, so
feeding it back through ``--config`` with no other flags reruns the
experiment and reproduces the result files byte for byte.

Exit codes: 0 on success, 1 on bad arguments or config, 2 on runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import channel as ch
from .channel import read_stream
from .clustering import root_tables, save_table
from .correlator import EngineConfig, bench_ops, distinct_engines
from .detector import (
    DEFAULT_PFA,
    acquisition_cdf,
    acquisition_experiment,
    calibrate_threshold,
    calibrate_thresholds,
    detect,
    pmd_experiment,
)
from .pss import (
    PSS_ROOTS,
    add_cyclic_prefix,
    pss_time_domain,
    write_iq,
    write_text,
    write_waveform_csv,
)

DEFAULT_ENGINES = "mf_opt:os1,mf_opt:os2,cluster:k8:os2,cluster:k16:os2"

# Every option of the commands that resolve a config, with its default.
# Each key is one flag (``max_half_frames`` is ``--max-half-frames``)
# whose type is its default's type, a string where the default is None.
OPTIONS = {
    "cluster": {"root": 25, "size_n": 128, "clusters": 8, "out": None,
                "output_dir": "."},
    "calibrate": {"engines": DEFAULT_ENGINES, "pfa": DEFAULT_PFA,
                  "trials": 2000, "seed": 0, "jobs": 1, "output_dir": "."},
    "pmd": {"engines": DEFAULT_ENGINES, "snr": "-12:0:1", "trials": 1000,
            "pfa": DEFAULT_PFA, "cal_trials": 2000, "seed": 0, "jobs": 1,
            "ppm": 0.0, "profile": "awgn", "fading": "static",
            "thresholds": None, "output_dir": "."},
    "acq": {"engines": DEFAULT_ENGINES, "snr": -5.0, "ppm": 5.0,
            "trials": 500, "max_half_frames": 200, "pfa": DEFAULT_PFA,
            "cal_trials": 2000, "seed": 0, "jobs": 1, "profile": "tu6",
            "fading": "rayleigh_block", "doppler_hz": 0.0,
            "thresholds": None, "output_dir": "."},
}


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1 and accepts
    negative-first grid values like ``-12:0:2`` or ``-8,-6`` without
    forcing the ``--snr=`` form."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+[\d.,:-]*$|^-\d*\.\d+$"
        )

    def error(self, message):
        raise CliError(message)


def parse_engine_spec(spec: str) -> EngineConfig:
    """Parse one engine token like ``cluster:k8:os2`` or ``mf_opt:os1``."""
    parts = spec.strip().split(":")
    kind = parts[0]
    clusters = None
    oversample = 2
    for part in parts[1:]:
        if part.startswith("k"):
            clusters = int(part[1:])
        elif part.startswith("os"):
            oversample = int(part[2:])
        else:
            raise CliError(f"bad engine field {part!r} in {spec!r}")
    try:
        return EngineConfig(kind=kind, oversample=oversample, num_clusters=clusters)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def parse_engines(text: str) -> tuple[EngineConfig, ...]:
    configs = [parse_engine_spec(tok) for tok in text.split(",") if tok.strip()]
    if not configs:
        raise CliError("no engines given")
    try:
        return distinct_engines(configs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def parse_snr_grid(text: str) -> list[float]:
    """Comma list (``-10,-8,-6``) or range spec (``-12:0:2``)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"range spec needs start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise CliError(f"snr range needs a finite start, stop and step, got {text!r}")
        if step <= 0:
            raise CliError("snr step must be positive")
        # The tolerance keeps a stop that lies on the grid (0:0.3:0.1).
        count = math.floor((stop - start) / step + 1e-9) + 1
        return [round(start + i * step, 10) for i in range(count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _float_repr(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _float_repr(v) if isinstance(v, float) else str(v) for v in row
        ))
    write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj):
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _table(value) -> bool:
    """A thresholds table, from a config or a --thresholds file: numbers
    that convert to a float other than NaN; +inf (never detect) is
    allowed, an int too large for a float is not."""
    try:
        return isinstance(value, dict) and all(
            _number(v) and not math.isnan(float(v)) for v in value.values())
    except OverflowError:
        return False


def _fits(value, default) -> bool:
    """Whether a config value has the type of the flag with this default:
    a string where there is none, any number (not a bool) for a float."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, float):
        return _number(value)
    return isinstance(value, type(default)) and not isinstance(value, bool)


def _resolve(args: argparse.Namespace, also=None) -> dict:
    """Merge the command's OPTIONS defaults, config file and explicit
    flags, in that order.  A config's ``command`` key, if any, must name
    this command.  ``also`` maps keys to checks for config forms their
    flags lack."""
    also = also or {}
    defaults = OPTIONS[args.command]
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as f:
                loaded = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key == "command":
                if value != args.command:
                    raise CliError(f"config key 'command' must be {args.command!r}, "
                                   f"got {value!r}")
                continue
            if key not in defaults:
                raise CliError(f"unknown config key {key!r}")
            if not (_fits(value, defaults[key]) or key in also and also[key](value)):
                raise CliError(f"config key {key!r} has the wrong type: {value!r}")
            resolved[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _manifest(output_dir: str, command: str, resolved: dict):
    _write_json(os.path.join(output_dir, "manifest.json"),
                {"command": command, **resolved})


def _add_options(subs, command, fn, summary, **extra):
    """A subcommand with ``--config`` plus one flag per OPTIONS key of
    the command; ``extra`` maps keys to further add_argument settings."""
    sub = subs.add_parser(command, help=summary)
    sub.add_argument("--config", help="JSON config file (flags override it)")
    for key, default in OPTIONS[command].items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key,
                         type=str if default is None else type(default),
                         **extra.get(key, {}))
    sub.set_defaults(fn=fn)


def _taps_for(profile: str):
    if profile == "awgn":
        return ((0, 0.0),)
    if profile == "tu6":
        return ch.TU6_TAPS
    raise CliError(f"unknown channel profile {profile!r}")


def _load_thresholds(resolved, configs):
    """Thresholds from a file path or a table; None means self-calibrate."""
    table = resolved["thresholds"]
    if table is None:
        return None
    if isinstance(table, str):
        try:
            with open(table) as f:
                table = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read thresholds {table}: {exc}") from exc
        if not _table(table):
            raise CliError(f"thresholds {resolved['thresholds']} must map "
                           "engine keys to numbers other than NaN, within float range")
    missing = [c.key for c in configs if c.key not in table]
    if missing:
        raise CliError(f"thresholds lack engines: {', '.join(missing)}")
    return {c.key: float(table[c.key]) for c in configs}


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_gen_pss(args) -> int:
    root = args.root
    if root not in PSS_ROOTS:
        raise CliError(f"root must be one of {PSS_ROOTS}")
    w = pss_time_domain(root, args.size_n)
    if args.cp:
        w = add_cyclic_prefix(w)
    out = args.out or f"pss_u{root}_n{args.size_n}.{args.format}"
    if args.format == "csv":
        write_waveform_csv(out, w.samples)
    else:
        write_iq(out, w.samples)
    print(f"wrote {out} ({len(w.samples)} samples, root {root})")
    return 0


def cmd_cluster(args) -> int:
    resolved = _resolve(args)
    root = resolved["root"]
    if root not in PSS_ROOTS:
        raise CliError(f"root must be one of {PSS_ROOTS}")
    table = root_tables(resolved["size_n"], resolved["clusters"])[
        PSS_ROOTS.index(root)]
    out = resolved["out"] or os.path.join(
        resolved["output_dir"],
        f"table_u{root}_n{resolved['size_n']}_k{resolved['clusters']}.json",
    )
    save_table(table, out)
    print(f"wrote {out} (wcss {table.final_wcss!r}, "
          f"converged {table.converged})")
    return 0


def cmd_calibrate(args) -> int:
    resolved = _resolve(args)
    configs = parse_engines(resolved["engines"])
    out_dir = resolved["output_dir"]
    table = calibrate_thresholds(
        configs, pfa=resolved["pfa"], trials=resolved["trials"],
        seed=resolved["seed"], jobs=resolved["jobs"],
    )
    for config in configs:
        print(f"{config.key}: threshold {table[config.key]!r}")
    _write_json(os.path.join(out_dir, "thresholds.json"), table)
    _manifest(out_dir, "calibrate", resolved)
    print(f"wrote {os.path.join(out_dir, 'thresholds.json')}")
    return 0


def cmd_detect(args) -> int:
    stream = read_stream(args.stream)
    config = parse_engine_spec(args.engine)
    if len(stream.samples[::config.decimation]) < config.size_n:
        raise CliError(f"stream of {len(stream.samples)} samples holds no full "
                       f"{config.size_n}-sample window of {config.key}")
    if args.threshold is not None:
        lam = args.threshold
    else:
        lam = calibrate_threshold(config, trials=args.cal_trials, seed=args.seed)
    res = detect(stream, config, lam)
    out = {
        "engine": res.engine_key, "detected": res.detected, "root": res.root,
        "lag": res.lag, "metric": res.metric, "threshold": res.threshold,
    }
    if res.correct is not None:
        out["correct"] = res.correct
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out:
        write_text(args.out, text + "\n")
    return 0


def _experiment_inputs(args, also=None):
    """pmd's and acq's resolved options (thresholds loaded), engines and
    the experiment keywords they share."""
    resolved = _resolve(args, also={"thresholds": _table, **(also or {})})
    configs = parse_engines(resolved["engines"])
    resolved["thresholds"] = _load_thresholds(resolved, configs)
    shared = dict(
        trials=resolved["trials"], base_seed=resolved["seed"], pfa=resolved["pfa"],
        calibration_trials=resolved["cal_trials"], thresholds=resolved["thresholds"],
        taps=_taps_for(resolved["profile"]), fading=resolved["fading"],
        cfo_ppm=resolved["ppm"], jobs=resolved["jobs"],
    )
    return resolved, configs, shared


def _engine_columns(config):
    """An engine's k and oversample columns (k is 0 for a matched filter)."""
    return [config.num_clusters or 0, config.oversample]


def cmd_pmd(args) -> int:
    resolved, configs, shared = _experiment_inputs(args, also={
        "snr": lambda v: isinstance(v, list) and all(map(_number, v))})
    snr_grid = (parse_snr_grid(resolved["snr"])
                if isinstance(resolved["snr"], str) else
                [float(s) for s in resolved["snr"]])
    resolved["snr"] = snr_grid
    points = pmd_experiment(configs, snr_grid, verbose=True, **shared)
    out_dir = resolved["output_dir"]
    cols = {c.key: _engine_columns(c) for c in configs}
    rows = [[p.snr_db, p.engine_key, *cols[p.engine_key], p.trials, p.misses, p.pmd,
             p.ci_lo, p.ci_hi] for p in points]
    _write_csv(
        os.path.join(out_dir, "pmd.csv"),
        ["snr_db", "engine", "k", "oversample", "trials", "misses",
         "pmd", "ci_lo", "ci_hi"],
        rows,
    )
    _manifest(out_dir, "pmd", resolved)
    print(f"wrote {os.path.join(out_dir, 'pmd.csv')} ({len(rows)} rows)")
    return 0


def cmd_acq(args) -> int:
    resolved, configs, shared = _experiment_inputs(args)
    results = acquisition_experiment(
        configs, snr_db=float(resolved["snr"]), doppler_hz=resolved["doppler_hz"],
        max_half_frames=resolved["max_half_frames"], **shared,
    )
    out_dir = resolved["output_dir"]
    ppm = float(resolved["ppm"])
    cols = {c.key: _engine_columns(c) for c in configs}
    _write_csv(
        os.path.join(out_dir, "acq_results.csv"),
        ["engine", "k", "oversample", "ppm", "trial", "half_frames",
         "time_ms", "censored"],
        [[r.engine_key, *cols[r.engine_key], ppm, r.trial, r.half_frames, r.time_ms,
          int(r.censored)] for r in results],
    )
    cdf_rows = acquisition_cdf(results, resolved["max_half_frames"])
    _write_csv(
        os.path.join(out_dir, "acq_cdf.csv"),
        ["engine", "k", "oversample", "ppm", "time_ms", "cdf"],
        [[key, *cols[key], ppm, t_ms, cdf] for key, t_ms, cdf in cdf_rows],
    )
    _manifest(out_dir, "acq", resolved)
    print(f"wrote {os.path.join(out_dir, 'acq_results.csv')} and acq_cdf.csv")
    return 0


def cmd_bench_ops(args) -> int:
    rows = [bench_ops(config)
            for config in parse_engines(args.engines or DEFAULT_ENGINES)]
    text = json.dumps(rows, indent=2)
    print(text)
    if args.out:
        write_text(args.out, text + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pssdet",
                     description="PSS detection and cluster-quantized "
                                 "correlator experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-pss", help="write a reference waveform")
    p.add_argument("--root", type=int, default=25)
    p.add_argument("--size-n", dest="size_n", type=int, default=64)
    p.add_argument("--cp", action="store_true", help="prepend cyclic prefix")
    p.add_argument("--format", choices=("csv", "iq"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen_pss)

    engines = dict(help="comma list, e.g. " + DEFAULT_ENGINES)
    thresholds = dict(help="thresholds.json from calibrate")
    profile = dict(choices=("awgn", "tu6"))
    _add_options(subs, "cluster", cmd_cluster,
                 "save one root's cluster table, as the engines build it")
    _add_options(subs, "calibrate", cmd_calibrate, "calibrate CFAR thresholds",
                 engines=engines)

    p = subs.add_parser("detect", help="run one engine over a stored stream")
    p.add_argument("--stream", required=True, help="IQ file with sidecar")
    p.add_argument("--engine", default="mf_opt:os2")
    p.add_argument("--threshold", type=float)
    p.add_argument("--cal-trials", dest="cal_trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_detect)

    _add_options(
        subs, "pmd", cmd_pmd, "missed-detection probability sweep",
        engines=engines, thresholds=thresholds, profile=profile,
        snr=dict(help="grid: '-12:0:1' or '-8,-6,-4'"),
        # Jakes fading needs a Doppler shift, which only acq takes.
        fading=dict(choices=("static", "rayleigh_block")),
    )
    _add_options(
        subs, "acq", cmd_acq, "acquisition time experiment",
        engines=engines, thresholds=thresholds, profile=profile,
        fading=dict(choices=ch.FADING_MODES),
    )

    p = subs.add_parser("bench-ops", help="per-sample operation counts")
    p.add_argument("--engines", default=DEFAULT_ENGINES)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench_ops)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
