"""Command-line front end: parsing, file outputs, manifests, exit codes."""

import json
import os

import numpy as np
import pytest

from pssdet import (
    ChannelScenario,
    EngineConfig,
    add_cyclic_prefix,
    bench_ops,
    calibrate_thresholds,
    embed_pss_in_halfframe,
    pss_time_domain,
    write_stream,
)
from pssdet.cli import (
    CliError,
    DEFAULT_ENGINES,
    main,
    parse_engine_spec,
    parse_engines,
    parse_snr_grid,
)
from pssdet.channel import RxStream
from pssdet.clustering import root_tables


# ---------------------------------------------------------------------------
# Spec parsing.
# ---------------------------------------------------------------------------

def test_parse_engine_spec():
    cfg = parse_engine_spec("mf_opt:os1")
    assert cfg == EngineConfig("mf_opt", oversample=1)
    cfg = parse_engine_spec("cluster:k8:os2")
    assert cfg == EngineConfig("cluster", num_clusters=8)
    assert parse_engine_spec("cluster:k16").oversample == 2
    assert parse_engine_spec("mf_brute").key == "mf_brute_os2"


@pytest.mark.parametrize("bad", [
    "fft", "cluster", "mf_opt:q8", "cluster:k0", "mf_opt:os3",
])
def test_parse_engine_spec_rejects(bad):
    with pytest.raises(CliError):
        parse_engine_spec(bad)


def test_parse_engines():
    configs = parse_engines(DEFAULT_ENGINES)
    assert [c.key for c in configs] == [
        "mf_opt_os1", "mf_opt_os2", "cluster_k8_os2", "cluster_k16_os2",
    ]
    with pytest.raises(CliError):
        parse_engines(" , ")
    # The same engine spelled twice is still one key.
    with pytest.raises(CliError, match="cluster_k8_os2"):
        parse_engines("cluster:k8,mf_opt:os1,cluster:k8:os2")


def test_parse_snr_grid():
    assert parse_snr_grid("-12:0:2") == [-12, -10, -8, -6, -4, -2, 0]
    assert parse_snr_grid("-8,-6.5, -4") == [-8.0, -6.5, -4.0]
    # A range never runs past its stop; a stop on the grid is kept.
    assert parse_snr_grid("0:1:0.6") == [0.0, 0.6]
    assert parse_snr_grid("-12:0:7") == [-12.0, -5.0]
    assert parse_snr_grid("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]
    with pytest.raises(CliError):
        parse_snr_grid("1:2")
    with pytest.raises(CliError):
        parse_snr_grid("0:10:-1")


@pytest.mark.parametrize("spec", ["-inf:0:1", "0:inf:1", "0:1:inf", "nan:0:1"])
def test_snr_range_bounds_must_be_finite(tmp_path, capsys, spec):
    with pytest.raises(CliError, match="finite"):
        parse_snr_grid(spec)
    out = tmp_path / "out"
    assert main(["pmd", "--engines", "mf_opt:os2", f"--snr={spec}", "--trials", "2",
                 "--output-dir", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["gen-pss", "--root", "26"]) == 1
    assert main(["pmd", "--engines", "warp"]) == 1
    capsys.readouterr()


def test_runtime_errors_exit_2(capsys):
    assert main(["detect", "--stream", "/nonexistent/x.iq",
                 "--threshold", "1"]) == 2
    capsys.readouterr()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# Waveform and table generation.
# ---------------------------------------------------------------------------

def test_gen_pss_csv(tmp_path, capsys):
    out = str(tmp_path / "pss.csv")
    assert main(["gen-pss", "--root", "29", "--size-n", "64",
                 "--out", out]) == 0
    capsys.readouterr()
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1] + 1j * rows[:, 2],
                               pss_time_domain(29, 64).samples,
                               atol=1e-15)


@pytest.mark.parametrize("fmt", ["csv", "iq"])
def test_gen_pss_creates_output_dir(tmp_path, capsys, fmt):
    out = tmp_path / "newdir" / f"p.{fmt}"
    assert main(["gen-pss", "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    assert os.listdir(out.parent) == [out.name]


def test_gen_pss_iq_with_prefix(tmp_path, capsys):
    out = str(tmp_path / "pss.iq")
    assert main(["gen-pss", "--root", "25", "--size-n", "128", "--cp",
                 "--format", "iq", "--out", out]) == 0
    capsys.readouterr()
    assert os.path.getsize(out) == (128 + 9) * 16


def test_cluster_command_creates_output_dir(tmp_path, capsys):
    out_dir = tmp_path / "newdir" / "t"
    assert main(["cluster", "--root", "29", "--size-n", "64", "--clusters", "6",
                 "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert os.listdir(out_dir) == ["table_u29_n64_k6.json"]
    assert json.loads((out_dir / "table_u29_n64_k6.json").read_text())["K"] == 6


def test_output_files_follow_the_umask(tmp_path, capsys):
    mask = os.umask(0o022)
    try:
        assert main(["calibrate", "--engines", "mf_opt:os1", "--trials", "100",
                     "--output-dir", str(tmp_path)]) == 0
        assert main(["cluster", "--size-n", "64", "--output-dir",
                     str(tmp_path)]) == 0
    finally:
        os.umask(mask)
    capsys.readouterr()
    for name in ("thresholds.json", "manifest.json", "table_u25_n64_k8.json"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o644, name


def test_cluster_command_writes_the_engines_table(tmp_path, capsys):
    # Root 34's table is the conjugate of root 29's, as the detector
    # builds it, not a clustering of root 34's own samples.
    out = tmp_path / "table.json"
    assert main(["cluster", "--root", "34", "--size-n", "128",
                 "--clusters", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    engine = root_tables(128, 8)[2]
    assert doc["root_u"] == 34
    means = np.array([complex(re, im) for re, im in doc["means"]])
    np.testing.assert_array_equal(means, engine.means)
    np.testing.assert_array_equal(doc["assignment"], engine.assignment)


@pytest.mark.parametrize("argv", [["--seed", "3"], ["--restarts", "5"]])
def test_cluster_command_has_no_clustering_options(tmp_path, capsys, argv):
    assert main(["cluster", "--output-dir", str(tmp_path), *argv]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# Calibration and detection.
# ---------------------------------------------------------------------------

def test_calibrate_writes_thresholds_and_manifest(tmp_path, capsys):
    args = ["calibrate", "--engines", "mf_opt:os2,cluster:k8:os2",
            "--trials", "200", "--seed", "5",
            "--output-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    table = json.load(open(tmp_path / "thresholds.json"))
    assert set(table) == {"mf_opt_os2", "cluster_k8_os2"}
    assert all(v > 0 for v in table.values())
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert manifest["command"] == "calibrate"
    assert manifest["trials"] == 200
    assert manifest["seed"] == 5


def test_calibrate_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["calibrate", "--engines", "mf_opt:os1",
                     "--trials", "150", "--seed", "7",
                     "--output-dir", str(d)]) == 0
    capsys.readouterr()
    assert (a / "thresholds.json").read_bytes() == (b / "thresholds.json").read_bytes()
    ma = json.load(open(a / "manifest.json"))
    mb = json.load(open(b / "manifest.json"))
    ma.pop("output_dir"), mb.pop("output_dir")
    assert ma == mb


def test_calibrate_matches_library_call(tmp_path, capsys):
    specs = "mf_opt:os1,mf_opt:os2,cluster:k6:os2,cluster:k16:os2"
    assert main(["calibrate", "--engines", specs, "--trials", "120",
                 "--seed", "4", "--pfa", "0.2",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    written = json.load(open(tmp_path / "thresholds.json"))
    direct = calibrate_thresholds(parse_engines(specs), pfa=0.2, trials=120,
                                  seed=4)
    assert written == direct


def test_calibrate_seeds_give_different_thresholds(tmp_path, capsys):
    written = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["calibrate", "--trials", "300", "--seed", seed,
                     "--output-dir", str(out)]) == 0
        written.append((out / "thresholds.json").read_bytes())
    capsys.readouterr()
    assert written[0] != written[1]


@pytest.mark.parametrize("command", ["calibrate", "pmd", "acq"])
def test_negative_seed_exits_1_and_writes_nothing(tmp_path, capsys,
                                                  no_calibration, command):
    out = tmp_path / "out"
    assert main([command, "--engines", "mf_opt:os2", "--trials", "100",
                 "--seed", "-5", "--output-dir", str(out)]) == 1
    assert "seed must be non-negative, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def stored_stream(tmp_path):
    tx = add_cyclic_prefix(pss_time_domain(25, 128))
    scen = ChannelScenario(snr_db=5.0, timing_offset=800, seed=40)
    stream = embed_pss_in_halfframe(tx, scen)
    path = str(tmp_path / "capture.iq")
    write_stream(stream, path)
    return path


def test_detect_command(stored_stream, tmp_path, capsys):
    out = str(tmp_path / "det.json")
    assert main(["detect", "--stream", stored_stream,
                 "--engine", "mf_opt:os2", "--threshold", "6.0",
                 "--out", out]) == 0
    printed = capsys.readouterr().out
    res = json.loads(printed)
    assert res["detected"] is True
    assert res["correct"] is True
    assert res["root"] == 25
    assert json.load(open(out)) == res


def test_detect_command_scores_every_listed_start(stored_stream, capsys):
    side = f"{stored_stream}.json"
    meta = json.load(open(side))
    start = meta["pss_starts"][0]
    # The peak sits at the second listed start; the first is far from it.
    for starts, correct in (([start + 5000, start], True), ([start + 5000], False)):
        with open(side, "w") as f:
            json.dump({**meta, "pss_starts": starts}, f)
        assert main(["detect", "--stream", stored_stream, "--engine", "mf_opt:os2",
                     "--threshold", "6.0"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["detected"] is True
        assert res["correct"] is correct


def test_detect_command_rejects_other_sample_rates(stored_stream, capsys):
    side = stored_stream + ".json"
    meta = json.load(open(side))
    meta["sample_rate_hz"] = 30.72e6
    with open(side, "w") as f:
        json.dump(meta, f)
    assert main(["detect", "--stream", stored_stream,
                 "--engine", "mf_opt:os2", "--threshold", "6.0"]) == 1
    assert "Hz" in capsys.readouterr().err


def test_detect_command_rejects_other_sample_rates_before_calibrating(
        stored_stream, capsys, no_calibration):
    side = stored_stream + ".json"
    meta = json.load(open(side))
    with open(side, "w") as f:
        json.dump({**meta, "sample_rate_hz": 30.72e6}, f)
    assert main(["detect", "--stream", stored_stream, "--engine", "mf_opt:os2"]) == 1
    assert "sample_rate_hz must be 1.92e+06 Hz" in capsys.readouterr().err


@pytest.mark.parametrize("engine, length", [("mf_opt:os2", 50), ("mf_opt:os2", 127),
                                            ("mf_opt:os1", 126)])
def test_detect_command_rejects_short_streams_before_calibrating(
        tmp_path, capsys, no_calibration, engine, length):
    path = str(tmp_path / "short.iq")
    write_stream(RxStream(samples=np.ones(length, dtype=complex)), path)
    assert main(["detect", "--stream", path, "--engine", engine]) == 1
    assert f"stream of {length} samples holds no full" in capsys.readouterr().err
    # One more sample gives the engine its one window.
    write_stream(RxStream(samples=np.ones(length + 1, dtype=complex)), path)
    assert main(["detect", "--stream", path, "--engine", engine,
                 "--threshold", "1.0"]) == (1 if length == 50 else 0)


@pytest.mark.parametrize("key, value", [("sample_rate_hz", None), ("pss_starts", 100),
                                        ("pss_starts", [2**70])])
def test_detect_command_rejects_mistyped_sidecars(stored_stream, capsys, key, value):
    side = stored_stream + ".json"
    meta = json.load(open(side))
    with open(side, "w") as f:
        json.dump({**meta, key: value}, f)
    assert main(["detect", "--stream", stored_stream,
                 "--engine", "mf_opt:os2", "--threshold", "6.0"]) == 1
    assert f"{key} must be" in capsys.readouterr().err


def test_detect_command_self_calibrates(stored_stream, capsys):
    assert main(["detect", "--stream", stored_stream,
                 "--engine", "cluster:k8:os2", "--cal-trials", "100"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["engine"] == "cluster_k8_os2"
    assert res["threshold"] > 0


# ---------------------------------------------------------------------------
# Experiment commands (tiny runs with precomputed thresholds).
# ---------------------------------------------------------------------------

@pytest.fixture()
def thresholds_file(tmp_path):
    path = str(tmp_path / "lam.json")
    with open(path, "w") as f:
        json.dump({"mf_opt_os2": 6.0, "cluster_k8_os2": 5.5}, f)
    return path


def test_pmd_command(tmp_path, thresholds_file, capsys):
    args = ["pmd", "--engines", "mf_opt:os2", "--snr", "-2,0",
            "--trials", "20", "--seed", "3",
            "--thresholds", thresholds_file,
            "--output-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    lines = (tmp_path / "pmd.csv").read_text().splitlines()
    assert lines[0] == "snr_db,engine,k,oversample,trials,misses,pmd,ci_lo,ci_hi"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "-2.0" and first[1] == "mf_opt_os2"
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert manifest["command"] == "pmd"
    assert manifest["snr"] == [-2.0, 0.0]
    assert manifest["trials"] == 20


def test_pmd_rerun_is_byte_identical(tmp_path, thresholds_file, capsys):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["pmd", "--engines", "mf_opt:os2,cluster:k8:os2",
                     "--snr", "-3", "--trials", "15", "--seed", "11",
                     "--thresholds", thresholds_file,
                     "--output-dir", str(d)]) == 0
        outs.append((d / "pmd.csv").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_pmd_config_file_merge(tmp_path, thresholds_file, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "engines": "mf_opt:os2", "snr": [-2.0], "trials": 10,
        "thresholds": thresholds_file,
    }))
    # The explicit flag beats the config value.
    assert main(["pmd", "--config", str(config), "--trials", "12",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert manifest["trials"] == 12
    assert manifest["engines"] == "mf_opt:os2"


def test_pmd_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"snr_grid": [-2.0]}))
    assert main(["pmd", "--config", str(config)]) == 1
    capsys.readouterr()


def test_manifest_reruns_pmd_byte_identically(tmp_path, thresholds_file, capsys):
    first = tmp_path / "first"
    assert main(["pmd", "--engines", "mf_opt:os2", "--snr", "-2",
                 "--trials", "10", "--seed", "9",
                 "--thresholds", thresholds_file,
                 "--output-dir", str(first)]) == 0
    second = tmp_path / "second"
    manifest = json.load(open(first / "manifest.json"))
    manifest["output_dir"] = str(second)
    rerun_cfg = tmp_path / "rerun.json"
    rerun_cfg.write_text(json.dumps(manifest))
    assert main(["pmd", "--config", str(rerun_cfg)]) == 0
    capsys.readouterr()
    assert (first / "pmd.csv").read_bytes() == (second / "pmd.csv").read_bytes()


def test_manifest_stores_threshold_values(tmp_path, thresholds_file, capsys):
    first = tmp_path / "first"
    assert main(["pmd", "--engines", "mf_opt:os2", "--snr", "-6,-2",
                 "--trials", "20", "--seed", "9",
                 "--thresholds", thresholds_file,
                 "--output-dir", str(first)]) == 0
    manifest = json.load(open(first / "manifest.json"))
    assert manifest["thresholds"] == {"mf_opt_os2": 6.0}
    # A later change to the file must not reach a rerun.
    with open(thresholds_file, "w") as f:
        json.dump({"mf_opt_os2": 1e9, "cluster_k8_os2": 1e9}, f)
    second = tmp_path / "second"
    manifest["output_dir"] = str(second)
    rerun_cfg = tmp_path / "rerun.json"
    rerun_cfg.write_text(json.dumps(manifest))
    assert main(["pmd", "--config", str(rerun_cfg)]) == 0
    capsys.readouterr()
    assert (first / "pmd.csv").read_bytes() == (second / "pmd.csv").read_bytes()
    assert json.load(open(second / "manifest.json")) == manifest


@pytest.fixture()
def no_calibration(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("calibrate_thresholds was reached")

    monkeypatch.setattr("pssdet.detector.calibrate_thresholds", reached)


@pytest.mark.parametrize("argv, config", [
    (["--fading", "rayleigh_jakes"], None),
    ([], {"fading": "rayleigh_jakes"}),
    (["--snr", "1e6"], None),
    (["--snr", "-4,3070"], None),
    (["--snr=,"], None),
    (["--snr", "5:1:1"], None),
    (["--ppm", "1e300"], None),
    ([], {"ppm": -480}),
], ids=["jakes_flag", "jakes_config", "snr_1e6", "snr_3070", "snr_empty_list",
        "snr_empty_range", "ppm_1e300", "ppm_-480_config"])
def test_pmd_rejects_bad_channels_before_calibrating(tmp_path, capsys,
                                                     no_calibration, argv, config):
    out = tmp_path / "out"
    args = ["pmd", "--engines", "mf_opt:os2", "--trials", "2",
            "--cal-trials", "100", "--output-dir", str(out), *argv]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert main(args) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ppm", ["1e300", "1000", "480"])
def test_acq_rejects_aliasing_cfo_before_calibrating(tmp_path, capsys, no_calibration,
                                                     ppm):
    out = tmp_path / "out"
    assert main(["acq", "--engines", "mf_opt:os2", "--trials", "2", "--ppm", ppm,
                 "--output-dir", str(out)]) == 1
    assert "within +-480 ppm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["calibrate"],
    ["pmd", "--snr", "0", "--cal-trials", "100"],
], ids=["calibrate", "pmd"])
def test_repeated_engine_exits_1_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--engines", "mf_opt:os2,cluster:k8,mf_opt:os2",
                 "--trials", "100", "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert "mf_opt_os2" in captured.err
    assert "threshold" not in captured.out
    assert not out.exists()


def test_config_of_another_command_is_refused(tmp_path, capsys):
    cal = tmp_path / "cal"
    assert main(["calibrate", "--engines", "mf_opt:os1", "--trials", "100",
                 "--output-dir", str(cal)]) == 0
    capsys.readouterr()
    written = {p.name: p.read_bytes() for p in cal.iterdir()}
    assert main(["pmd", "--config", str(cal / "manifest.json")]) == 1
    assert "config key 'command' must be 'pmd', got 'calibrate'" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in cal.iterdir()} == written


@pytest.mark.parametrize("command, config", [
    ("calibrate", {"trials": "10"}),
    ("calibrate", {"seed": True}),
    ("calibrate", {"pfa": "0.1"}),
    ("calibrate", {"engines": ["mf_opt:os2"]}),
    ("pmd", {"snr": [-2.0, "0"]}),
    ("pmd", {"thresholds": 6.0}),
    ("pmd", {"thresholds": {"mf_opt_os2": "6.0"}}),
    ("acq", {"snr": [-2.0]}),
    ("acq", {"max_half_frames": 4.0}),
    ("pmd", {"thresholds": {"mf_opt_os2": float("nan")}}),
    ("pmd", {"thresholds": {"mf_opt_os2": 10**400}}),
    # A config names no command or the one it is given to.
    ("pmd", {"command": "acq"}),
    ("acq", {"command": None}),
    ("calibrate", {"command": 5}),
])
def test_config_values_must_have_the_flag_type(tmp_path, capsys, no_calibration,
                                               command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"engines": "mf_opt:os2", "trials": 2,
                               "output_dir": str(tmp_path / "out"), **config}))
    assert main([command, "--config", str(cfg)]) == 1
    key = next(iter(config))
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [True, "6.0", None, float("nan"), 10**400],
                         ids=["bool", "string", "null", "nan", "int_too_large"])
def test_threshold_files_hold_numbers_other_than_nan(tmp_path, capsys,
                                                     no_calibration, value):
    path = tmp_path / "lam.json"
    path.write_text(json.dumps({"mf_opt_os2": value}))
    out = tmp_path / "out"
    assert main(["pmd", "--engines", "mf_opt:os2", "--snr", "0", "--trials", "2",
                 "--thresholds", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: thresholds")
    assert not out.exists()


def test_threshold_files_accept_infinity(tmp_path, capsys, no_calibration):
    # +inf never detects, so every trial misses.
    path = tmp_path / "lam.json"
    path.write_text(json.dumps({"mf_opt_os2": float("inf")}))
    assert main(["pmd", "--engines", "mf_opt:os2", "--snr", "10", "--trials", "2",
                 "--thresholds", str(path), "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    row = (tmp_path / "pmd.csv").read_text().splitlines()[1].split(",")
    assert row[5] == "2"


def test_config_accepts_ints_for_float_flags(tmp_path, thresholds_file, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "engines": "mf_opt:os2", "snr": 10, "ppm": 0, "trials": 3,
        "max_half_frames": 2, "profile": "awgn", "fading": "static",
        "thresholds": thresholds_file, "output_dir": str(tmp_path),
    }))
    assert main(["acq", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps({
        "engines": "mf_opt:os2", "snr": [-2, 0], "trials": 3,
        "thresholds": {"mf_opt_os2": 6}, "output_dir": str(tmp_path),
    }))
    assert main(["pmd", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert json.load(open(tmp_path / "manifest.json"))["snr"] == [-2.0, 0.0]


def test_acq_command(tmp_path, thresholds_file, capsys):
    args = ["acq", "--engines", "mf_opt:os2", "--snr", "10", "--ppm", "0",
            "--trials", "5", "--max-half-frames", "4",
            "--profile", "awgn", "--fading", "static", "--seed", "2",
            "--thresholds", thresholds_file, "--output-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    lines = (tmp_path / "acq_results.csv").read_text().splitlines()
    assert lines[0] == "engine,k,oversample,ppm,trial,half_frames,time_ms,censored"
    assert len(lines) == 6
    assert all(row.split(",")[5] == "1" for row in lines[1:])  # easy SNR
    cdf = (tmp_path / "acq_cdf.csv").read_text().splitlines()
    assert cdf[0] == "engine,k,oversample,ppm,time_ms,cdf"
    assert len(cdf) == 5
    assert json.load(open(tmp_path / "manifest.json"))["command"] == "acq"


def test_acq_rejects_empty_cap(tmp_path, thresholds_file, capsys):
    args = ["acq", "--engines", "mf_opt:os2", "--trials", "2",
            "--max-half-frames", "0", "--profile", "awgn",
            "--fading", "static", "--thresholds", thresholds_file,
            "--output-dir", str(tmp_path)]
    assert main(args) == 1
    assert "max_half_frames" in capsys.readouterr().err
    assert not (tmp_path / "acq_results.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_acq_rejects_fewer_than_one_job(tmp_path, thresholds_file, capsys, jobs):
    out = tmp_path / "out"
    args = ["acq", "--engines", "mf_opt:os2", "--trials", "2",
            "--max-half-frames", "2", "--profile", "awgn",
            "--fading", "static", "--thresholds", thresholds_file,
            "--jobs", jobs, "--output-dir", str(out)]
    assert main(args) == 1
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Operation benchmarking.
# ---------------------------------------------------------------------------

def test_bench_ops_command(tmp_path, capsys):
    # The eight engines of acceptance criterion 3.  Every count is an int
    # except the folded filter's adds, (2N - 1) / 2; comparing the text
    # tells 127 from 127.0.
    out = str(tmp_path / "ops.json")
    engines = ("mf_brute:os1,mf_brute:os2,mf_opt:os1,mf_opt:os2,"
               "cluster:k6:os2,cluster:k8:os2,cluster:k16:os2,cluster:k8:os1")
    assert main(["bench-ops", "--engines", engines, "--out", out]) == 0

    def row(engine, n, k, os_, cm, ca):
        return {"engine": engine, "N": n, "K": k, "oversampling": os_,
                "cm_per_sample": cm, "ca_per_sample": ca, "data_moves": 0}

    expected = json.dumps([
        row("mf_brute", 64, None, 1, 64, 63),
        row("mf_brute", 128, None, 2, 128, 127),
        row("mf_opt", 64, None, 1, 33, 63.5),
        row("mf_opt", 128, None, 2, 65, 127.5),
        row("cluster", 128, 6, 2, 6, 127),
        row("cluster", 128, 8, 2, 8, 127),
        row("cluster", 128, 16, 2, 16, 127),
        row("cluster", 64, 8, 1, 8, 63),
    ], indent=2)
    assert capsys.readouterr().out == expected + "\n"
    assert open(out).read() == expected + "\n"


def test_bench_ops_matches_library():
    row = bench_ops(EngineConfig("cluster", num_clusters=16))
    assert row["cm_per_sample"] == 16
    assert row["ca_per_sample"] == 127
