"""Golden outputs: short pmd, acq and detect runs through the command
line must write exactly the files recorded here.

Each run uses fixed thresholds (no calibration), pmd and acq also
``--jobs 1``, and the files they write are compared by md5 with the
values the code wrote when they were recorded.  A change meant to keep
every output byte-identical (a refactor, a speed-up) must leave them
alone.  A change meant to alter an output updates the hashes it
changes, with a CHANGES.md line that says which and why.
"""

import hashlib
import json

import pytest

from pssdet import (
    ChannelScenario,
    add_cyclic_prefix,
    embed_pss_in_halfframe,
    pss_time_domain,
    write_stream,
)
from pssdet.channel import TU6_TAPS
from pssdet.cli import main

THRESHOLDS = {"mf_opt_os1": 11.5, "mf_opt_os2": 6.16,
              "cluster_k8_os2": 5.52, "cluster_k16_os2": 5.88}

RUNS = {
    "pmd_awgn": ["pmd", "--snr", "-9,-7,-5,-3", "--trials", "60", "--seed", "5"],
    "pmd_tu6_block_5ppm": ["pmd", "--profile", "tu6", "--fading", "rayleigh_block",
                           "--ppm", "5", "--snr", "-3,0,3", "--trials", "60",
                           "--seed", "6"],
    "acq_tu6_block": ["acq", "--trials", "12", "--max-half-frames", "20", "--seed", "7"],
    "acq_tu6_jakes": ["acq", "--fading", "rayleigh_jakes", "--doppler-hz", "5.56",
                      "--ppm", "0.1", "--snr", "-8", "--trials", "20",
                      "--max-half-frames", "20", "--seed", "8"],
}

GOLDEN = {
    "pmd_awgn": {"pmd.csv": "07dd8d79567fe71538b8e4c15317007d"},
    "pmd_tu6_block_5ppm": {"pmd.csv": "e08f97c6bba2fe1e72895da8b0d184af"},
    "acq_tu6_block": {"acq_results.csv": "0637a445977732700e4c92dab5f98c9e",
                      "acq_cdf.csv": "595fab594a573566db8ee41e8466ab36"},
    "acq_tu6_jakes": {"acq_results.csv": "cbcc3ff263cbeb47af7a8800f3b45525",
                      "acq_cdf.csv": "eec6a4a252d74373abbaf0682003b15d"},
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_recorded_hashes(tmp_path, capsys, run):
    lam = tmp_path / "thresholds.json"
    lam.write_text(json.dumps(THRESHOLDS))
    out = tmp_path / "out"
    assert main([*RUNS[run], "--jobs", "1", "--thresholds", str(lam),
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    got = {name: hashlib.md5((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[run]}
    assert got == GOLDEN[run]


# Half frame 1 of a TU6 block-fading trial at 5 ppm, written as a stream
# file and scored by ``pssdet detect`` at both rates.
DETECT_SCENARIO = dict(taps=TU6_TAPS, fading="rayleigh_block", snr_db=-3.0,
                       cfo_ppm=5.0, timing_offset=2500, seed=9)
DETECT_ENGINES = {"mf_opt:os1": "mf_opt_os1", "cluster:k8:os2": "cluster_k8_os2"}

GOLDEN_DETECT = {
    "capture.iq": "f6171e6853d35b38dcca6f5ee808e057",
    "capture.iq.json": "4270b8f72861fbf0ad0fe64e5907d130",
    "mf_opt_os1.json": "21ed80aa5b02a098b8755586ae99d863",
    "cluster_k8_os2.json": "aa1057cd5f2f86f6562f441d0a724f81",
}


def test_detect_outputs_match_recorded_hashes(tmp_path, capsys):
    iq = tmp_path / "capture.iq"
    tx = add_cyclic_prefix(pss_time_domain(29, 128))
    write_stream(embed_pss_in_halfframe(tx, ChannelScenario(**DETECT_SCENARIO),
                                        half_frame=1), iq)
    for spec, key in DETECT_ENGINES.items():
        assert main(["detect", "--stream", str(iq), "--engine", spec,
                     "--threshold", repr(THRESHOLDS[key]),
                     "--out", str(tmp_path / f"{key}.json")]) == 0
    capsys.readouterr()
    got = {name: hashlib.md5((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_DETECT}
    assert got == GOLDEN_DETECT
