"""The benchmark workloads and how one round of each is run.

A run repeats whole rounds of one workload until its time is up.  A
round is one ``pssdet`` command-line invocation; round r of a run at
program seed S passes ``--seed S + r * trials_per_round``, so rounds
continue the trial index (trial t uses seed + t inside the program) and
never share a trial.  Workload seeds map to program seeds SEED_STRIDE
apart, far more than any run's trial count.

Standard library only: the orchestrator imports this before any
numpy import, and the worker imports it before pssdet.
"""

from __future__ import annotations

from dataclasses import dataclass

HALF_FRAME_MS = 5.0
HALF_FRAME_SAMPLES = 9600  # native 1.92 MHz samples in one 5 ms half frame
PFA = 0.1

ALL5 = "mf_opt:os1,mf_opt:os2,cluster:k6:os2,cluster:k8:os2,cluster:k16:os2"
PMD_ENGINES = "mf_opt:os1,mf_opt:os2,cluster:k8:os2"
ACQ_ENGINES = "mf_opt:os2,cluster:k16:os2,cluster:k8:os2,cluster:k6:os2"
PMD_GRID = (-9.0, -8.0, -7.0, -5.0, -4.0, -3.0, -2.0)

SEED_STRIDE = 10**10
# Threshold calibration draws from a trial range no round reaches.
CALIBRATION_OFFSET = SEED_STRIDE // 2
CALIBRATION_TRIALS = 100


def program_seed(workload_seed: int) -> int:
    return workload_seed * SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    engines: str
    trials_per_round: int
    extra_args: tuple = ()
    max_half_frames: int | None = None

    @property
    def needs_thresholds(self) -> bool:
        return self.command != "calibrate"

    @property
    def trials_in_round(self) -> int:
        """Monte Carlo trials one round attempts (pmd: per SNR point)."""
        if self.command == "pmd":
            return self.trials_per_round * len(PMD_GRID)
        return self.trials_per_round

    def round_argv(self, seed: int, r: int, out_dir: str,
                   thresholds: str | None) -> list[str]:
        argv = [
            self.command, "--engines", self.engines,
            "--trials", str(self.trials_per_round),
            "--seed", str(seed + r * self.trials_per_round),
            "--jobs", "1", "--output-dir", out_dir, *self.extra_args,
        ]
        if self.max_half_frames is not None:
            argv += ["--max-half-frames", str(self.max_half_frames)]
        if thresholds is not None:
            argv += ["--thresholds", thresholds]
        return argv


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="calibrate",
            command="calibrate", engines=ALL5, trials_per_round=100,
            extra_args=("--pfa", repr(PFA)),
        ),
        Workload(
            name="pmd_awgn",
            command="pmd", engines=PMD_ENGINES, trials_per_round=10,
            extra_args=("--snr", ",".join(repr(s) for s in PMD_GRID),
                        "--profile", "awgn", "--fading", "static",
                        "--ppm", "0.0"),
        ),
        Workload(
            name="acq_tu6",
            command="acq", engines=ACQ_ENGINES, trials_per_round=6,
            extra_args=("--snr", "-5", "--ppm", "5.0", "--profile", "tu6",
                        "--fading", "rayleigh_block"),
            max_half_frames=30,
        ),
    )
}


def engine_tokens(engines: str) -> list[str]:
    return [tok for tok in engines.split(",") if tok]
