"""Low-complexity PSS detection with cluster-quantized correlators.

The package splits into five layers: reference waveform synthesis
(:mod:`pssdet.pss`), k-means template quantization
(:mod:`pssdet.clustering`), the three correlator engines, their
configurations and closed-form operation counts
(:mod:`pssdet.correlator`), channel and capture
simulation (:mod:`pssdet.channel`), and the detection pipeline with
its Monte Carlo experiments (:mod:`pssdet.detector`).  The ``pssdet``
console script in :mod:`pssdet.cli` drives all of it.
"""

from .pss import (
    CONJUGATE_ROOT,
    CP_LENGTH,
    PSS_ROOTS,
    ZC_LENGTH,
    add_cyclic_prefix,
    map_to_subcarriers,
    pss_time_domain,
    read_iq,
    write_iq,
    write_waveform_csv,
    zc_sequence,
)
from .clustering import (
    ClusterTable,
    conjugate_table,
    kmeans_cluster,
    save_table,
)
from .correlator import (
    EngineConfig,
    bench_ops,
    cluster_correlate,
    mf_correlate,
    mf_correlate_optimized,
)
from .channel import (
    ChannelScenario,
    embed_pss_in_halfframe,
    merge_taps,
    read_stream,
    write_stream,
)
from .detector import (
    DETECT_TOLERANCE,
    AcquisitionResult,
    BatchEvaluator,
    acquisition_cdf,
    acquisition_experiment,
    calibrate_threshold,
    calibrate_thresholds,
    detect,
    median_time_ci,
    pmd_crossing_db,
    pmd_experiment,
    wilson_ci,
)

__version__ = "0.1.0"

__all__ = [
    "DETECT_TOLERANCE",
    "AcquisitionResult",
    "ChannelScenario",
    "ClusterTable",
    "CONJUGATE_ROOT",
    "CP_LENGTH",
    "EngineConfig",
    "PSS_ROOTS",
    "ZC_LENGTH",
    "BatchEvaluator",
    "acquisition_cdf",
    "acquisition_experiment",
    "add_cyclic_prefix",
    "bench_ops",
    "calibrate_threshold",
    "calibrate_thresholds",
    "cluster_correlate",
    "conjugate_table",
    "detect",
    "embed_pss_in_halfframe",
    "kmeans_cluster",
    "map_to_subcarriers",
    "median_time_ci",
    "merge_taps",
    "mf_correlate",
    "mf_correlate_optimized",
    "pmd_crossing_db",
    "pmd_experiment",
    "pss_time_domain",
    "read_iq",
    "read_stream",
    "save_table",
    "wilson_ci",
    "write_iq",
    "write_stream",
    "write_waveform_csv",
    "zc_sequence",
]
