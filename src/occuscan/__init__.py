"""occuscan: spectrum occupancy scanning with three sensing detectors.

The package simulates or ingests complex-baseband captures for every channel
in a plan, runs energy, lag-1 autocorrelation and correlation-distance
detectors on each frame, and aggregates the decisions into time-binned
occupancy tables.
"""

__version__ = "0.1.0"

from .channels import BUILTIN_BANDS, BandSpec, Channel, build_channel_plan, builtin_plan
from .detectors import (
    DETECTOR_ACF1,
    DETECTOR_CDIST,
    DETECTOR_ED,
    DETECTOR_TABLE,
    DETECTORS,
    AcfVector,
    DetectorConfig,
    acf,
    acf1_statistic,
    acf_vector,
    block_statistics,
    calibrate_ed_threshold,
    calibrate_reference,
    correlation_distance,
    energy_statistic,
    load_reference,
    save_reference,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    CsvParseError,
    DegenerateFrameError,
    FrameConsistencyError,
    MetaFormatError,
    OccuscanError,
    PlanError,
    RoutingError,
    SampleDataError,
    ScenarioError,
    TruncationError,
    UsageError,
)
from .iq import ComplexFrame, RecordingMeta, read_meta, read_recording, write_meta, write_recording
from .report import OccupancyCell, aggregate, report_matrix, write_occupancy_csv
from .scan import ScanRecord, TruthRecord, run_sweep, scan_channel, write_records_csv
from .scenario import Scenario
from .synth import (
    NoiseSpec,
    OccupancySchedule,
    SignalSpec,
    gen_channel_timeline,
    gen_noise_frame,
    gen_signal_frame,
    mix_at_snr,
    snr_scale,
)

__all__ = [name for name in dir() if not name.startswith("_")]
