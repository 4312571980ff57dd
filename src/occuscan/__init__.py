"""occuscan: spectrum occupancy scanning with three sensing detectors.

The package simulates or ingests complex-baseband captures for every channel
in a plan, runs energy, lag-1 autocorrelation and correlation-distance
detectors on each frame, and aggregates the decisions into time-binned
occupancy tables.

The names in ``__all__`` are loaded on first use (PEP 562): ``import
occuscan`` loads neither a submodule nor numpy, so ``occuscan.cli`` can set
its BLAS thread count before numpy starts, and a library user's environment
is left alone. ``from occuscan import X`` and ``occuscan.detectors`` work as
with eager imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; each submodule's name maps to itself
_MODULE_OF = {name: module for module, names in {
    "channels": ("BUILTIN_BANDS", "BandSpec", "Channel", "build_channel_plan", "builtin_plan"),
    "detector_table": ("DETECTOR_TABLE", "DETECTORS"),
    "detectors": ("AcfVector", "DetectorConfig", "acf", "acf1_statistic", "acf_vector",
                  "block_statistics", "calibrate_ed_threshold", "correlation_distance",
                  "energy_statistic", "load_reference", "save_reference"),
    "errors": ("OccuscanError", "SampleDataError", "UsageError"),
    "iq": ("ComplexFrame", "RecordingMeta", "read_meta"),
    "report": ("write_occupancy_csv",),
    "scan": ("ScanRecord", "scan_channel"),
    "scenario": ("Scenario",),
    "synth": ("NoiseSpec", "OccupancySchedule", "SignalSpec", "gen_channel_timeline",
              "gen_noise_frame", "gen_signal_frame", "snr_scale"),
}.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = import_module(f".{module}", __name__)
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *__all__})
