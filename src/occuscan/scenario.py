"""Scenario files: one YAML document driving calibration, sweeps, and eval.

A scenario names the channel plan, per-channel signal/noise/schedule
parameters (defaults plus per-channel overrides keyed "BAND:INDEX"),
detector thresholds, and the calibration/eval settings. ``SCHEMA`` is the
one table of its keys: each key's type, default and one-field bounds. At
load every mapping in the document is checked against it, so a misspelled
key ends in "<path>.<key>: unknown key" instead of silently taking a
default. Parse errors cite the YAML line; validation errors name the field.

All randomness derives from ``master_seed``: a purpose tag plus the channel's
(band position, index) feed SeedSequence's mixing (``derive_seeds``, one batch
over columns of tags: a plan's signal or noise seeds at once), so any sub-result
can be regenerated in isolation and no two purposes share a stream. An
explicit ``seed`` key on a signal/noise mapping overrides the derivation.
"""

from __future__ import annotations

import math
import re
from collections.abc import Hashable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .channels import BUILTIN_BANDS, BandSpec, Channel, build_channel_plan
from .detector_table import DETECTORS
from .detectors import DetectorConfig, load_reference
from .errors import OccuscanError


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also accepts exponent floats without a sign (1.0e6), and refuses a
    key given twice in one mapping.

    Stock pyyaml follows YAML 1.1, where "1.0e6" is a string unless written
    "1.0e+6"; sample rates trip over that constantly. It also keeps the last of
    two equal keys without a word.
    """

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:  # a "<<" merge's keys are overridden, not repeated
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=True)
                if isinstance(key, Hashable):  # the base constructor refuses the others
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"duplicate key {key!r}", key_node.start_mark)
                    seen.add(key)
        return super().construct_mapping(node, deep)


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?
        |[-+]?[0-9]+[eE][-+]?[0-9]+
        |[-+]?\.[0-9]+(?:[eE][-+]?[0-9]+)?)$""",
        re.X,
    ),
    list("-+0123456789."),
)

# seed-derivation purpose tags
SEED_CHANNEL_NOISE = 10
SEED_CHANNEL_SIGNAL = 11
SEED_CAL_NOISE = 20
SEED_CAL_SIGNAL = 21
SEED_EVAL_NOISE = 30
SEED_EVAL_SIGNAL = 31


def derive_seeds(master_seed: int, *tag_columns) -> list[int]:
    """The first uint64 that ``SeedSequence((master_seed, *tags))`` generates, for each row
    of the tag columns, each one int or a list of one int per row.

    ``synth._seed_states`` mixes the rows in one batch without numpy.random, so a process
    that only derives seeds (simulate's, when pool workers draw) never loads it.
    """
    from .synth import _seed_states

    for column in (master_seed, *tag_columns):
        for value in column if isinstance(column, list) else [column]:
            if not 0 <= value <= 2**64 - 1:
                raise ValueError(f"seed entropy must be integers >= 0 and < 2**64, got {value}")
    return _seed_states([master_seed, *tag_columns], 1)[:, 0].tolist()


class Field(NamedTuple):
    """One scenario key: its type, default and one-field bounds.

    ``default`` is REQUIRED, or None to leave an absent key to its reader.
    ``bounds`` are (test, reason) pairs; a reason may cite the value as {v},
    and a list's bounds hold for each number in it. A ``load`` key is checked
    at load, the rest where a command reads them. The keys of a mapping value,
    of each entry of a list or, with ``each``, of each value of a mapping are
    those of SCHEMA[section].
    """

    kind: type
    default: object = None
    bounds: tuple = ()
    load: bool = False
    section: str | None = None
    each: bool = False


REQUIRED = object()


def _at_least(low: int):
    return lambda v: v >= low, f"must be >= {low}"


def _at_most(high: int):
    return lambda v: v <= high, f"must be at most {high:,}, got {{v:,}}"


# 10 ** (snr_db / 10), the SNR's power ratio, overflows a float from about 3082.5 dB
_SNR = ((lambda v: v < 3082.0, "must be a number < 3082 (-.inf for no signal), got {v}"),)
_POSITIVE = ((lambda v: 0 < v < math.inf, "must be a finite number > 0"),)
# eval holds each trial's statistics (24 bytes a hypothesis) and calibrate each
# threshold frame's energy in memory; a sweep spends time on each of its frames
_MAX_FRAMES = 10**8
# a kernel block of 32 frames of 2^20 samples is 512 MiB of complex128, and
# eval holds three (noise, BPSK signal, mix). A BPSK symbol held longer than a
# frame gives the same frames, but signal_rows repeats it divisor times before
# cutting the row.
_FRAME_LEN = _at_most(2**20)
# building the plan makes a Channel (some 160 bytes) a channel, and simulate
# builds each channel's specs: 10^5 channels, some 800 times the builtin plan
_MAX_CHANNELS = 10**5
_SIGNAL, _NOISE = Field(dict, section="signal"), Field(dict, section="noise")

SCHEMA = {
    "scenario": {
        "name": Field(str, "scenario", load=True),
        "master_seed": Field(int, 0, ((lambda v: 0 <= v <= 2**64 - 1,
                                        "must fit in an unsigned 64-bit integer"),), load=True),
        "sample_rate_hz": Field(float, 1e6, _POSITIVE, load=True),  # read by no command
        "start_time_unix": Field(float, 0.0, ((math.isfinite, "must be finite"),), load=True),
        "frame_len": Field(int, REQUIRED, (_at_least(1), _FRAME_LEN), load=True),
        "frame_interval_s": Field(float, REQUIRED, _POSITIVE),
        "total_s": Field(float, REQUIRED, ((lambda v: 0 <= v < math.inf,
                                            "must be a finite number >= 0"),)),
        "bin_len_s": Field(float, 3600.0, load=True),  # read by no command
        "plan": Field(list, "builtin", section="plan"),
        "defaults": Field(dict, {}, section="channel"),
        "channels": Field(dict, {}, load=True, section="channel", each=True),
        "detector": Field(dict, {}, load=True, section="detector"),
        "calibration": Field(dict, {}, section="calibration"),
        "eval": Field(dict, {}, section="eval"),
    },
    "plan": {"spacing_mhz": Field(list, REQUIRED), "name": Field(str, REQUIRED),
             "start_mhz": Field(float, REQUIRED), "stop_mhz": Field(float, REQUIRED),
             "expected_channels": Field(int, REQUIRED, (_at_most(_MAX_CHANNELS),))},
    # defaults, and each channels override
    "channel": {"snr_db": Field(float, None, _SNR, load=True), "signal": _SIGNAL,
                "noise": _NOISE, "schedule": Field(dict, section="schedule")},
    # absent keys take SignalSpec's defaults; seeds derive from master_seed
    "signal": {"kind": Field(str, REQUIRED), "normalized_freq": Field(float),
               "symbol_rate_divisor": Field(int, None, (_FRAME_LEN,)),
               "amplitude": Field(float), "phase": Field(float), "seed": Field(int)},
    "noise": {"total_power": Field(float, 1.0), "seed": Field(int)},
    "schedule": {"period_s": Field(float, REQUIRED), "on_intervals": Field(list)},
    "detector": {"reference": Field(str, REQUIRED), "lambda_ed": Field(float, REQUIRED),
                 "lambda_acf": Field(float, REQUIRED), "gamma": Field(float, REQUIRED),
                 "acf_lags": Field(int, 8, (_at_least(2),), load=True)},
    "calibration": {"signal": _SIGNAL, "noise": _NOISE, "snr_db": Field(float, 20.0, _SNR),
                    "reference_frames": Field(int, 100, (_at_least(1), _at_most(_MAX_FRAMES))),
                    "threshold_frames": Field(int, 10000, (_at_least(100),
                                                           _at_most(_MAX_FRAMES))),
                    "target_pfa": Field(float, 0.05, ((lambda v: 0 < v < 1,
                                                       "must lie in (0, 1)"),))},
    # frame_len defaults to the sweep's; roc_thresholds maps detector names to lists
    "eval": {"signal": _SIGNAL, "noise": _NOISE,
             "trials": Field(int, 10000, (_at_least(1), _at_most(_MAX_FRAMES))),
             "frame_len": Field(int, None, (_FRAME_LEN,), load=True),
             "snr_db_points": Field(list, [0.0, 5.0, 10.0, 20.0], _SNR),
             "roc_snr_db": Field(float, 5.0, _SNR), "roc_thresholds": Field(dict, {})},
}


def _key_path(path: str, key: str) -> str:
    """The path that names ``key`` of the mapping at ``path``; a root key is named bare."""
    return f"{path}.{key}" if path else key


def _value(value, field: Field, where: str):
    """``value`` checked against a field's type (an integer is a number too) and bounds."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if field.kind is float else field.kind):
        expected = {float: "a number", int: "an integer", str: "a string", list: "a list",
                    dict: "a mapping"}[field.kind]
        raise OccuscanError(f"{where}: expected {expected}, got {type(value).__name__}")
    if field.kind is list and field.bounds:
        return _numbers(value, where, field.bounds)
    value = float(value) if field.kind is float else value
    for ok, why in field.bounds:
        if not ok(value):
            raise OccuscanError(f"{where}: {why.format(v=value)}")
    return value


def _numbers(values: list, path: str, bounds: tuple = ()) -> list[float]:
    """The entries of a YAML list as floats within ``bounds``; an entry is named by its index."""
    return [_value(v, Field(float, bounds=bounds), f"{path}[{i}]") for i, v in enumerate(values)]


def _field(mapping, key: str, section="scenario", path="", required=False):
    """mapping[key] checked against SCHEMA[section][key], or its default when absent.

    ``required`` makes an optional key required.
    """
    if not isinstance(mapping, dict):
        raise OccuscanError(f"{path}: expected a mapping, got {type(mapping).__name__}")
    field = SCHEMA[section][key]
    if key in mapping:
        return _value(mapping[key], field, _key_path(path, key))
    if required or field.default is REQUIRED:
        raise OccuscanError(f"{_key_path(path, key)}: required field is missing")
    return field.default


def _read(section: str, mapping, path: str) -> dict:
    """Each key of SCHEMA[section] but its mappings, read from ``mapping``.

    An absent key with no default is left out.
    """
    values = {key: _field(mapping, key, section, path)
              for key, field in SCHEMA[section].items() if field.section is None}
    return {key: value for key, value in values.items() if value is not None}


def _check(node: dict, section="scenario", path="") -> None:
    """Check the keys of ``node``, and of every mapping below it, against SCHEMA.

    An unknown key, or a bad value of a ``load`` key, raises an OccuscanError
    naming it; any other value is left to its reader.
    """
    for key, value in node.items():
        field, where = SCHEMA[section].get(key), _key_path(path, key)
        if field is None:
            raise OccuscanError(f"{where}: unknown key")
        if field.load:
            _value(value, field, where)
        if field.section is None or not isinstance(value, field.kind):
            continue
        children = ([(f"{where}[{i}]", v) for i, v in enumerate(value)] if field.kind is list
                    else [(f"{where}.{k}", v) for k, v in value.items()] if field.each
                    else [(where, value)])
        for child_path, child in children:
            if isinstance(child, dict):
                _check(child, field.section, child_path)


def _spec(cls, path: str, fields: dict):
    """cls(**fields), its TypeError or ValueError raised as an OccuscanError naming ``path``."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise OccuscanError(f"{path}: {exc}") from exc


def _synth_spec(section: str, mapping, path: str, **given):
    """The SignalSpec, NoiseSpec or OccupancySchedule of ``mapping``.

    ``given`` fills absent keys; synth is imported here, where specs are built.
    """
    from . import synth

    fields = {**given, **_read(section, mapping, path)}
    pairs = fields.get("on_intervals", ())
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise OccuscanError(f"{path}.on_intervals[{i}]: expected [start_s, end_s]")
    if pairs:
        fields["on_intervals"] = tuple(tuple(_numbers(pair, f"{path}.on_intervals[{i}]"))
                                       for i, pair in enumerate(pairs))
    cls = {"signal": synth.SignalSpec, "noise": synth.NoiseSpec,
           "schedule": synth.OccupancySchedule}[section]
    return _spec(cls, path, fields)


def _check_power(signal, snr_dbs: dict, path: str) -> None:
    """Raise unless a tone or bpsk signal has power to scale to each finite SNR.

    ``snr_dbs`` maps each SNR's field name to its value; an amplitude of 0,
    or one whose square underflows to 0, leaves the signal no power.
    """
    finite = [(name, snr) for name, snr in snr_dbs.items() if snr != -math.inf]
    if signal.kind != "none" and signal.nominal_power == 0 and finite:
        raise OccuscanError(f"{path}.amplitude: {signal.amplitude!r} gives the {signal.kind} "
                            f"signal no power to scale to {finite[0][0]} {finite[0][1]!r} "
                            "(use a larger amplitude, or snr_db -.inf)")


class Scenario:
    """Parsed scenario document plus the path it was loaded from."""

    def __init__(self, data: dict, path: Path | None = None):
        if not isinstance(data, dict):
            raise OccuscanError(f"scenario root: expected a mapping, got {type(data).__name__}")
        _check(data)
        self.data = data
        self.path = Path(path) if path is not None else None
        self._plan = None
        for key in ("name", "master_seed", "start_time_unix"):
            setattr(self, key, _field(data, key))
        # every frame must hold all the ACF lags the detectors use
        lags = self.acf_lags()
        for name, section in (("frame_len", data), ("eval.frame_len", data.get("eval"))):
            if isinstance(section, dict) and section.get("frame_len", lags) < lags:
                raise OccuscanError(f"{name}: must be >= detector.acf_lags ({lags})")
        # cross-check override keys early so typos fail loudly
        if "channels" in data:
            plan_keys = {f"{c.band}:{c.index_in_band}" for c in self.plan()}
            for key in data["channels"]:
                if key not in plan_keys:
                    raise OccuscanError(f"channels.{key}: channel is not in the plan")

    @classmethod
    def load(cls, path) -> "Scenario":
        path = Path(path)
        try:
            data = yaml.load(path.read_text(encoding="utf-8"), Loader=_ScenarioLoader)
        except (OSError, UnicodeDecodeError) as exc:
            raise OccuscanError(f"cannot read scenario {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)  # the line, where the reader knows it
            where, why = (path, exc) if mark is None else (f"{path}:{mark.line + 1}", exc.problem)
            raise OccuscanError(f"{where}: {why}") from exc
        if data is None:
            raise OccuscanError(f"{path}: scenario file is empty")
        return cls(data, path)

    # --- plan ---------------------------------------------------------------

    def plan(self) -> list[Channel]:
        """The channel plan, in (band position, channel index) order; built once."""
        if self._plan is None:
            plan = self.data.get("plan", "builtin")
            if plan != "builtin" and not isinstance(plan, list):
                raise OccuscanError("plan: expected 'builtin' or a list of band mappings")
            specs = BUILTIN_BANDS if plan == "builtin" else [
                _spec(BandSpec, f"plan[{i}]", _read("plan", row, f"plan[{i}]"))
                for i, row in enumerate(plan)]
            channels = sum(spec.expected_channels for spec in specs)
            if channels > _MAX_CHANNELS:
                raise OccuscanError(f"plan: the bands would hold {channels:,} channels, "
                                    f"more than {_MAX_CHANNELS:,}")
            self._plan = build_channel_plan(specs)
        return self._plan

    # --- per-channel synthesis ----------------------------------------------

    def sweep_params(self) -> tuple:
        """The plan's spec table, ``synth.channel_windows``' input: (specs, spec, signal_seeds,
        noise_seeds), plan[i] drawn from specs[spec[i]] with signal_seeds[i] and noise_seeds[i].

        The specs are the defaults, named in errors by the first channel without an override,
        and each override, resolved once each in plan order. The seed columns derive in one
        batch; an explicit ``seed`` key is written into its channels' column.
        """
        plan = self.plan()
        band_pos = {band: i for i, band in enumerate(dict.fromkeys(c.band for c in plan))}
        position = [band_pos[c.band] for c in plan], [c.index_in_band for c in plan]
        seeds = {name: np.array(derive_seeds(self.master_seed, tag, *position), np.uint64)
                 for name, tag in (("signal", SEED_CHANNEL_SIGNAL), ("noise", SEED_CHANNEL_NOISE))}
        defaults, overrides = _field(self.data, "defaults"), self.data.get("channels", {})
        at = {f"{c.band}:{c.index_in_band}": i for i, c in enumerate(plan)} if overrides else {}
        own = {at[key]: override for key, override in overrides.items() if override != {}}
        default = next((i for i in range(len(plan)) if i not in own), None)
        row = {i: r for r, i in enumerate(sorted({*own, default} - {None}))}
        spec = np.full(len(plan), row.get(default, 0), np.intp)
        spec[list(own)] = [row[i] for i in own]
        specs = []
        for i in row:
            key, override = f"{plan[i].band}:{plan[i].index_in_band}", own.get(i, {})
            if not isinstance(override, dict):
                raise OccuscanError(f"channels.{key}: expected a mapping")
            m, where = {**defaults, **override}, f"channel {key}"
            if not {"signal", "noise", "schedule"} <= m.keys():
                raise OccuscanError(f"{where}: needs signal, noise and schedule "
                                    "(from defaults or a channels override)")
            snr_db = _field(m, "snr_db", "channel", where, required=True)  # load-checked
            signal = _synth_spec("signal", m["signal"], f"{where}.signal")
            noise = _synth_spec("noise", m["noise"], f"{where}.noise")
            schedule = _synth_spec("schedule", m["schedule"], f"{where}.schedule")
            _check_power(signal, {f"{where}.snr_db": snr_db}, f"{where}.signal")
            specs.append((signal, noise, schedule, snr_db))
            for name, given in (("signal", signal), ("noise", noise)):
                if "seed" in m[name]:
                    seeds[name][spec == row[i] if i == default else i] = given.seed
        return specs, spec, seeds["signal"], seeds["noise"]

    # --- sweep timing -------------------------------------------------------

    def frame_len(self) -> int:
        return _field(self.data, "frame_len")

    def frame_interval_s(self) -> float:
        return _field(self.data, "frame_interval_s")

    def sweep_frames(self) -> int:
        """Frames per channel, floor(total_s / frame_interval_s), checked.

        Frame k is captured at start_time_unix + k * frame_interval_s, a product
        and a sum each rounded by at most 2**-53 of its size: an interval over
        2**-50 of the times' size keeps every time above the last.
        """
        from .synth import frame_count

        interval, total = self.frame_interval_s(), _field(self.data, "total_s")
        channels = len(self.plan())
        if not channels * (total / interval) <= _MAX_FRAMES:
            raise OccuscanError(f"total_s: the sweep would make {channels * (total / interval):.3g}"
                                f" frames ({channels} channels), more than {_MAX_FRAMES:,}")
        frames, start = frame_count(total, interval), self.start_time_unix
        limit = (abs(start) + frames * interval) * 2**-50
        if frames > 1 and not interval > limit:
            raise OccuscanError(f"frame_interval_s: {interval!r} must exceed {limit:.3g}, or frame "
                                f"times from start_time_unix {start!r} round to one float")
        return frames

    # --- detector config ----------------------------------------------------

    def acf_lags(self) -> int:
        return _field(_field(self.data, "detector"), "acf_lags", "detector", "detector")

    def detector_config(self) -> DetectorConfig:
        fields = _read("detector", _field(self.data, "detector", required=True), "detector")
        ref_path = Path(fields["reference"])
        if self.path is not None:  # relative to the scenario file, unless absolute
            ref_path = self.path.parent / ref_path
        try:
            fields["reference"] = load_reference(ref_path)
        except (OSError, UnicodeDecodeError) as exc:
            raise OccuscanError(f"detector.reference: cannot read {ref_path}: {exc}") from exc
        return _spec(DetectorConfig, "detector", fields)

    # --- calibration and eval -----------------------------------------------

    def _section(self, name: str, signal_tag: int, noise_tag: int, required=False) -> dict:
        """A calibration or eval section's settings, with its SignalSpec and NoiseSpec.

        Its own signal and noise mappings, else those of defaults: a signal is
        required, the noise defaults to unit power. Seeds not given derive
        from master_seed and the purpose tags.
        """
        section = _field(self.data, name, required=required)
        defaults = _field(self.data, "defaults")
        signal = section.get("signal", defaults.get("signal"))
        if signal is None:
            raise OccuscanError(f"{name}.signal: required (directly or via defaults.signal)")
        noise = section.get("noise", defaults.get("noise", {}))
        seeds = derive_seeds(self.master_seed, [signal_tag, noise_tag])
        return {"signal": _synth_spec("signal", signal, f"{name}.signal", seed=seeds[0]),
                "noise": _synth_spec("noise", noise, f"{name}.noise", seed=seeds[1]),
                **_read(name, section, name)}

    def calibration(self) -> dict:
        cal = self._section("calibration", SEED_CAL_SIGNAL, SEED_CAL_NOISE)
        if cal["signal"].kind == "none" and cal["snr_db"] != -math.inf:
            raise OccuscanError("calibration.signal.kind: 'none' has no power to scale to "
                                f"calibration.snr_db {cal['snr_db']} "
                                "(use tone or bpsk, or snr_db -.inf)")
        _check_power(cal["signal"], {"calibration.snr_db": cal["snr_db"]}, "calibration.signal")
        return {**cal, "acf_lags": self.acf_lags()}

    def eval_settings(self) -> dict:
        ev = self._section("eval", SEED_EVAL_SIGNAL, SEED_EVAL_NOISE, required=True)
        thresholds = {}
        for det, thrs in ev["roc_thresholds"].items():
            path = f"eval.roc_thresholds.{det}"
            if det not in DETECTORS:
                raise OccuscanError(f"{path}: unknown detector")
            if not isinstance(thrs, list) or len(thrs) < 2:
                raise OccuscanError(f"{path}: expected a list of >= 2 thresholds")
            thresholds[det] = _numbers(thrs, path)
            if not all(a < b for a, b in zip(thresholds[det], thresholds[det][1:])):
                raise OccuscanError(f"{path}: must be strictly increasing")
        snr_dbs = {f"eval.snr_db_points[{i}]": v for i, v in enumerate(ev["snr_db_points"])}
        _check_power(ev["signal"], {**snr_dbs, "eval.roc_snr_db": ev["roc_snr_db"]}, "eval.signal")
        return {**ev, "frame_len": ev.get("frame_len") or self.frame_len(),
                "snr_db_points": list(ev["snr_db_points"]), "roc_thresholds": thresholds}
