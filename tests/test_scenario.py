"""Scenario YAML parsing, validation messages, and seed derivation."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occuscan import BUILTIN_BANDS, Scenario, ScenarioError
from occuscan.detectors import acf_vector, save_reference
from occuscan.scenario import (
    REQUIRED,
    SCHEMA,
    SEED_CHANNEL_NOISE,
    SEED_CHANNEL_SIGNAL,
    _check,
    _ScenarioLoader,
    derive_seeds,
)
from occuscan.synth import NoiseSpec, OccupancySchedule, SignalSpec, gen_signal_frame

MINIMAL = """\
name: minimal
master_seed: 42
frame_len: 64
frame_interval_s: 0.5
total_s: 2.0

plan:
  - name: A
    start_mhz: 100.0
    stop_mhz: 110.0
    spacing_mhz: [5]
    expected_channels: 3

defaults:
  snr_db: 10.0
  signal:
    kind: tone
    normalized_freq: 0.1
  noise:
    total_power: 1.0
  schedule:
    period_s: 1.0
    on_intervals: [[0.0, 0.5]]

detector:
  reference: ref.txt
  lambda_ed: 1.05
  lambda_acf: 0.25
  gamma: 0.6
  acf_lags: 8

eval:
  trials: 100
"""


def _write(tmp_path, text, with_ref=True):
    p = tmp_path / "scn.yaml"
    p.write_text(text)
    if with_ref:
        ref = acf_vector(gen_signal_frame(64, SignalSpec(kind="tone", normalized_freq=0.1), 0), 8)
        save_reference(ref, tmp_path / "ref.txt")
    return p


class TestParsing:
    def test_minimal_loads(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        assert s.name == "minimal"
        assert s.master_seed == 42
        assert s.frame_len() == 64
        assert s.frame_interval_s() == 0.5
        assert s.sweep_frames() == 4  # total_s 2.0 at 0.5 s a frame
        assert len(s.plan()) == 3

    def test_builtin_plan_keyword(self, tmp_path):
        text = MINIMAL.replace(
            "plan:\n  - name: A\n    start_mhz: 100.0\n    stop_mhz: 110.0\n"
            "    spacing_mhz: [5]\n    expected_channels: 3\n",
            "plan: builtin\n",
        )
        s = Scenario.load(_write(tmp_path, text))
        assert len(s.plan()) == 123

    def test_plan_defaults_to_builtin(self, tmp_path):
        text = MINIMAL.replace(
            "plan:\n  - name: A\n    start_mhz: 100.0\n    stop_mhz: 110.0\n"
            "    spacing_mhz: [5]\n    expected_channels: 3\n",
            "",
        )
        s = Scenario.load(_write(tmp_path, text))
        assert len(s.plan()) == 123

    def test_exponent_floats_without_sign(self, tmp_path):
        text = MINIMAL + "sample_rate_hz: 2.4e6\n"
        s = Scenario.load(_write(tmp_path, text))
        assert s.data["sample_rate_hz"] == 2.4e6

    def test_defaults(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        assert s.start_time_unix == 0.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        with pytest.raises(ScenarioError, match="empty"):
            Scenario.load(p)

    def test_root_must_be_mapping(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="mapping"):
            Scenario.load(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            Scenario.load(tmp_path / "nope.yaml")

    def test_yaml_error_cites_line(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("name: x\nplan: [unclosed\n")
        with pytest.raises(ScenarioError, match=r"broken\.yaml:\d+"):
            Scenario.load(p)

    @pytest.mark.parametrize("extra, key", [
        ("total_s: 5.0\n", "total_s"),
        ('channels:\n  "A:1": {snr_db: 1.0}\n  "A:1": {snr_db: 2.0}\n', "A:1"),
        ('channels:\n  "A:1": {snr_db: 1.0, snr_db: 2.0}\n', "snr_db"),
    ])
    def test_duplicate_key_refused(self, tmp_path, extra, key):
        text = MINIMAL + extra
        line = len(text.splitlines())  # each case repeats its key on the file's last line
        with pytest.raises(ScenarioError, match=rf"scn\.yaml:{line}: duplicate key '{key}'$"):
            Scenario.load(_write(tmp_path, text))

    def test_merge_key_override_is_not_a_duplicate(self, tmp_path):
        text = MINIMAL.replace("  signal:\n", "  signal: &tone\n") + (
            "\nchannels:\n"
            "  \"A:1\":\n"
            "    signal:\n"
            "      <<: *tone\n"
            "      normalized_freq: 0.2\n"
        )
        specs, spec, _, _ = Scenario.load(_write(tmp_path, text)).sweep_params()
        signal = specs[spec[1]][0]
        assert (signal.kind, signal.normalized_freq) == ("tone", 0.2)


class TestValidationMessages:
    def test_missing_field_named(self, tmp_path):
        text = MINIMAL.replace("frame_len: 64\n", "")
        s = Scenario.load(_write(tmp_path, text))
        with pytest.raises(ScenarioError, match="frame_len"):
            s.frame_len()

    def test_wrong_type_named(self, tmp_path):
        text = MINIMAL.replace("frame_interval_s: 0.5", "frame_interval_s: soon")
        s = Scenario.load(_write(tmp_path, text))
        with pytest.raises(ScenarioError, match="frame_interval_s"):
            s.frame_interval_s()

    def test_nested_field_path(self, tmp_path):
        text = MINIMAL.replace("    kind: tone\n", "")
        s = Scenario.load(_write(tmp_path, text))
        with pytest.raises(ScenarioError, match=r"signal\.kind"):
            s.sweep_params()

    def test_unknown_channel_override_key(self, tmp_path):
        text = MINIMAL + "\nchannels:\n  \"A:9\":\n    snr_db: 0.0\n"
        with pytest.raises(ScenarioError, match="A:9"):
            Scenario.load(_write(tmp_path, text))

    def test_detector_missing_threshold(self, tmp_path):
        text = MINIMAL.replace("  lambda_ed: 1.05\n", "")
        s = Scenario.load(_write(tmp_path, text))
        with pytest.raises(ScenarioError, match="lambda_ed"):
            s.detector_config()

    def test_bad_roc_detector_name(self, tmp_path):
        text = MINIMAL + "\n"
        text = text.replace(
            "eval:\n  trials: 100\n",
            "eval:\n  trials: 100\n  roc_thresholds:\n    matched: [0.1, 0.2]\n",
        )
        s = Scenario.load(_write(tmp_path, text))
        with pytest.raises(ScenarioError, match="matched"):
            s.eval_settings()

    @pytest.mark.parametrize("old,new,read,message", [
        ("frame_len: 64", 'frame_len: "x"', None, "frame_len: expected an integer, got str"),
        ("frame_interval_s: 0.5\n", "", Scenario.frame_interval_s,
         "frame_interval_s: required field is missing"),
        (MINIMAL[MINIMAL.index("detector:"):MINIMAL.index("eval:")], "detector: x\n", None,
         "detector: expected a mapping, got str"),
        ("eval:\n  trials: 100", "eval: 5", Scenario.eval_settings,
         "eval: expected a mapping, got int"),
    ], ids=["type", "missing", "section-str", "section-int"])
    def test_root_key_named_bare(self, tmp_path, old, new, read, message):
        """Type and missing-key errors name a root key as bound and unknown-key errors
        do, with no "scenario." before it, and name the expected kind in words."""
        with pytest.raises(ScenarioError) as caught:  # at load, or where ``read`` reads it
            scenario = Scenario.load(_write(tmp_path, MINIMAL.replace(old, new)))
            if read:
                read(scenario)
        assert str(caught.value) == message


def _channel(table, i):
    """Channel i's resolved (signal, noise, schedule, snr_db) spec in a sweep_params table."""
    specs, spec, _, _ = table
    return specs[spec[i]]


class TestChannelParams:
    def test_defaults_apply(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        signal, _, schedule, snr_db = _channel(s.sweep_params(), 0)
        assert snr_db == 10.0
        assert signal.kind == "tone"
        assert schedule.duty_cycle == pytest.approx(0.5)

    def test_override_wins(self, tmp_path):
        text = MINIMAL + (
            "\nchannels:\n"
            "  \"A:1\":\n"
            "    snr_db: -3.0\n"
            "    schedule:\n"
            "      period_s: 2.0\n"
            "      on_intervals: []\n"
        )
        s = Scenario.load(_write(tmp_path, text))
        p0, p1, _ = (_channel(s.sweep_params(), i) for i in range(3))
        assert p0[3] == 10.0
        assert p1[3] == -3.0
        assert p1[2].duty_cycle == 0.0
        # non-overridden sections still come from defaults
        assert p1[0].kind == "tone"

    def test_seeds_differ_per_channel(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        seeds = set(s.sweep_params()[3].tolist())
        assert len(seeds) == len(s.plan())

    def test_explicit_seed_wins(self, tmp_path):
        text = MINIMAL.replace(
            "  noise:\n    total_power: 1.0\n",
            "  noise:\n    total_power: 1.0\n    seed: 999\n",
        )
        s = Scenario.load(_write(tmp_path, text))
        assert s.sweep_params()[3].tolist() == [999] * 3

    @pytest.mark.parametrize("channels", [3, 20000])
    def test_specs_resolve_once(self, tmp_path, channels):
        """A defaults-only plan resolves one spec, however many channels it has, and each
        override adds one, in plan order; an empty override is no override."""
        text = MINIMAL.replace("stop_mhz: 110.0", f"stop_mhz: {100.0 + 5 * (channels - 1)}") \
            .replace("expected_channels: 3", f"expected_channels: {channels}")
        specs, spec, _, _ = Scenario.load(_write(tmp_path, text)).sweep_params()
        assert len(specs) == 1 and spec.tolist() == [0] * channels
        text += ('\nchannels:\n  "A:2":\n    snr_db: 1.0\n  "A:0":\n    snr_db: 2.0\n'
                 '  "A:1": {}\n')
        specs, spec, _, _ = Scenario.load(_write(tmp_path, text)).sweep_params()
        assert [snr_db for *_, snr_db in specs] == [2.0, 10.0, 1.0]
        assert spec.tolist() == [0, 1, 2] + [1] * (channels - 3)

    def test_error_names_first_channel_without_override(self, tmp_path):
        text = MINIMAL.replace("    kind: tone\n", "") + \
            '\nchannels:\n  "A:0":\n    signal:\n      kind: none\n'
        with pytest.raises(ScenarioError, match=r"^channel A:1\.signal\.kind: required"):
            Scenario.load(_write(tmp_path, text)).sweep_params()


class TestDetectorConfig:
    def test_loads_reference_relative_to_file(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        cfg = s.detector_config()
        assert cfg.acf_lags == 8
        assert cfg.reference.values[0] == 1.0

    def test_loads_absolute_reference_as_given(self, tmp_path):
        _write(tmp_path, MINIMAL)  # writes tmp_path / "ref.txt"
        (tmp_path / "sub").mkdir()
        text = MINIMAL.replace("reference: ref.txt", f"reference: {tmp_path / 'ref.txt'}")
        s = Scenario.load(_write(tmp_path / "sub", text, with_ref=False))
        assert s.detector_config().reference.values[0] == 1.0

    def test_missing_reference_file(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL, with_ref=False))
        with pytest.raises(ScenarioError, match="reference"):
            s.detector_config()


class TestCalibrationAndEval:
    def test_calibration_defaults(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        cal = s.calibration()
        assert cal["snr_db"] == 20.0
        assert cal["reference_frames"] == 100
        assert cal["threshold_frames"] == 10000
        assert cal["target_pfa"] == 0.05
        assert cal["signal"].kind == "tone"  # falls back to defaults.signal

    def test_eval_defaults(self, tmp_path):
        s = Scenario.load(_write(tmp_path, MINIMAL))
        ev = s.eval_settings()
        assert ev["trials"] == 100
        assert ev["frame_len"] == 64  # falls back to the sweep frame length
        assert ev["snr_db_points"] == [0.0, 5.0, 10.0, 20.0]
        assert ev["roc_snr_db"] == 5.0

    def test_eval_requires_section(self, tmp_path):
        text = MINIMAL.replace("eval:\n  trials: 100\n", "")
        s = Scenario.load(_write(tmp_path, text))
        with pytest.raises(ScenarioError, match="eval"):
            s.eval_settings()


def derive_seed(master_seed, *tags):
    return derive_seeds(master_seed, *tags)[0]


class TestSeedDerivation:
    def test_frozen_values(self):
        # regression anchors: a derivation change would silently re-draw
        # every scenario's randomness
        assert derive_seed(42) == 11465652750463011511
        assert derive_seed(42, SEED_CHANNEL_NOISE, 0, 0) == 3000636453440181237
        assert derive_seed(42, SEED_CHANNEL_SIGNAL, 0, 0) == 1836629433376927409
        assert derive_seed(42, SEED_CHANNEL_NOISE, 0, 1) == 7082725146561064676
        assert derive_seed(43, SEED_CHANNEL_NOISE, 0, 0) == 17909956658882582866

    @settings(max_examples=300, deadline=None)
    @given(master_seed=st.integers(0, 2**64 - 1),
           tags=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                         max_size=3))
    def test_equals_seed_sequence(self, master_seed, tags):
        # up to four words past SeedSequence's 4-word pool when the seed and tags reach 2**32
        def expected(row):
            return int(np.random.SeedSequence((master_seed, *row)).generate_state(1, np.uint64)[0])

        assert derive_seed(master_seed, *tags) == expected(tags)
        # in a batch of tag columns, each row keeps its own seed, whatever its word counts
        rows = [tags, [t ^ 1 for t in tags], tags, [t ^ 2**32 for t in tags], tags]
        columns = [list(column) for column in zip(*rows)]
        if columns:
            assert derive_seeds(master_seed, *columns) == [expected(row) for row in rows]
            assert derive_seeds(master_seed, *columns, 2**40) == [
                expected([*row, 2**40]) for row in rows]

    @pytest.mark.parametrize("master_seed", [0, 42, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1])
    def test_plan_seeds_equal_seed_sequence(self, tmp_path, master_seed):
        """Every channel of the builtin plan, its seeds derived in one batch."""
        text = MINIMAL.replace("master_seed: 42", f"master_seed: {master_seed}").replace(
            "plan:\n  - name: A\n    start_mhz: 100.0\n    stop_mhz: 110.0\n"
            "    spacing_mhz: [5]\n    expected_channels: 3\n", "plan: builtin\n")
        s = Scenario.load(_write(tmp_path, text))
        band_pos = {band.name: i for i, band in enumerate(BUILTIN_BANDS)}
        plan, (_, spec, signal_seeds, noise_seeds) = s.plan(), s.sweep_params()
        assert len(spec) == len(plan) == 123
        for c, signal_seed, noise_seed in zip(plan, signal_seeds.tolist(), noise_seeds.tolist()):
            for tag, seed in ((SEED_CHANNEL_SIGNAL, signal_seed),
                              (SEED_CHANNEL_NOISE, noise_seed)):
                sq = np.random.SeedSequence((master_seed, tag, band_pos[c.band], c.index_in_band))
                assert seed == int(sq.generate_state(1, np.uint64)[0])

    def test_negative_tag_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            derive_seed(42, -1)

    @pytest.mark.parametrize("columns", [(2**64,), ([0, 2**64],), (5, [1, 2**70]),
                                         ([3, 4], 2**64 + 1)])
    def test_tag_of_2_64_or_more_rejected(self, columns):
        with pytest.raises(ValueError, match=r"< 2\*\*64, got \d+$"):
            derive_seeds(42, *columns)

    def test_all_distinct(self):
        seeds = {
            derive_seed(7, tag, pos, idx)
            for tag in (10, 11, 20, 21, 30, 31)
            for pos in range(3)
            for idx in range(5)
        }
        assert len(seeds) == 6 * 3 * 5

    def test_u64_range(self):
        for tag in range(6):
            assert 0 <= derive_seed(2**64 - 1, tag) <= 2**64 - 1


class TestSweepTiming:
    @settings(max_examples=400, deadline=None)
    @given(start=st.sampled_from([0.0, 1.7e9, -1.7e9, 1767225600.0, 2.0**52, -1e15])
           | st.floats(-1e16, 1e16),
           interval=st.floats(1e-12, 1e4), scale=st.floats(0.25, 16.0), near=st.booleans(),
           frames=st.integers(2, 4000))
    def test_accepted_intervals_give_rising_times(self, start, interval, scale, near, frames):
        """An interval the load check accepts makes every frame time exceed the one before."""
        if near:  # around the bound, about 2**-50 of the start time
            interval = abs(start) * 2.0**-50 * scale
        assume(interval > 0)
        data = yaml.load(MINIMAL, Loader=_ScenarioLoader)
        data.update(start_time_unix=start, frame_interval_s=interval, total_s=frames * interval)
        try:
            n = Scenario(data).sweep_frames()
        except ScenarioError as exc:
            assert str(exc).startswith("frame_interval_s: ")
            return
        assert n >= frames - 1
        times = start + np.arange(n) * interval
        assert (np.diff(times) > 0).all()

    def test_colliding_times_refused(self):
        # 1.7e9 + k * 1e-7: the float spacing there is 2.4e-7, so times repeat
        data = yaml.load(MINIMAL, Loader=_ScenarioLoader)
        data.update(start_time_unix=1.7e9, frame_interval_s=1e-7, total_s=3e-7)
        times = 1.7e9 + np.arange(3) * 1e-7
        assert times[0] == times[1]
        with pytest.raises(ScenarioError, match=r"^frame_interval_s: 1e-07 must exceed 1.51e-06, "
                                                r"or frame times from start_time_unix 1700000000.0"):
            Scenario(data).sweep_frames()


class TestSchemaDocs:
    """docs/scenario-format.md lists exactly the schema's keys and defaults."""

    DOC = Path(__file__).resolve().parents[1] / "docs" / "scenario-format.md"
    # the heading above each key table, and the schema section it lists
    SECTIONS = {"Top-level keys": "scenario", "Plan rows": "plan",
                "`defaults` and each `channels` override": "channel", "`signal`": "signal",
                "`noise`": "noise", "`schedule`": "schedule", "Detector block": "detector",
                "Calibration block": "calibration", "Eval block": "eval"}
    # defaults an absent key takes from its spec dataclass
    SPECS = {"signal": SignalSpec, "noise": NoiseSpec, "schedule": OccupancySchedule}

    def _tables(self) -> dict:
        """heading -> {key: default cell} of each key table."""
        tables, heading = {}, None
        for line in self.DOC.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                heading = line.lstrip("#").strip()
            elif line.startswith("| key | type | default |"):
                tables[heading] = {}
            elif line.startswith("| `") and heading in tables:
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                tables[heading][cells[0].strip("`")] = cells[2]
        return tables

    def _spec_default(self, section: str, key: str):
        """The default an absent key takes from its spec dataclass, or None."""
        spec = self.SPECS.get(section)
        field = {f.name: f for f in dataclasses.fields(spec)}.get(key) if spec else None
        if field is None or key == "seed":  # seeds derive from master_seed
            return None
        default = field.default if field.default is not dataclasses.MISSING \
            else field.default_factory()
        return list(default) if isinstance(default, tuple) else default

    def test_key_tables_list_schema_keys_and_defaults(self):
        tables = self._tables()
        assert sorted(self.SECTIONS[h] for h in tables) == sorted(SCHEMA)
        for heading, rows in tables.items():
            section = self.SECTIONS[heading]
            assert list(rows) == list(SCHEMA[section]), heading
            for key, cell in rows.items():
                default = SCHEMA[section][key].default
                if default is None:  # left to the reader: a spec default, or prose
                    default = self._spec_default(section, key)
                if default is REQUIRED:
                    assert cell == "required", (section, key)
                elif default is None:
                    assert cell != "required", (section, key)
                else:
                    assert yaml.load(cell.strip("`"), Loader=_ScenarioLoader) == default, \
                        (section, key, cell)

    def test_yaml_examples_hold_only_schema_keys(self):
        examples = re.findall(r"```yaml\n(.*?)```", self.DOC.read_text(encoding="utf-8"),
                              re.DOTALL)
        assert len(examples) >= 5
        for text in examples:
            _check(yaml.load(text, Loader=_ScenarioLoader))

    def test_example_scenario_holds_only_schema_keys(self):
        _check(yaml.load((self.DOC.parent / "example-scenario.yaml").read_text(),
                         Loader=_ScenarioLoader))
