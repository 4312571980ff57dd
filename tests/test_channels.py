"""Channel plan generation and the builtin band layout."""

import math

import pytest

from occuscan import BUILTIN_BANDS, BandSpec, Channel, build_channel_plan, builtin_plan
from occuscan.errors import PlanError


class TestBuildPlan:
    def test_alternating_spacing_sequence(self):
        spec = BandSpec("GSM-850-UL", 824.0, 849.0, (3.0, 2.0), 11)
        freqs = [c.center_freq_mhz for c in build_channel_plan([spec])]
        assert freqs == [824, 827, 829, 832, 834, 837, 839, 842, 844, 847, 849]

    def test_duplicate_band_name_rejected(self):
        spec = BandSpec("ISM", 2402.0, 2412.0, (5.0,), 3)
        with pytest.raises(PlanError, match="'ISM'"):
            build_channel_plan([spec, BandSpec("ISM", 5725.0, 5725.0, (5.0,), 1)])

    def test_flat_spacing(self):
        spec = BandSpec("ISM", 2402.0, 2412.0, (5.0,), 3)
        freqs = [c.center_freq_mhz for c in build_channel_plan([spec])]
        assert freqs == [2402, 2407, 2412]

    def test_indices_restart_per_band(self):
        specs = [
            BandSpec("A", 100.0, 110.0, (5.0,), 3),
            BandSpec("B", 200.0, 205.0, (5.0,), 2),
        ]
        plan = build_channel_plan(specs)
        assert [(c.band, c.index_in_band) for c in plan] == [
            ("A", 0), ("A", 1), ("A", 2), ("B", 0), ("B", 1),
        ]

    def test_single_channel_band(self):
        plan = build_channel_plan([BandSpec("X", 700.0, 700.0, (1.0,), 1)])
        assert plan == [Channel("X", 0, 700.0)]

    def test_stop_mismatch_names_band(self):
        spec = BandSpec("BROKEN", 100.0, 120.0, (5.0,), 3)
        with pytest.raises(PlanError, match="BROKEN"):
            build_channel_plan([spec])

    def test_stop_tolerance_absorbs_float_dust(self):
        spec = BandSpec("F", 100.0, 100.0 + 3 * 0.1, (0.1,), 4)
        plan = build_channel_plan([spec])
        assert len(plan) == 4


class TestBuiltinPlan:
    def test_total_channel_count(self):
        assert len(builtin_plan()) == 123

    def test_per_band_counts(self):
        plan = builtin_plan()
        counts = {}
        for c in plan:
            counts[c.band] = counts.get(c.band, 0) + 1
        assert counts == {
            "GSM-850-UL": 11,
            "GSM-850-DL": 11,
            "GSM-1900-UL": 25,
            "GSM-1900-DL": 25,
            "2.4GHz": 20,
            "5.8GHz": 31,
        }

    def test_band_edges(self):
        plan = builtin_plan()
        for spec in BUILTIN_BANDS:
            in_band = [c for c in plan if c.band == spec.name]
            assert in_band[0].center_freq_mhz == spec.start_mhz
            assert in_band[-1].center_freq_mhz == spec.stop_mhz

    def test_named_frequencies_present(self):
        freqs = {(c.band, c.center_freq_mhz) for c in builtin_plan()}
        for band, f in [
            ("GSM-850-UL", 837.0),
            ("GSM-850-DL", 882.0),
            ("GSM-1900-UL", 1880.0),
            ("GSM-1900-DL", 1960.0),
            ("2.4GHz", 2412.0),
            ("2.4GHz", 2437.0),
            ("2.4GHz", 2462.0),
            ("5.8GHz", 5765.0),
        ]:
            assert (band, f) in freqs

    def test_strictly_increasing_within_band(self):
        plan = builtin_plan()
        for spec in BUILTIN_BANDS:
            freqs = [c.center_freq_mhz for c in plan if c.band == spec.name]
            assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_gsm_spacing_alternates(self):
        plan = builtin_plan()
        freqs = [c.center_freq_mhz for c in plan if c.band == "GSM-1900-UL"]
        gaps = [b - a for a, b in zip(freqs, freqs[1:])]
        assert gaps == [3.0, 2.0] * 12

    def test_ism_spacing_flat(self):
        plan = builtin_plan()
        for band in ("2.4GHz", "5.8GHz"):
            freqs = [c.center_freq_mhz for c in plan if c.band == band]
            gaps = {b - a for a, b in zip(freqs, freqs[1:])}
            assert gaps == {5.0}


class TestChannel:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Channel("X", -1, 100.0)

    @pytest.mark.parametrize("freq", [0.0, -1.0, math.nan, math.inf])
    def test_frequency_must_be_finite_and_positive(self, freq):
        with pytest.raises(ValueError, match="center_freq_mhz"):
            Channel("x", 0, freq)


class TestBandSpecValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            BandSpec("", 1.0, 2.0, (1.0,), 2)
        with pytest.raises(ValueError):
            BandSpec("X", 1.0, 2.0, (), 2)
        with pytest.raises(ValueError):
            BandSpec("X", 1.0, 2.0, (0.0,), 2)
        with pytest.raises(ValueError):
            BandSpec("X", 2.0, 1.0, (1.0,), 2)
        with pytest.raises(ValueError):
            BandSpec("X", 1.0, 2.0, (1.0,), 0)
        nan, inf = float("nan"), float("inf")
        for start, stop, spacing in [(0.0, 2.0, 1.0), (-1.0, 2.0, 1.0), (nan, 2.0, 1.0),
                                     (1.0, inf, 1.0), (1.0, 2.0, nan), (1.0, 2.0, inf)]:
            with pytest.raises(ValueError):
                BandSpec("X", start, stop, (spacing,), 2)
