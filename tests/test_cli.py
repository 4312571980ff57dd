"""End-to-end command behavior through the argparse entry point."""

import argparse
import concurrent.futures
import contextlib
import copy
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from occuscan import (
    ComplexFrame,
    UsageError,
    acf_vector,
    energy_statistic,
    gen_noise_frame,
    gen_signal_frame,
    load_reference,
    snr_scale,
)
from occuscan import scenario as scenario_module
from occuscan.channels import Channel
from occuscan.cli import MAX_WORKERS, RUN_CHANNELS, _check_options, main
from occuscan.report import OCCUPANCY_CSV_HEADER
from occuscan.scan import RECORD_CSV_HEADER, TRUTH_CSV_HEADER, RecordTable, scan_channel
from occuscan.scenario import SCHEMA, Scenario
from conftest import write_meta, write_record_tables, write_recording, write_reference_sweep

SCENARIO = """\
name: cli-test
master_seed: 42
sample_rate_hz: 1.0e6
frame_len: 256
frame_interval_s: 0.5
total_s: 5.0
bin_len_s: 2.0

plan:
  - name: TESTBAND
    start_mhz: 100.0
    stop_mhz: 110.0
    spacing_mhz: [5]
    expected_channels: 3

defaults:
  snr_db: 10.0
  signal:
    kind: tone
    normalized_freq: 0.125
  noise:
    total_power: 1.0
  schedule:
    period_s: 2.0
    on_intervals: [[0.0, 1.0]]

detector:
  reference: reference.txt
  lambda_ed: 1.1
  lambda_acf: 0.25
  gamma: 0.6
  acf_lags: 8

calibration:
  snr_db: 20.0
  reference_frames: 50
  threshold_frames: 500
  target_pfa: 0.05

eval:
  trials: 200
  snr_db_points: [0.0, 10.0]
  roc_snr_db: 5.0
  roc_thresholds:
    ed: [0.9, 1.0, 1.1, 1.2]
"""


# A plan wider than one channel run, so each frame window is stitched from several runs: the
# band WIDE, then the band of SCENARIO. Its channels all follow ``schedule`` unless
# ``channels`` overrides them; 40 frames of 16 samples make a full window and a partial one.
TESTBAND = SCENARIO[SCENARIO.index("  - name: TESTBAND"):SCENARIO.index("\ndefaults:")]


def wide_scenario(schedule="period_s: 2.0\n    on_intervals: [[0.0, 1.0]]", channels="",
                  total_power="1.0", snr_db="10.0") -> str:
    wide = (f"  - name: WIDE\n    start_mhz: 200.0\n    stop_mhz: {200 + RUN_CHANNELS + 5}.0\n"
            f"    spacing_mhz: [1]\n    expected_channels: {RUN_CHANNELS + 6}\n")
    return (SCENARIO.replace(TESTBAND, wide + TESTBAND)
            .replace("frame_len: 256", "frame_len: 16")
            .replace("total_s: 5.0", "total_s: 20.0\nstart_time_unix: 1767225600.0")
            .replace("period_s: 2.0\n    on_intervals: [[0.0, 1.0]]", schedule)
            .replace("total_power: 1.0", f"total_power: {total_power}")
            .replace("snr_db: 10.0", f"snr_db: {snr_db}")
            .replace("detector:", f"channels:\n{channels}\ndetector:" if channels else "detector:"))


@pytest.fixture
def workspace(tmp_path):
    scn = tmp_path / "scn.yaml"
    scn.write_text(SCENARIO)
    rc = main(["calibrate", "--scenario", str(scn), "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path


class TestCalibrate:
    def test_reference_file_format(self, workspace):
        lines = (workspace / "reference.txt").read_text().splitlines()
        assert lines[0] == "lags=8"
        assert lines[1] == "1.0"
        assert len(lines) == 9

    def test_prints_lambda(self, tmp_path, capsys):
        scn = tmp_path / "scn.yaml"
        scn.write_text(SCENARIO)
        assert main(["calibrate", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lam_line = [ln for ln in out.splitlines() if ln.startswith("lambda_ed=")]
        assert len(lam_line) == 1
        lam = float(lam_line[0].split("=", 1)[1])
        # N=256 unit-power noise: the 95th percentile sits near 1 + 1.645/16
        assert 1.05 < lam < 1.16

    @pytest.mark.parametrize("signal", ["kind: tone\n    normalized_freq: 0.125",
                                        "kind: bpsk\n    symbol_rate_divisor: 3"],
                             ids=["tone", "bpsk"])
    def test_row_blocks_build_no_frame_and_match_the_frame_api(self, tmp_path, monkeypatch,
                                                                capsys, signal):
        scn = tmp_path / "scn.yaml"
        scn.write_text(SCENARIO.replace("calibration:\n",
                                        f"calibration:\n  signal:\n    {signal}\n"))

        def refuse(frame):
            raise AssertionError("calibrate built a ComplexFrame")

        with monkeypatch.context() as patch:
            patch.setattr(ComplexFrame, "__post_init__", refuse)
            assert main(["calibrate", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        lambda_ed = capsys.readouterr().out.splitlines()[1]
        # the reference: per-frame statistics of alpha * signal + noise, averaged in a loop
        cal = Scenario.load(scn).calibration()
        sig, noise, n = cal["signal"], cal["noise"], 256
        assert sig.kind == signal.split()[1]
        alpha = snr_scale(sig.nominal_power, noise.total_power, cal["snr_db"])
        vectors = [acf_vector(ComplexFrame(alpha * gen_signal_frame(n, sig, k).samples
                                           + gen_noise_frame(n, noise, k).samples, 1.0, 1.0),
                              cal["acf_lags"]).values for k in range(50)]
        reference = np.mean(vectors, axis=0)
        reference[0] = 1.0
        assert load_reference(tmp_path / "reference.txt").values.tolist() == \
            np.clip(reference, 0.0, 1.0).tolist()
        energies = [energy_statistic(gen_noise_frame(n, noise, 50 + k)) for k in range(500)]
        threshold = float(np.quantile(energies, 1.0 - cal["target_pfa"]))
        assert lambda_ed == f"lambda_ed={threshold!r}"

    def test_process_pool_is_not_imported_at_start_up(self):
        code = "import sys, occuscan.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout == "False\n"

    def test_seed_override_changes_reference(self, tmp_path, workspace):
        scn = workspace / "scn.yaml"
        alt = workspace / "alt"
        assert main(["calibrate", "--scenario", str(scn), "--out", str(alt),
                     "--seed", "7"]) == 0
        assert (alt / "reference.txt").read_text() != \
            (workspace / "reference.txt").read_text()


class TestSimulate:
    def test_outputs_and_row_counts(self, workspace):
        scn = workspace / "scn.yaml"
        out = workspace / "sim"
        assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
        records = (out / "records.csv").read_text().splitlines()
        truth = (out / "truth.csv").read_text().splitlines()
        plan = (out / "plan.csv").read_text().splitlines()
        # 3 channels x 10 scans x 3 detectors
        assert records[0] == RECORD_CSV_HEADER
        assert len(records) == 1 + 90
        assert truth[0] == TRUTH_CSV_HEADER
        assert len(truth) == 1 + 30
        assert plan == [
            "band,channel_index,center_freq_mhz",
            "TESTBAND,0,100",
            "TESTBAND,1,105",
            "TESTBAND,2,110",
        ]

    def test_rerun_byte_identical(self, workspace):
        scn = workspace / "scn.yaml"
        a, b = workspace / "a", workspace / "b"
        assert main(["simulate", "--scenario", str(scn), "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scn), "--out", str(b)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    def test_workers_byte_identical(self, workspace):
        scn = workspace / "scn.yaml"
        a, b = workspace / "w1", workspace / "w3"
        assert main(["simulate", "--scenario", str(scn), "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scn), "--out", str(b),
                     "--workers", "3"]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    def test_seed_override_changes_records(self, workspace):
        scn = workspace / "scn.yaml"
        a, b = workspace / "s42", workspace / "s43"
        assert main(["simulate", "--scenario", str(scn), "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scn), "--out", str(b),
                     "--seed", "43"]) == 0
        assert (a / "records.csv").read_bytes() != (b / "records.csv").read_bytes()

    WIDE_CHANNELS = ('  "WIDE:3":\n    signal:\n      kind: bpsk\n      symbol_rate_divisor: 3\n'
                     '  "WIDE:34":\n    snr_db: -.inf\n    signal:\n      kind: none\n'
                     '  "TESTBAND:1":\n    schedule:\n      period_s: 3.0\n'
                     '      on_intervals: [[0.5, 1.25]]\n')

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_equals_per_channel_reference(self, workspace, workers):
        """The time-major sweep writes the bytes of the per-channel sweep merged by a sort."""
        scn = workspace / "wide.yaml"
        scn.write_text(wide_scenario(channels=self.WIDE_CHANNELS))
        write_reference_sweep(Scenario.load(scn), workspace / "reference")
        out = workspace / "sim"
        assert main(["simulate", "--scenario", str(scn), "--out", str(out),
                     "--workers", workers]) == 0
        for name in ("plan.csv", "records.csv", "truth.csv"):
            assert (out / name).read_bytes() == (workspace / "reference" / name).read_bytes()
        assert len((out / "truth.csv").read_text().splitlines()) == 1 + 40 * (RUN_CHANNELS + 9)

    # beside the derived seeds (two entropy words each), a noise seed of one word and one of
    # two, a BPSK channel and a channel of its own noise power, in both channel runs
    MIXED_SEEDS = ('  "WIDE:2":\n    noise:\n      seed: 7\n'
                   '  "WIDE:3":\n    signal:\n      kind: bpsk\n      symbol_rate_divisor: 3\n'
                   '  "WIDE:4":\n    noise:\n      total_power: 2.5\n      seed: 4294967296\n'
                   '  "WIDE:33":\n    noise:\n      seed: 0\n'
                   '  "TESTBAND:0":\n    signal:\n      kind: bpsk\n      seed: 11\n')

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_mixed_seed_word_counts_equal_reference(self, workspace, workers):
        """A task seeds channels of one- and two-word noise seeds in one pass, bit for bit."""
        scn = workspace / "mixed.yaml"
        scn.write_text(wide_scenario(channels=self.MIXED_SEEDS))
        *_, noise_seeds = Scenario.load(scn).sweep_params()
        assert noise_seeds[[2, 4, 33]].tolist() == [7, 2**32, 0]
        assert min(noise_seeds[5:33].tolist()) >= 2**32
        write_reference_sweep(Scenario.load(scn), workspace / "reference")
        out = workspace / "sim"
        assert main(["simulate", "--scenario", str(scn), "--out", str(out),
                     "--workers", workers]) == 0
        for name in ("plan.csv", "records.csv", "truth.csv"):
            assert (out / name).read_bytes() == (workspace / "reference" / name).read_bytes()

    def test_spawned_pool_byte_identical(self, workspace):
        """Workers started in fresh interpreters (spawn; forkserver is Python 3.14's default)
        write the bytes of one process: no worker relies on state filled in the parent."""
        scn = workspace / "wide.yaml"
        scn.write_text(wide_scenario(channels=self.MIXED_SEEDS))
        probe = ("import multiprocessing, sys\nmultiprocessing.set_start_method('spawn')\n"
                 "from occuscan.cli import main\nsys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", probe, "simulate", "--scenario", str(scn),
                        "--out", str(workspace / "spawn"), "--workers", "2"],
                       env=env, capture_output=True, check=True)
        assert main(["simulate", "--scenario", str(scn), "--out", str(workspace / "one")]) == 0
        for name in ("plan.csv", "records.csv", "truth.csv"):
            assert (workspace / "spawn" / name).read_bytes() == \
                (workspace / "one" / name).read_bytes()

    def test_plan_built_once(self, workspace, monkeypatch):
        calls = []

        def counted(specs):
            calls.append(specs)
            return build(specs)

        build = scenario_module.build_channel_plan
        monkeypatch.setattr(scenario_module, "build_channel_plan", counted)
        scn = workspace / "wide.yaml"
        scn.write_text(wide_scenario(channels=self.WIDE_CHANNELS))  # overrides: checked at load
        for seed in ([], ["--seed", "7"]):
            calls.clear()
            assert main(["simulate", "--scenario", str(scn), "--out", str(workspace / "o"),
                         *seed]) == 0
            assert len(calls) == 1

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_peak_memory_per_frame(self, workspace, workers):
        # frames are made and written a window at a time: the main process's peak memory
        # does not grow with the sweep's length. Holding the whole sweep, it grew about 117
        # bytes a frame.
        probe = ("import sys\nfrom occuscan.cli import main\nassert main(sys.argv[1:]) == 0\n"
                 "print([ln for ln in open('/proc/self/status') if 'VmHWM' in ln][0].strip())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        scn = workspace / "long.yaml"
        sizes, peaks = (15_000, 150_000), []
        for frames in sizes:  # over the 3 channels, 0.5 s apart
            scn.write_text(SCENARIO.replace("frame_len: 256", "frame_len: 64")
                           .replace("total_s: 5.0", f"total_s: {frames // 3 * 0.5}"))
            out = subprocess.run(
                [sys.executable, "-c", probe, "simulate", "--scenario", str(scn),
                 "--out", str(workspace / "o"), "--workers", workers],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            peaks.append(int(out.splitlines()[-1].split()[1]) * 1024)  # kB to bytes
        assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < 8

    def test_zero_duration_writes_headers_only(self, tmp_path, workspace):
        scn_text = SCENARIO.replace("total_s: 5.0", "total_s: 0.0")
        scn = workspace / "zero.yaml"
        scn.write_text(scn_text)
        out = workspace / "zero"
        assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
        assert (out / "records.csv").read_text() == RECORD_CSV_HEADER + "\n"
        assert (out / "truth.csv").read_text() == TRUTH_CSV_HEADER + "\n"


class TestAnalyze:
    def _write_capture(self, workspace, n_samples, fill=None):
        rng = np.random.default_rng(9)
        if fill is None:
            z = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)) / np.sqrt(2)
        else:
            z = np.full(n_samples, fill, dtype=np.complex128)
        frame = ComplexFrame(z, 1e6, 2412e6, 0.0)
        write_recording([frame], workspace / "cap.iq", workspace / "cap.iq.meta")

    def test_record_count(self, workspace):
        self._write_capture(workspace, 8 * 256)
        out = workspace / "ana"
        rc = main([
            "analyze", "--scenario", str(workspace / "scn.yaml"), "--out", str(out),
            "--iq", str(workspace / "cap.iq"), "--meta", str(workspace / "cap.iq.meta"),
            "--center-mhz", "2412",
        ])
        assert rc == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + 8 * 3
        assert all(",recording,0,2412," in ln for ln in lines[1:])

    def test_zero_capture_degenerate_records(self, workspace):
        self._write_capture(workspace, 2 * 256, fill=0.0)
        out = workspace / "anaz"
        rc = main([
            "analyze", "--scenario", str(workspace / "scn.yaml"), "--out", str(out),
            "--iq", str(workspace / "cap.iq"), "--meta", str(workspace / "cap.iq.meta"),
            "--center-mhz", "2412",
        ])
        assert rc == 0
        lines = (out / "records.csv").read_text().splitlines()[1:]
        assert len(lines) == 6
        # every decision is absent; ed statistic is 0
        for ln in lines:
            assert ln.endswith(",0")
        assert lines[0].split(",")[5] == "0"

    def test_verbose_prints_raw_distance(self, workspace, capsys):
        self._write_capture(workspace, 2 * 256)
        rc = main([
            "analyze", "--scenario", str(workspace / "scn.yaml"),
            "--out", str(workspace / "anav"),
            "--iq", str(workspace / "cap.iq"), "--meta", str(workspace / "cap.iq.meta"),
            "--center-mhz", "2412", "--verbose",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("raw_dist=") == 2

    @pytest.mark.parametrize("bad,message", [
        ("gamma", "detector: gamma must lie in (0, 1)"),
        ("missing-iq", "No such file or directory"),
        ("off-tune", "frame at 2412.0 MHz does not match channel recording[0] at 900.0 MHz"),
    ], ids=["gamma", "missing-iq", "off-tune"])
    def test_bad_input_fails_cleanly_without_out(self, workspace, capsys, bad, message):
        """A bad detector setting, a missing .iq file and a recording tuned away from
        --center-mhz each exit 1 before --out is created."""
        self._write_capture(workspace, 2 * 256)
        scn = workspace / "scn.yaml"
        if bad == "gamma":
            scn.write_text(SCENARIO.replace("gamma: 0.6", "gamma: 2.0"))
        iq = workspace / ("nope.iq" if bad == "missing-iq" else "cap.iq")
        out = workspace / "anan"
        rc = main([
            "analyze", "--scenario", str(scn), "--out", str(out),
            "--iq", str(iq), "--meta", str(workspace / "cap.iq.meta"),
            "--center-mhz", "900" if bad == "off-tune" else "2412",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("value,message", [
        (dict(start=math.nan), "bad value: start_time_unix must be finite"),
        (dict(start=math.inf), "bad value: start_time_unix must be finite"),
        (dict(rate=1e-320), "capture times must be finite, but frame 1 would start at inf s "
                            "(sample_rate_hz=1e-320)"),
        (dict(rate=0.0), "bad value: sample_rate_hz must be > 0"),
        # every frame would be captured at start_time_unix
        (dict(rate=math.inf), "bad value: sample_rate_hz must be finite"),
        (dict(freq=0.0), "bad value: center_freq_hz must be > 0"),
        (dict(num_samples=-1), "bad value: num_samples must be >= 0"),
    ], ids=["start-nan", "start-inf", "rate-tiny", "rate-0", "rate-inf", "freq-0",
            "samples-negative"])
    def test_bad_sidecar_fails_cleanly_without_out(self, workspace, capsys, value, message):
        """A sidecar whose values would make capture times that are not finite, or that
        break a value rule, exits 1 naming the sidecar, before --out is created and
        without a numpy warning."""
        self._write_capture(workspace, 2 * 256)  # two frames, so frame 1's time is checked
        meta = workspace / "cap.iq.meta"
        write_meta(meta, **{"num_samples": 2 * 256, "freq": 2412e6, **value})
        out = workspace / "anan"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["analyze", "--scenario", str(workspace / "scn.yaml"), "--out", str(out),
                       "--iq", str(workspace / "cap.iq"), "--meta", str(meta),
                       "--center-mhz", "2412"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {meta}: {message}\n"
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestStreamedAnalyze:
    """analyze reads the payload in blocks of 32 frames; results match frame-by-frame scanning."""

    FRAMES, N, TAIL = 70, 256, 37  # three blocks, the last partial, plus a partial frame

    def _write(self, workspace, bad_index=None, bad_part=1, bad_value=np.nan):
        rng = np.random.default_rng(11)
        n = self.FRAMES * self.N + self.TAIL
        iq = (rng.standard_normal((n, 2)) * np.sqrt(0.5)).astype("<f4")
        iq[np.arange(n) // self.N % 3 == 0] += np.float32(2.0)  # a DC "signal" on every third frame
        iq[5 * self.N:6 * self.N] = 0.0  # a dead frame
        if bad_index is not None:
            iq[bad_index, bad_part] = bad_value
        iq.tofile(workspace / "big.iq")
        (workspace / "big.iq.meta").write_text(
            "sample_rate_hz=2000000.0\ncenter_freq_hz=2412000000.0\n"
            f"start_time_unix=1700000000.5\nnum_samples={n}\n"
        )
        return iq[:, 0].astype(np.float64) + 1j * iq[:, 1].astype(np.float64)

    def _analyze(self, workspace, out):
        return main([
            "analyze", "--scenario", str(workspace / "scn.yaml"), "--out", str(out),
            "--iq", str(workspace / "big.iq"), "--meta", str(workspace / "big.iq.meta"),
            "--center-mhz", "2412",
        ])

    def test_blocks_match_frame_by_frame(self, workspace, capsys):
        samples = self._write(workspace)
        out = workspace / "stream"
        assert self._analyze(workspace, out) == 0
        assert f"analyzed {self.FRAMES} frames ({self.TAIL} samples discarded)" in \
            capsys.readouterr().out

        config = Scenario.load(workspace / "scn.yaml").detector_config()
        channel = Channel("recording", 0, 2412.0)
        expected = [RECORD_CSV_HEADER]
        for k in range(self.FRAMES):
            frame = ComplexFrame(samples[k * self.N:(k + 1) * self.N], 2e6, 2412e6,
                                 1700000000.5 + k * self.N / 2e6)
            expected += [f"{r.capture_time:.6f},recording,0,2412,{r.detector},"
                         f"{r.statistic:.9g},{r.threshold:.9g},{int(r.present)}"
                         for r in scan_channel(frame, channel, config)]
        assert (out / "records.csv").read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("bad_index, bad_part, bad_value", [
        pytest.param(i, part, value, id=str(i)) for i, part, value in [
            (40 * 256 + 17, 1, np.nan),  # an imaginary part in the second block
            (70 * 256 + 5, 1, np.nan),  # among the discarded trailing samples
            (3 * 256 + 200, 0, np.inf),  # a real part in the first block
        ]
    ])
    def test_nonfinite_sample_names_global_index(self, workspace, capsys, bad_index, bad_part,
                                                 bad_value):
        self._write(workspace, bad_index, bad_part, bad_value)
        out = workspace / "bad"
        assert self._analyze(workspace, out) == 1
        assert capsys.readouterr().err == \
            f"error: {workspace / 'big.iq'}: non-finite sample at index {bad_index}\n"
        assert sorted(p.name for p in out.iterdir()) == []  # no partial records.csv

    def test_error_keeps_previous_records(self, workspace):
        self._write(workspace)
        out = workspace / "keep"
        assert self._analyze(workspace, out) == 0
        before = (out / "records.csv").read_bytes()
        self._write(workspace, 40 * 256)
        assert self._analyze(workspace, out) == 1
        assert (out / "records.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["records.csv"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
    def test_peak_memory_does_not_grow_with_recording(self, workspace):
        # the child reports its own high-water mark; ru_maxrss would include pytest's
        probe = ("import sys\nfrom occuscan.cli import main\nassert main(sys.argv[1:]) == 0\n"
                 "print([ln for ln in open('/proc/self/status') if 'VmHWM' in ln][0].strip())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peaks = []
        for frames in (64, 4096):  # 131 kB and 8.4 MB payloads
            rng = np.random.default_rng(frames)
            rng.standard_normal(2 * frames * self.N).astype("<f4").tofile(workspace / "m.iq")
            (workspace / "m.iq.meta").write_text(
                "sample_rate_hz=1e6\ncenter_freq_hz=2412e6\nstart_time_unix=0.0\n"
                f"num_samples={frames * self.N}\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", probe, "analyze", "--scenario", str(workspace / "scn.yaml"),
                 "--out", str(workspace / "mem"), "--iq", str(workspace / "m.iq"),
                 "--meta", str(workspace / "m.iq.meta"), "--center-mhz", "2412"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            peaks.append(int(out.splitlines()[-1].split()[1]))  # kB
        assert peaks[1] - peaks[0] < 5 * 1024


class TestBadInputs:
    """Every bad input ends in "error: <field>: <reason>" and exit code 1."""

    def _fails_with(self, capsys, argv, field):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: "), err
        assert "Traceback" not in err

    def test_eval_zero_trials(self, workspace, capsys):
        scn = workspace / "zero-trials.yaml"
        scn.write_text(SCENARIO.replace("trials: 200", "trials: 0"))
        self._fails_with(capsys, ["eval", "--scenario", str(scn), "--out",
                                  str(workspace / "o")], "eval.trials")

    def _eval_fails_with(self, capsys, workspace, old, new, field):
        scn = workspace / "bad-eval.yaml"
        scn.write_text(SCENARIO.replace(old, new))
        self._fails_with(capsys, ["eval", "--scenario", str(scn), "--out",
                                  str(workspace / "o")], field)
        assert not (workspace / "o" / "eval.csv").exists()

    @pytest.mark.parametrize("thresholds", ["[0.9, 1.1, 1.0, 1.2]", "[0.9, 1.0, 1.0, 1.2]",
                                            "[0.9, .nan, 1.1]"])
    def test_eval_roc_thresholds_not_increasing(self, workspace, capsys, thresholds):
        self._eval_fails_with(capsys, workspace, "ed: [0.9, 1.0, 1.1, 1.2]",
                              f"ed: {thresholds}", "eval.roc_thresholds.ed")

    def test_eval_snr_point_not_a_number(self, workspace, capsys):
        self._eval_fails_with(capsys, workspace, "snr_db_points: [0.0, 10.0]",
                              "snr_db_points: [0.0, ten]", "eval.snr_db_points[1]")

    def test_eval_zero_frame_len(self, workspace, capsys):
        self._eval_fails_with(capsys, workspace, "eval:\n", "eval:\n  frame_len: 0\n",
                              "eval.frame_len")

    @pytest.mark.parametrize("pfa", ["0", "1", "1.5", "-0.05", ".nan"])
    def test_calibration_target_pfa_out_of_range(self, workspace, capsys, pfa):
        scn = workspace / "bad-pfa.yaml"
        scn.write_text(SCENARIO.replace("target_pfa: 0.05", f"target_pfa: {pfa}"))
        self._fails_with(capsys, ["calibrate", "--scenario", str(scn), "--out",
                                  str(workspace / "o")], "calibration.target_pfa")

    def test_frame_shorter_than_acf_lags(self, workspace, capsys):
        scn = workspace / "short.yaml"
        scn.write_text(SCENARIO.replace("frame_len: 256", "frame_len: 4"))
        for cmd in ("calibrate", "simulate"):
            self._fails_with(capsys, [cmd, "--scenario", str(scn), "--out",
                                      str(workspace / "o")], "frame_len")
        assert not (workspace / "o").exists()

    def test_report_field_over_csv_limit(self, workspace, capsys):
        # the csv module refuses fields over 131,072 characters
        records = workspace / "long.csv"
        records.write_text(RECORD_CSV_HEADER + "\n0," + "B" * 200_000 + ",0,100,ed,1.5,1.1,1\n")
        self._fails_with(capsys, ["report", "--records", str(records), "--out",
                                  str(workspace / "o")], f"{records}:2")
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize("name", ["scn.yaml", "reference.txt", "records.csv", "cap.iq.meta"])
    def test_text_input_not_utf8(self, workspace, capsys, name):
        # byte 0xff never occurs in UTF-8 text; it starts line 2 of the file
        (workspace / "records.csv").write_text(RECORD_CSV_HEADER +
                                               "\n0,TESTBAND,0,100,ed,1.5,1.1,1\n")
        np.zeros(2 * 256, "<f4").tofile(workspace / "cap.iq")
        (workspace / "cap.iq.meta").write_text("sample_rate_hz=1e6\ncenter_freq_hz=100e6\n"
                                               "start_time_unix=0.0\nnum_samples=256\n")
        path = workspace / name
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", b"\n\xff", 1))
        scenario = ["--scenario", str(workspace / "scn.yaml"), "--out", str(workspace / "o")]
        argv, field = {
            "scn.yaml": (["simulate", *scenario], f"cannot read scenario {path}"),
            "reference.txt": (["simulate", *scenario], "detector.reference"),
            "records.csv": (["report", "--records", str(path), "--out", str(workspace / "o")],
                            f"{path}:2"),
            "cap.iq.meta": (["analyze", *scenario, "--iq", str(workspace / "cap.iq"), "--meta",
                             str(path), "--center-mhz", "100"], str(path)),
        }[name]
        self._fails_with(capsys, argv, field)

    @pytest.mark.parametrize("bins", ["0", "-1", "nan", "inf"])
    def test_report_bad_bins(self, workspace, capsys, bins):
        self._fails_with(capsys, ["report", "--records", str(workspace / "r.csv"),
                                  "--out", str(workspace / "o"), "--bins", bins], "--bins")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, workspace, capsys, seed):
        self._fails_with(capsys, ["simulate", "--scenario", str(workspace / "scn.yaml"),
                                  "--out", str(workspace / "o"), "--seed", seed], "--seed")

    @pytest.mark.parametrize("cmd", ["simulate", "eval"])
    def test_zero_workers(self, workspace, capsys, cmd):
        self._fails_with(capsys, [cmd, "--scenario", str(workspace / "scn.yaml"),
                                  "--out", str(workspace / "o"), "--workers", "0"], "--workers")

    def test_workers_bound(self):
        _check_options(argparse.Namespace(workers=MAX_WORKERS))
        with pytest.raises(UsageError, match=rf"^--workers: must be at most {MAX_WORKERS}, "
                                             rf"got {MAX_WORKERS + 1}$"):
            _check_options(argparse.Namespace(workers=MAX_WORKERS + 1))

    @pytest.mark.parametrize("cmd", ["simulate", "eval"])
    def test_too_many_workers(self, workspace, capsys, monkeypatch, cmd):
        def refuse(*args, **kwargs):  # a pool of that size must never start
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
        self._fails_with(capsys, [cmd, "--scenario", str(workspace / "scn.yaml"),
                                  "--out", str(workspace / "o"),
                                  "--workers", str(MAX_WORKERS + 1)], "--workers")
        assert not (workspace / "o").exists()

    def test_scenario_seed_out_of_range(self, workspace, capsys):
        scn = workspace / "neg.yaml"
        scn.write_text(SCENARIO.replace("master_seed: 42", "master_seed: -3"))
        self._fails_with(capsys, ["calibrate", "--scenario", str(scn), "--out",
                                  str(workspace / "o")], "master_seed")

    def _cmd_fails_with(self, capsys, workspace, cmd, old, new, field):
        assert old in SCENARIO
        scn = workspace / "bad.yaml"
        scn.write_text(SCENARIO.replace(old, new))
        self._fails_with(capsys, [cmd, "--scenario", str(scn), "--out", str(workspace / "o")],
                         field)
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_eval_snr_point_not_below_inf(self, workspace, capsys, value):
        self._eval_fails_with(capsys, workspace, "snr_db_points: [0.0, 10.0]",
                              f"snr_db_points: [0.0, {value}]", "eval.snr_db_points[1]")

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_eval_roc_snr_not_below_inf(self, workspace, capsys, value):
        self._eval_fails_with(capsys, workspace, "roc_snr_db: 5.0", f"roc_snr_db: {value}",
                              "eval.roc_snr_db")

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_default_snr_not_below_inf(self, workspace, capsys, value):
        self._cmd_fails_with(capsys, workspace, "simulate", "snr_db: 10.0",
                             f"snr_db: {value}", "defaults.snr_db")

    def test_channel_snr_not_below_inf(self, workspace, capsys):
        self._cmd_fails_with(capsys, workspace, "simulate", "detector:",
                             'channels:\n  "TESTBAND:1":\n    snr_db: .inf\n\ndetector:',
                             "channels.TESTBAND:1.snr_db")

    def test_calibration_snr_not_below_inf(self, workspace, capsys):
        self._cmd_fails_with(capsys, workspace, "calibrate", "calibration:\n  snr_db: 20.0",
                             "calibration:\n  snr_db: .nan", "calibration.snr_db")

    @pytest.mark.parametrize("cmd, old, new, field", [pytest.param(*case, id=case[3]) for case in [
        ("simulate", "snr_db: 10.0", "snr_db: 4000.0", "defaults.snr_db"),
        ("simulate", "detector:", 'channels:\n  "TESTBAND:1":\n    snr_db: 3083.0\n\ndetector:',
         "channels.TESTBAND:1.snr_db"),
        ("calibrate", "calibration:\n  snr_db: 20.0", "calibration:\n  snr_db: 4000.0",
         "calibration.snr_db"),
        ("eval", "snr_db_points: [0.0, 10.0]", "snr_db_points: [0.0, 4000.0]",
         "eval.snr_db_points[1]"),
        ("eval", "roc_snr_db: 5.0", "roc_snr_db: 4000.0", "eval.roc_snr_db"),
    ]])
    def test_snr_power_ratio_overflows(self, workspace, capsys, cmd, old, new, field):
        # 10 ** (snr_db / 10) overflows a float from about 3082.5 dB
        self._cmd_fails_with(capsys, workspace, cmd, old, new, field)

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    @pytest.mark.parametrize("cmd, field", [("calibrate", "calibration.signal"),
                                            ("simulate", "channel TESTBAND:0.signal"),
                                            ("eval", "eval.signal")])
    def test_signal_phase_not_finite(self, workspace, capsys, cmd, field, value):
        # a NaN tone would otherwise fail later, at a sample, naming no scenario field
        self._cmd_fails_with(capsys, workspace, cmd, "normalized_freq: 0.125",
                             f"normalized_freq: 0.125\n    phase: {value}", field)

    @pytest.mark.parametrize("value", ['"x"', "null"])
    def test_schedule_interval_not_a_number(self, workspace, capsys, value):
        self._cmd_fails_with(capsys, workspace, "simulate", "on_intervals: [[0.0, 1.0]]",
                             f"on_intervals: [[0.0, {value}]]",
                             "channel TESTBAND:0.schedule.on_intervals[0][1]")

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    @pytest.mark.parametrize("field, old", [("total_s", "total_s: 5.0"),
                                            ("frame_interval_s", "frame_interval_s: 0.5")])
    def test_sweep_timing_not_finite(self, workspace, capsys, field, old, value):
        self._cmd_fails_with(capsys, workspace, "simulate", old, f"{field}: {value}", field)

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_noise_power_not_finite(self, workspace, capsys, value):
        self._cmd_fails_with(capsys, workspace, "simulate", "total_power: 1.0",
                             f"total_power: {value}", "channel TESTBAND:0.noise")

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_signal_amplitude_not_finite(self, workspace, capsys, value):
        self._cmd_fails_with(capsys, workspace, "simulate", "normalized_freq: 0.125",
                             f"normalized_freq: 0.125\n    amplitude: {value}",
                             "channel TESTBAND:0.signal")

    @pytest.mark.parametrize("cmd, field", [("calibrate", "calibration.signal"),
                                            ("simulate", "channel TESTBAND:0.signal"),
                                            ("eval", "eval.signal")])
    @pytest.mark.parametrize("value", ["1.0e200", "1.0e300"])
    def test_signal_power_overflows(self, workspace, capsys, cmd, field, value):
        # amplitude**2 overflows from about 1.35e154
        self._cmd_fails_with(capsys, workspace, cmd, "normalized_freq: 0.125",
                             f"normalized_freq: 0.125\n    amplitude: {value}", field)

    @pytest.mark.parametrize("section, cmd", [("calibration", "calibrate"), ("eval", "eval")])
    def test_section_signal_power_overflows(self, workspace, capsys, section, cmd):
        self._cmd_fails_with(capsys, workspace, cmd, f"\n{section}:\n",
                             f"\n{section}:\n  signal:\n    kind: bpsk\n    amplitude: 1.0e300\n",
                             f"{section}.signal")

    def test_calibration_signal_kind_none(self, workspace, capsys):
        self._cmd_fails_with(capsys, workspace, "calibrate", "\ncalibration:\n",
                             "\ncalibration:\n  signal:\n    kind: none\n",
                             "calibration.signal.kind")

    def test_overflowing_calibration_mix(self, workspace, capsys):
        # the noise power is finite, but the scale for 20 dB above it is not
        scn = workspace / "huge.yaml"
        scn.write_text(SCENARIO.replace("total_power: 1.0", "total_power: 1.0e308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape either
            assert main(["calibrate", "--scenario", str(scn), "--out",
                         str(workspace / "o")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: calibration: frame 0: energy is not finite "
                       "(a sample or the power sum overflows)\n")
        assert not (workspace / "o" / "reference.txt").exists()

    def test_report_plot_file_shared_by_two_channels(self, workspace, capsys):
        records = workspace / "shared.csv"
        records.write_text(RECORD_CSV_HEADER + "\n"
                           '0,"ISM, 433",0,433.05,ed,1.5,1.1,1\n'
                           "0,ISM 433,0,433.05,ed,0.5,1.1,0\n")
        assert main(["report", "--records", str(records), "--out", str(workspace / "o")]) == 1
        assert capsys.readouterr().err == ("error: plots/ISM-433_ch000.dat: channels 'ISM 433':0 "
                                           "and 'ISM, 433':0 would both write this file\n")
        assert list((workspace / "o").iterdir()) == []

    def test_report_refuses_channels_whose_cells_interleave(self, workspace, capsys):
        # one band and index at two frequencies: the channels tie in the cell order, so
        # their cells alternate by bin, and their plot files share a name
        records = workspace / "tied.csv"
        records.write_text(RECORD_CSV_HEADER + "\n" + "".join(
            f"{t},X,0,{f},ed,1.5,1.1,1\n" for t in (0, 10, 20) for f in (101, 100)))
        assert main(["report", "--records", str(records), "--out", str(workspace / "o"),
                     "--bins", "5"]) == 1
        assert capsys.readouterr().err == ("error: plots/X_ch000.dat: channels 'X':0 and "
                                           "'X':0 would both write this file\n")
        assert list((workspace / "o").iterdir()) == []

    def test_eval_minus_inf_snr_means_no_signal(self, workspace):
        scn = workspace / "absent.yaml"
        scn.write_text(SCENARIO.replace("snr_db_points: [0.0, 10.0]",
                                        "snr_db_points: [-.inf, 10.0]"))
        assert main(["eval", "--scenario", str(scn), "--out", str(workspace / "o")]) == 0
        rows = [ln.split(",") for ln in (workspace / "o" / "eval.csv").read_text().splitlines()]
        absent = [r for r in rows if r[1:3] == ["point", "-inf"]]
        assert len(absent) == 3 and all(r[5] == r[6] for r in absent)  # pd == pfa

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflowing_mix_fails_without_records(self, workspace, capsys, workers):
        # a finite noise power whose SNR scale overflows: the mix holds inf/nan samples
        scn = workspace / "huge.yaml"
        scn.write_text(SCENARIO.replace("total_power: 1.0", "total_power: 1.0e308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape either
            self._fails_with(capsys, ["simulate", "--scenario", str(scn), "--out",
                                      str(workspace / "o"), "--workers", workers],
                             "channel TESTBAND:0")
        assert not (workspace / "o" / "records.csv").exists()

    # Noise of power 1e300 sums to a finite frame energy; a 100 dB signal on it does not. The
    # channels are off until an override's schedule turns them on.
    @staticmethod
    def _turns_on(channels):
        """wide_scenario whose channel "KEY" overflows from the frame at ``t`` s, for each
        KEY: t of ``channels``."""
        return wide_scenario(
            schedule="period_s: 100.0\n    on_intervals: []", total_power="1.0e300",
            snr_db="100.0", channels="".join(
                f'  "{key}":\n    schedule:\n      period_s: 100.0\n'
                f'      on_intervals: [[{t}, 100.0]]\n' for key, t in channels.items()))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_later_window_failure_writes_nothing(self, workspace, capsys, workers):
        # frame 34 is in the second window, after the first one's rows have been written
        scn = workspace / "late.yaml"
        scn.write_text(self._turns_on({"TESTBAND:2": 17.0}))
        out = workspace / "o"
        assert main(["simulate", "--scenario", str(scn), "--out", str(out),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == (
            "error: channel TESTBAND:2: frame 34: energy is not finite "
            "(a sample or the power sum overflows)\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_first_bad_frame_in_record_log_order(self, workspace, capsys, workers):
        # frame 34 comes before frame 35 in the log, and within frame 34, WIDE:34 before
        # TESTBAND:0; plan order would name WIDE:0 first, and within the second channel run,
        # WIDE:33
        scn = workspace / "late.yaml"
        scn.write_text(self._turns_on({"WIDE:0": 17.5, "WIDE:33": 17.5, "WIDE:34": 17.0,
                                       "TESTBAND:0": 17.0}))
        assert main(["simulate", "--scenario", str(scn), "--out", str(workspace / "o"),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == (
            "error: channel WIDE:34: frame 34: energy is not finite "
            "(a sample or the power sum overflows)\n")

    def test_frame_times_collide(self, workspace, capsys):
        # the float spacing at 1.7e9 s is 2.4e-7 s: 1e-7 s steps repeat capture times
        self._cmd_fails_with(capsys, workspace, "simulate", "frame_interval_s: 0.5\ntotal_s: 5.0",
                             "start_time_unix: 1.7e9\nframe_interval_s: 1.0e-7\ntotal_s: 3.0e-7",
                             "frame_interval_s")

    def test_sample_rate_not_positive(self, workspace, capsys):
        self._cmd_fails_with(capsys, workspace, "simulate", "sample_rate_hz: 1.0e6",
                             "sample_rate_hz: 0.0", "sample_rate_hz")

    def test_start_time_not_finite(self, workspace, capsys):
        self._cmd_fails_with(capsys, workspace, "simulate", "master_seed: 42",
                             "master_seed: 42\nstart_time_unix: .inf", "start_time_unix")

    def test_plan_frequency_not_positive(self, workspace, capsys):
        self._cmd_fails_with(capsys, workspace, "simulate",
                             "start_mhz: 100.0\n    stop_mhz: 110.0",
                             "start_mhz: -10.0\n    stop_mhz: 0.0", "plan[0]")

    def test_duplicate_band_name(self, workspace, capsys):
        band = SCENARIO[SCENARIO.index("  - name: TESTBAND"):SCENARIO.index("\ndefaults:")]
        self._cmd_fails_with(capsys, workspace, "simulate", band, band + band,
                             "band 'TESTBAND'")

    def _scenario_fails(self, capsys, workspace, cmd, old, new, message):
        """The scenario edited from ``old`` to ``new`` prints exactly ``error: message``."""
        assert old in SCENARIO
        scn = workspace / "bad.yaml"
        scn.write_text(SCENARIO.replace(old, new))
        assert main([cmd, "--scenario", str(scn), "--out", str(workspace / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "o").exists()

    PLAN = SCENARIO[SCENARIO.index("plan:\n"):SCENARIO.index("\ndefaults:")]

    @pytest.mark.parametrize("plan, message", [
        ("plan: 5\n", "plan: expected 'builtin' or a list of band mappings"),
        ("plan: [5]\n", "plan[0]: expected a mapping, got int"),
    ])
    def test_plan_not_a_list_of_mappings(self, workspace, capsys, plan, message):
        self._scenario_fails(capsys, workspace, "simulate", self.PLAN, plan, message)

    @pytest.mark.parametrize("intervals", ["[[0.0, 1.0, 1.5]]", "[0.5]"])
    def test_schedule_interval_not_a_pair(self, workspace, capsys, intervals):
        self._scenario_fails(capsys, workspace, "simulate", "on_intervals: [[0.0, 1.0]]",
                             f"on_intervals: {intervals}", "channel TESTBAND:0.schedule."
                             "on_intervals[0]: expected [start_s, end_s]")

    def test_channel_override_not_a_mapping(self, workspace, capsys):
        self._scenario_fails(capsys, workspace, "simulate", "detector:",
                             'channels:\n  "TESTBAND:1": 5\n\ndetector:',
                             "channels.TESTBAND:1: expected a mapping")

    def test_channel_without_schedule(self, workspace, capsys):
        schedule = "  schedule:\n    period_s: 2.0\n    on_intervals: [[0.0, 1.0]]\n"
        self._scenario_fails(capsys, workspace, "simulate", schedule, "",
                             "channel TESTBAND:0: needs signal, noise and schedule "
                             "(from defaults or a channels override)")

    def test_channel_without_snr(self, workspace, capsys):
        self._scenario_fails(capsys, workspace, "simulate", "  snr_db: 10.0\n", "",
                             "channel TESTBAND:0.snr_db: required field is missing")

    def test_zero_frame_len(self, workspace, capsys):
        self._scenario_fails(capsys, workspace, "simulate", "frame_len: 256", "frame_len: 0",
                             "frame_len: must be >= 1")

    def test_huge_frame_len(self, workspace, capsys):
        # rejected at load: no block of 10**12-sample frames is ever allocated
        self._scenario_fails(capsys, workspace, "simulate", "frame_len: 256",
                             "frame_len: 1000000000000",
                             "frame_len: must be at most 1,048,576, got 1,000,000,000,000")

    def test_huge_eval_frame_len(self, workspace, capsys):
        self._scenario_fails(capsys, workspace, "eval", "eval:\n",
                             "eval:\n  frame_len: 1000000000000\n",
                             "eval.frame_len: must be at most 1,048,576, got 1,000,000,000,000")

    @pytest.mark.parametrize("cmd, section", [("calibrate", "calibration"), ("eval", "eval")])
    def test_section_signal_missing(self, workspace, capsys, cmd, section):
        # no defaults.signal either, so the section has no signal to fall back on
        self._scenario_fails(capsys, workspace, cmd,
                             "  signal:\n    kind: tone\n    normalized_freq: 0.125\n", "",
                             f"{section}.signal: required (directly or via defaults.signal)")

    def test_one_entry_roc_list(self, workspace, capsys):
        self._scenario_fails(capsys, workspace, "eval", "ed: [0.9, 1.0, 1.1, 1.2]", "ed: [0.9]",
                             "eval.roc_thresholds.ed: expected a list of >= 2 thresholds")

    def test_scenario_with_control_character(self, workspace, capsys):
        # the YAML reader's error carries no problem mark, so no line number is given
        self._scenario_fails(capsys, workspace, "simulate", "name: cli-test", "name: cli\x01test",
                             f"{workspace / 'bad.yaml'}: unacceptable character #x0001: special "
                             'characters are not allowed\n  in "<unicode string>", position 9')

    def test_sweep_too_long(self, workspace, capsys):
        # np.arange could not hold the frame times; the bound names the field first
        self._scenario_fails(capsys, workspace, "simulate", "total_s: 5.0", "total_s: 1.0e+300",
                             "total_s: the sweep would make 6e+300 frames (3 channels), "
                             "more than 100,000,000")

    def test_eval_too_many_trials(self, workspace, capsys):
        # the trials' statistics would need petabytes
        self._scenario_fails(capsys, workspace, "eval", "trials: 200", "trials: 100000000000000",
                             "eval.trials: must be at most 100,000,000, got 100,000,000,000,000")

    def test_report_bins_overflow_bin_numbers(self, workspace, capsys):
        # 1767225600 / 1e-300 overflows: every scan would fall in one bin starting at inf
        records = workspace / "r.csv"
        records.write_text(RECORD_CSV_HEADER + "\n"
                           "1767225600.000000,TESTBAND,0,100,ed,1.5,1.1,1\n"
                           "1767225660.000000,TESTBAND,0,100,ed,0.5,1.1,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape either
            assert main(["report", "--records", str(records), "--out", str(workspace / "o"),
                         "--bins", "1e-300"]) == 1
        assert capsys.readouterr().err == (
            "error: --bins: bin numbers must be finite, but capture time 1767225600.0 "
            "/ bin length 1e-300 is not\n")
        assert not (workspace / "o").exists()

    def test_report_malformed_line_beats_bins_overflow(self, workspace, capsys):
        # the bin overflow is on line 2, the malformed line two read chunks later
        records = workspace / "r.csv"
        good = "1767225600.000000,TESTBAND,0,100,ed,1.5,1.1,1\n"
        records.write_text(RECORD_CSV_HEADER + "\n" + good * 2500 +
                           "1767225600.000000,TESTBAND,0,100,ed,1.5,1.1,yes\n")
        assert main(["report", "--records", str(records), "--out", str(workspace / "o"),
                     "--bins", "1e-300"]) == 1
        assert capsys.readouterr().err == \
            f"error: {records}:2502: present must be 0 or 1, got 'yes'\n"
        assert not (workspace / "o").exists()

    # Finite noise whose power sum overflows: every sample is finite, the energy is not.
    def _energy_overflows(self, capsys, workspace, argv, where, output):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
            assert main([*argv, "--out", str(workspace / "o")]) == 1
        assert capsys.readouterr().err == \
            f"error: {where}: frame 0: energy is not finite " \
            "(a sample or the power sum overflows)\n"
        assert not (workspace / "o" / output).exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_eval_noise_energy_overflows(self, workspace, capsys, workers):
        scn = workspace / "huge.yaml"
        scn.write_text(SCENARIO.replace("eval:\n", "eval:\n  noise:\n    total_power: 1.0e308\n"))
        self._energy_overflows(capsys, workspace, ["eval", "--scenario", str(scn),
                                                   "--workers", workers], "eval", "eval.csv")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_never_on_channel_energy_overflows(self, workspace, capsys, workers):
        scn = workspace / "huge.yaml"
        scn.write_text(SCENARIO.replace("detector:", 'channels:\n  "TESTBAND:1":\n'
                                        "    noise:\n      total_power: 1.0e308\n"
                                        "    schedule:\n      period_s: 2.0\n"
                                        "      on_intervals: []\n\ndetector:"))
        self._energy_overflows(capsys, workspace, ["simulate", "--scenario", str(scn),
                                                   "--workers", workers],
                               "channel TESTBAND:1", "records.csv")

    def test_calibration_noise_energy_overflows(self, workspace, capsys):
        # at 0 dB the signal's scale is finite too, so only the energy overflows
        scn = workspace / "huge.yaml"
        scn.write_text(SCENARIO.replace("calibration:\n  snr_db: 20.0", "calibration:\n"
                                        "  snr_db: 0.0\n  noise:\n    total_power: 1.0e308"))
        self._energy_overflows(capsys, workspace, ["calibrate", "--scenario", str(scn)],
                               "calibration", "reference.txt")

    def test_reference_file_with_nan(self, workspace, capsys):
        ref = workspace / "reference.txt"
        ref.write_text("lags=8\n1.0\nnan\n" + "0.5\n" * 6)
        assert main(["simulate", "--scenario", str(workspace / "scn.yaml"), "--out",
                     str(workspace / "o")]) == 1
        assert capsys.readouterr().err == \
            f"error: {ref}: AcfVector entries must be finite and lie in [0, 1]\n"

    @pytest.mark.parametrize("cmd, message", [pytest.param(*case, id=case[0]) for case in [
        ("simulate", "channel TESTBAND:0.signal.amplitude: 0.0 gives the tone signal no power "
         "to scale to channel TESTBAND:0.snr_db 10.0"),
        ("calibrate", "calibration.signal.amplitude: 0.0 gives the tone signal no power to "
         "scale to calibration.snr_db 20.0"),
        ("eval", "eval.signal.amplitude: 0.0 gives the tone signal no power to scale to "
         "eval.snr_db_points[0] 0.0"),
    ]])
    def test_signal_amplitude_zero_at_finite_snr(self, workspace, capsys, cmd, message):
        # snr_scale cannot scale a zero-power signal to a finite SNR
        self._scenario_fails(capsys, workspace, cmd, "normalized_freq: 0.125",
                             "normalized_freq: 0.125\n    amplitude: 0",
                             f"{message} (use a larger amplitude, or snr_db -.inf)")

    def test_huge_symbol_rate_divisor(self, workspace, capsys):
        # signal_rows would repeat each symbol 2**70 times before cutting the row to frame_len
        self._scenario_fails(capsys, workspace, "calibrate", "kind: tone",
                             "kind: bpsk\n    symbol_rate_divisor: 1180591620717411303424",
                             "calibration.signal.symbol_rate_divisor: must be at most "
                             "1,048,576, got 1,180,591,620,717,411,303,424")

    @pytest.mark.parametrize("old", ["reference_frames: 50", "threshold_frames: 500"])
    def test_calibration_frame_count_too_large(self, workspace, capsys, old):
        # without the bound calibrate runs on for hours, its --out already made
        field = old.split(":")[0]
        self._scenario_fails(capsys, workspace, "calibrate", old, f"{field}: 100000001",
                             f"calibration.{field}: must be at most 100,000,000, "
                             "got 100,000,001")

    def test_band_channel_count_too_large(self, workspace, capsys):
        # without the bound every load that builds the plan appends 10**9 channels
        self._scenario_fails(capsys, workspace, "simulate", "expected_channels: 3",
                             "expected_channels: 1000000000",
                             "plan[0].expected_channels: must be at most 100,000, "
                             "got 1,000,000,000")

    def test_plan_channel_count_too_large(self, workspace, capsys):
        band = self.PLAN.removeprefix("plan:\n").replace("expected_channels: 3",
                                                         "expected_channels: 60000")
        self._scenario_fails(capsys, workspace, "simulate", self.PLAN,
                             "plan:\n" + band + band.replace("TESTBAND", "OTHER"),
                             "plan: the bands would hold 120,000 channels, more than 100,000")

    @pytest.mark.parametrize("field, value", [("reference_frames", "0"),
                                              ("reference_frames", "-1"),
                                              ("threshold_frames", "99"),
                                              ("threshold_frames", "0")])
    def test_calibration_frame_count_too_small(self, workspace, capsys, field, value):
        old = {"reference_frames": "reference_frames: 50",
               "threshold_frames": "threshold_frames: 500"}[field]
        self._cmd_fails_with(capsys, workspace, "calibrate", old, f"{field}: {value}",
                             f"calibration.{field}")

    def _analyze_argv(self, workspace, *options):
        return ["analyze", "--scenario", str(workspace / "scn.yaml"), "--out",
                str(workspace / "o"), "--iq", str(workspace / "cap.iq"), "--meta",
                str(workspace / "cap.iq.meta"), *options]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2412"])
    def test_analyze_bad_center(self, workspace, capsys, value):
        self._fails_with(capsys, self._analyze_argv(workspace, f"--center-mhz={value}"),
                         "--center-mhz")
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_analyze_bad_freq_tolerance(self, workspace, capsys, value):
        self._fails_with(capsys, self._analyze_argv(workspace, "--center-mhz", "2412",
                                                    f"--freq-tol-mhz={value}"),
                         "--freq-tol-mhz")
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize("samples", [100, 3 * 256])
    def test_analyze_mistuned_recording(self, workspace, capsys, samples):
        # a 915 MHz capture scanned as 2412 MHz, with no whole frame or with three
        frame = ComplexFrame(np.ones(samples, dtype=np.complex128), 1e6, 915e6, 0.0)
        write_recording([frame], workspace / "cap.iq", workspace / "cap.iq.meta")
        assert main(self._analyze_argv(workspace, "--center-mhz", "2412")) == 1
        assert capsys.readouterr().err == (
            "error: frame at 915.0 MHz does not match channel recording[0] at 2412.0 MHz "
            "(tolerance 1.0 MHz)\n")
        assert not (workspace / "o").exists()


class TestReport:
    @pytest.fixture
    def sim_out(self, workspace):
        scn = workspace / "scn.yaml"
        out = workspace / "sim"
        assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
        return out

    def test_occupancy_and_plots(self, workspace, sim_out):
        rep = workspace / "rep"
        rc = main(["report", "--records", str(sim_out / "records.csv"),
                   "--out", str(rep), "--bins", "2.0"])
        assert rc == 0
        lines = (rep / "occupancy.csv").read_text().splitlines()
        assert lines[0] == OCCUPANCY_CSV_HEADER
        # 3 channels x 3 detectors x 3 bins ([0,2) [2,4) [4,6))
        assert len(lines) == 1 + 27
        dats = sorted(p.name for p in (rep / "plots").iterdir())
        assert dats == ["TESTBAND_ch000.dat", "TESTBAND_ch001.dat", "TESTBAND_ch002.dat"]

    def test_scan_count_conserved(self, workspace, sim_out):
        rep = workspace / "rep2"
        assert main(["report", "--records", str(sim_out / "records.csv"),
                     "--out", str(rep), "--bins", "100.0"]) == 0
        rows = (rep / "occupancy.csv").read_text().splitlines()[1:]
        totals = [int(r.split(",")[7]) for r in rows]
        # one bin per channel/detector holding all 10 scans
        assert len(rows) == 9
        assert all(t == 10 for t in totals)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
    def test_peak_memory_per_record(self, tmp_path):
        # the record log is parsed and counted in chunks: peak memory holds the
        # cells and one chunk, not a row or a column entry per record
        probe = ("import sys\nfrom occuscan.cli import main\nassert main(sys.argv[1:]) == 0\n"
                 "print([ln for ln in open('/proc/self/status') if 'VmHWM' in ln][0].strip())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        channels = [Channel("TESTBAND", i, 100.0 + 5 * i) for i in range(3)]
        sizes, peaks = (30_000, 240_000), []
        for n in sizes:
            rng = np.random.default_rng(n)
            k = np.arange(n)
            write_record_tables([RecordTable(
                channels, 1767225600.0 + k // 9 * 0.5, k // 3 % 3, k % 3, rng.uniform(0, 2, n),
                np.full(n, 1.1), rng.integers(0, 2, n).astype(bool))], tmp_path / "r.csv")
            out = subprocess.run(
                [sys.executable, "-c", probe, "report", "--records", str(tmp_path / "r.csv"),
                 "--out", str(tmp_path / "rep"), "--bins", "60"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            peaks.append(int(out.splitlines()[-1].split()[1]) * 1024)  # kB to bytes
        # cells are counted a chunk at a time, so peak memory grows with the cells
        # (about 4,000 here), not with the records: it grew about 125 bytes a record
        # when the whole log was read before counting, and 250 as a list of row tuples
        assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < 16

    def test_bin_start_prints_without_sign_of_minus_zero(self, workspace):
        """A capture time of -0.0 lies in the bin that starts at 0, printed 0.000000."""
        records = workspace / "r.csv"
        records.write_text(RECORD_CSV_HEADER + "\n"
                           "-0.000000,B,0,100,ed,1.5,1.1,1\n"
                           "0.500000,B,0,100,acf1,0.2,1.1,0\n")
        assert main(["report", "--records", str(records), "--out", str(workspace / "o"),
                     "--bins", "60"]) == 0
        rows = (workspace / "o" / "occupancy.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3:5] for row in rows] == [["ed", "0.000000"], ["acf1", "0.000000"]]
        plot = (workspace / "o" / "plots" / "B_ch000.dat").read_text()
        assert plot.splitlines()[1:] == ["0.000000 1 0 nan"]

    def test_blank_line_changes_nothing(self, workspace, sim_out):
        """A blank line inside the record log is skipped, not read as a record."""
        lines = (sim_out / "records.csv").read_text().splitlines(keepends=True)
        blank = workspace / "blank.csv"
        blank.write_text("".join(lines[:10] + ["\n"] + lines[10:]))
        for records, rep in ((sim_out / "records.csv", "rep4"), (blank, "rep5")):
            assert main(["report", "--records", str(records), "--out", str(workspace / rep),
                         "--bins", "2.0"]) == 0
        assert ((workspace / "rep5" / "occupancy.csv").read_bytes()
                == (workspace / "rep4" / "occupancy.csv").read_bytes())

    def test_missing_records_file(self, workspace, capsys):
        rc = main(["report", "--records", str(workspace / "nope.csv"),
                   "--out", str(workspace / "rep3")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_outputs_and_determinism(self, workspace):
        scn = workspace / "scn.yaml"
        a, b = workspace / "ev1", workspace / "ev2"
        assert main(["eval", "--scenario", str(scn), "--out", str(a)]) == 0
        assert main(["eval", "--scenario", str(scn), "--out", str(b),
                     "--workers", "2"]) == 0
        lines = (a / "eval.csv").read_text().splitlines()
        assert lines[0] == "detector,scenario,snr_db,threshold,trials,pd,pfa"
        # 3 detectors x 2 snr points + 4 ed roc rows
        assert len(lines) == 1 + 6 + 4
        assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()

    def test_row_labels(self, workspace):
        out = workspace / "ev3"
        assert main(["eval", "--scenario", str(workspace / "scn.yaml"),
                     "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in (out / "eval.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["point"] * 6 + ["roc"] * 4
        assert [r[0] for r in rows[:6]] == ["ed", "ed", "acf1", "acf1", "cdist", "cdist"]


class TestErrors:
    def test_missing_scenario(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_without_reference(self, tmp_path, capsys):
        scn = tmp_path / "scn.yaml"
        scn.write_text(SCENARIO)  # reference.txt not calibrated yet
        rc = main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "reference" in capsys.readouterr().err

    def test_plan_frequencies_not_increasing(self, tmp_path, capsys):
        # a step below half a float's spacing at 2400 MHz leaves both channels at 2400.0
        band = ("  - name: X\n    start_mhz: 2400.0\n    stop_mhz: 2400.0\n"
                "    spacing_mhz: [1.0e-13]\n    expected_channels: 2")
        scn = tmp_path / "scn.yaml"
        scn.write_text(SCENARIO.replace(TESTBAND, band))
        assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: band 'X': frequencies not strictly increasing\n"

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_analyze_takes_no_seed(self, tmp_path, capsys):
        # analyze draws nothing, so a seed would change no byte of its output
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--scenario", str(tmp_path / "scn.yaml"), "--out", str(tmp_path),
                  "--iq", "cap.iq", "--meta", "cap.iq.meta", "--center-mhz", "100",
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "calibrate" in capsys.readouterr().out


EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example-scenario.yaml"


def _example_base() -> dict:
    """The example scenario cut down to one 3-channel band and small frame counts."""
    data = Scenario.load(EXAMPLE).data
    data["plan"] = [{"name": "2.4GHz", "start_mhz": 2402.0, "stop_mhz": 2412.0,
                     "spacing_mhz": [5.0], "expected_channels": 3}]
    data["channels"] = {"2.4GHz:2": data["channels"]["2.4GHz:2"]}
    data.update(frame_len=64, total_s=3.0)
    data["calibration"].update(reference_frames=10, threshold_frames=100)
    data["eval"]["trials"] = 40
    return data


def _key_paths(section="scenario", prefix=()):
    """(path, is_leaf) of every key SCHEMA holds, with the plan row and the channels
    override the cut-down example has (plan entry 0, override "2.4GHz:2")."""
    for key, field in SCHEMA[section].items():
        path = (*prefix, key)
        yield path, field.section is None
        if field.section is not None:
            inner = (*path, 0) if field.kind is list else (
                (*path, "2.4GHz:2") if field.each else path)
            yield from _key_paths(field.section, inner)


def _path_name(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _parent(data: dict, path) -> dict:
    """The mapping that holds path[-1], made empty where the scenario lacks it."""
    for key in path[:-1]:
        data = data[key] if isinstance(data, list) else data.setdefault(key, {})
    return data


def _scalar_paths(node, path=()):
    """The key path of every scalar in a parsed YAML tree."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _scalar_paths(child, (*path, key))


class TestUnknownKeys:
    """A key the schema does not hold fails at load, naming its path, before --out exists."""

    def _fails_at_load(self, capsys, tmp_path, data, message):
        scn = tmp_path / "scn.yaml"
        scn.write_text(data if isinstance(data, str) else yaml.safe_dump(data))
        for cmd in ("calibrate", "simulate", "eval"):
            assert main([cmd, "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", [p for p, _ in _key_paths()], ids=_path_name)
    def test_renamed_key(self, tmp_path, capsys, path):
        data = _example_base()
        parent = _parent(data, path)
        parent[path[-1] + "x"] = parent.pop(path[-1], 1)
        self._fails_at_load(capsys, tmp_path, data, f"{_path_name(path)}x: unknown key")

    @pytest.mark.parametrize("old, new, message", [pytest.param(*case, id=case[2]) for case in [
        # each of these once silently fell back to a default
        ("normalized_freq: 0.13", "normalised_freq: 0.13", "defaults.signal.normalised_freq"),
        ("on_intervals: [[0.0, 30.0]]", "on_interval: [[0.0, 30.0]]",
         "defaults.schedule.on_interval"),
        ("target_pfa: 0.05", "targetpfa: 0.05", "calibration.targetpfa"),
        ("frame_len: 1024", "frame_lenn: 1024", "frame_lenn"),
    ]])
    def test_misspelled_example_key(self, tmp_path, capsys, old, new, message):
        text = EXAMPLE.read_text()
        assert old in text
        self._fails_at_load(capsys, tmp_path, text.replace(old, new),
                            f"{message}: unknown key")


class TestScenarioFuzz:
    """One scenario leaf replaced by a bad value: each command exits 0, or 1 with "error:".

    The leaves are every key the schema holds, whether the example sets it or
    not, and every entry of the example's lists.
    """

    VALUES = [None, "x", [], {}, True, -1, 0, math.nan, math.inf, -math.inf]

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """The cut-down example scenario, and its reference file."""
        data = _example_base()
        root = tmp_path_factory.mktemp("fuzz")
        (root / "scn.yaml").write_text(yaml.safe_dump(data))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["calibrate", "--scenario", str(root / "scn.yaml"), "--out",
                         str(root)]) == 0
        return data, (root / "reference.txt").read_text(), root

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_leaf_fails_cleanly(self, base, data):
        scenario, reference, root = base
        leaves = {p for p, leaf in _key_paths() if leaf}
        leaves |= {p for p in _scalar_paths(scenario) if any(isinstance(k, int) for k in p)}
        path = data.draw(st.sampled_from(sorted(leaves, key=repr)))
        value = data.draw(st.sampled_from(self.VALUES))
        scenario = copy.deepcopy(scenario)
        _parent(scenario, path)[path[-1]] = value
        (root / "reference.txt").write_text(reference)
        (root / "scn.yaml").write_text(yaml.safe_dump(scenario))
        for cmd in ("calibrate", "simulate", "eval"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([cmd, "--scenario", str(root / "scn.yaml"), "--out",
                           str(root / "out")])
            assert rc == 0 or (rc == 1 and err.getvalue().startswith("error:")), \
                (cmd, path, value, rc, err.getvalue())


class TestStartUp:
    """What a fresh interpreter loads, and what the BLAS thread count may change."""

    # occuscan.__all__ as it was when the package imported every submodule eagerly, less
    # the object-form functions and classes removed since, the recording writer and the
    # DETECTOR_ED, DETECTOR_ACF1 and DETECTOR_CDIST aliases of DETECTOR_TABLE's names
    PUBLIC_NAMES = [
        "AcfVector", "BUILTIN_BANDS", "BandSpec", "CalibrationError", "Channel",
        "ComplexFrame", "CsvParseError", "DETECTORS", "DETECTOR_TABLE", "DegenerateFrameError",
        "DetectorConfig",
        "MetaFormatError", "NoiseSpec", "OccupancySchedule",
        "OccuscanError", "PlanError", "RecordingMeta", "RoutingError", "SampleDataError",
        "ScanRecord", "Scenario", "ScenarioError", "SignalSpec", "TruncationError",
        "UsageError", "acf", "acf1_statistic", "acf_vector", "block_statistics",
        "build_channel_plan", "builtin_plan", "calibrate_ed_threshold", "channels",
        "correlation_distance", "detectors", "energy_statistic", "errors",
        "gen_channel_timeline", "gen_noise_frame", "gen_signal_frame", "iq", "load_reference",
        "read_meta", "report", "save_reference", "scan", "scan_channel", "scenario",
        "snr_scale", "synth", "write_occupancy_csv",
    ]

    def _python(self, *args, **env):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              check=True).stdout

    def test_import_loads_no_numpy(self):
        out = self._python("-c", "import sys, occuscan; print('numpy' in sys.modules)")
        assert out == "False\n"

    def test_public_names_resolve(self):
        import occuscan
        from occuscan import detectors, gen_noise_frame

        assert occuscan.__all__ == self.PUBLIC_NAMES
        assert occuscan.detectors is detectors
        assert occuscan.gen_noise_frame is gen_noise_frame is sys.modules[
            "occuscan.synth"].gen_noise_frame
        assert all(hasattr(occuscan, name) for name in occuscan.__all__)
        assert set(occuscan.__all__) <= set(dir(occuscan))
        with pytest.raises(AttributeError):
            occuscan.no_such_name

    # numpy.random adds about 2.7 MB of peak RSS, and OpenSSL's _hashlib, which it would load
    # through secrets, 3.6 MB more; numpy.ma adds 1.3 MB, and np.unique imports it when
    # called without return_inverse, as np.quantile calls it. The CLI maps _hashlib to None
    # in sys.modules, so a module counts as loaded only if it is not None.
    @pytest.mark.parametrize("command, unused", [
        ("report", ["yaml", "occuscan.scenario", "occuscan.synth", "occuscan.evaluate",
                    "numpy.random", "numpy.ma", "concurrent.futures"]),
        ("calibrate", ["occuscan.scan", "occuscan.report", "occuscan.evaluate", "_hashlib",
                       "numpy.ma"]),
        ("analyze", ["occuscan.synth", "occuscan.evaluate", "occuscan.report", "numpy.random",
                     "concurrent.futures"]),
        # the main process derives seeds; only the pool workers draw
        ("simulate", ["occuscan.report", "occuscan.evaluate", "numpy.random", "_hashlib"]),
        ("eval", ["_hashlib", "numpy.ma", "occuscan.report", "concurrent.futures"]),
    ])
    def test_command_loads_only_what_it_runs(self, workspace, command, unused):
        records = workspace / "r.csv"
        records.write_text(RECORD_CSV_HEADER + "\n0,TESTBAND,0,100,ed,1.5,1.1,1\n")
        np.zeros(2 * 4 * 256, "<f4").tofile(workspace / "cap.iq")  # four 256-sample frames
        (workspace / "cap.iq.meta").write_text("sample_rate_hz=1e6\ncenter_freq_hz=100e6\n"
                                               "start_time_unix=0.0\nnum_samples=1024\n")
        argv = {"report": ["report", "--records", str(records)],
                "analyze": ["analyze", "--scenario", str(workspace / "scn.yaml"),
                            "--iq", str(workspace / "cap.iq"),
                            "--meta", str(workspace / "cap.iq.meta"), "--center-mhz", "100"],
                "calibrate": ["calibrate", "--scenario", str(workspace / "scn.yaml")],
                "simulate": ["simulate", "--scenario", str(workspace / "scn.yaml"),
                             "--workers", "2"],
                "eval": ["eval", "--scenario", str(workspace / "scn.yaml"),
                         "--workers", "1"]}[command]
        code = ("import sys\nfrom occuscan.cli import main\nassert main(sys.argv[1:]) == 0\n"
                f"print([m for m in {unused!r} if sys.modules.get(m) is not None])")
        out = self._python("-c", code, *argv, "--out", str(workspace / "o"))
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command, scenario, workers, size", [
        # 40 trials make two 32-trial chunks
        ("eval", SCENARIO.replace("trials: 200", "trials: 40"), 4, 2),
        # 10 frames of 3 channels, one task, which still runs in a pool
        ("simulate", SCENARIO, 2, 1),
        # 20 frames of 41 channels, one window of two runs
        ("simulate", wide_scenario().replace("total_s: 20.0", "total_s: 10.0"), 4, 2),
    ], ids=["eval", "simulate-one-task", "simulate-two-tasks"])
    def test_pool_starts_no_process_without_a_task(self, workspace, monkeypatch, command,
                                                   scenario, workers, size):
        sizes = []
        init = concurrent.futures.ProcessPoolExecutor.__init__

        def record(pool, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            init(pool, max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", record)
        scn = workspace / "pool.yaml"
        scn.write_text(scenario)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--scenario", str(scn), "--out", str(workspace / "o"),
                         "--workers", str(workers)]) == 0
        assert sizes == [size]

    def test_sweep_workers_draw_without_openssl(self, workspace, tmp_path):
        """A pool worker that has drawn its frames has not loaded _hashlib.

        Asserted under the fork start method only, where workers inherit the CLI's
        sys.modules entry: a forkserver (Python 3.14's default) may load hmac, and with it
        _hashlib, for its own authentication before occuscan runs, and it could not find
        this test's wrapper, which lives in the -c script's __main__.
        """
        code = """\
import multiprocessing, os, sys
if multiprocessing.get_start_method() != "fork":
    print("start method:", multiprocessing.get_start_method())
    sys.exit()
import occuscan.cli as cli
sweep_window = cli._sweep_window
def drawn(task):  # runs in the worker, so it reports the worker's modules
    result = sweep_window(task)
    with open(os.path.join(sys.argv[1], str(os.getpid())), "w") as fh:
        fh.write(repr([sys.modules.get(m) is not None for m in ("numpy.random", "_hashlib")]))
    return result
cli._sweep_window = drawn
assert cli.main(sys.argv[2:]) == 0
print("main", os.getpid())
"""
        reports = tmp_path / "workers"
        reports.mkdir()
        out = self._python("-c", code, str(reports), "simulate", "--scenario",
                           str(workspace / "scn.yaml"), "--out", str(workspace / "o"),
                           "--workers", "2")
        if out.startswith("start method:"):
            pytest.skip(out.strip())
        workers = {p.name: p.read_text() for p in reports.iterdir()}
        assert workers and out.split()[-1] not in workers
        assert set(workers.values()) == {"[True, False]"}  # numpy.random drew, no _hashlib

    def test_cli_process_still_hashes(self):
        # with _hashlib kept out, hashlib and hmac run CPython's built-in hashes
        code = ("import sys, occuscan.cli, hashlib, hmac, secrets\n"
                "print(sys.modules['_hashlib'], hashlib.sha256(b'abc').hexdigest())\n"
                "print(hmac.new(b'Jefe', b'what do ya want for nothing?', 'sha256').hexdigest(), "
                "hmac.compare_digest(b'a', b'a'))")
        assert self._python("-c", code).splitlines() == [
            "None ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843 True",  # RFC 4231
        ]

    def test_calibrate_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a threaded BLAS dot product splits sums of 16,384 samples differently
        scn = tmp_path / "long.yaml"
        scn.write_text(SCENARIO.replace("frame_len: 256", "frame_len: 16384")
                       .replace("reference_frames: 50", "reference_frames: 4")
                       .replace("threshold_frames: 500", "threshold_frames: 100"))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            stdout = self._python("-m", "occuscan.cli", "calibrate", "--scenario", str(scn),
                                  "--out", str(out), OPENBLAS_NUM_THREADS=threads)
            outputs.append(((out / "reference.txt").read_bytes(), stdout.splitlines()[1]))
        assert outputs[0] == outputs[1]
