"""Golden sha256 digests of every command's outputs on the acceptance scenario and a wider sweep.

The determinism tests prove that reruns and worker counts agree with each
other; these pin the bytes themselves, so any change to an output is visible
and deliberate. A change that alters an output must update its digest here and
state how many rows and ``present`` decisions changed.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from occuscan.cli import main
from test_acceptance import ACCEPTANCE_SCENARIO

GOLDEN = {
    "reference.txt": "38275bcc973c2af4432a84e21b7196302d82f439b0245072cd78c60ef3988428",
    "lambda_ed": "067075ab60226f0bd678dd747664c8c8a3090b437e4c4b40fcdc0d781306c839",
    "lambda_acf": "18c9d4fff96fee84dc8160d76c9f40a2db313b7491d5326c032f6642ecbdc0a0",
    "gamma": "f4caf608e6899ca5eb42b208772beb89197293a497acff8c07e2cdf64008afd5",
    "plan.csv": "2651f67e91174a7dfad680ead7324dcddd4dabecbcda4145d31394a8678cfdee",
    "records.csv": "2b41461e635bd80918f455818975bd880cdb2e2f633660b3af9d9ceb20eeaebe",
    "truth.csv": "af9a17048332506916e1152d5aa3b2999977841abbe740b02e71ada7d8c5b7eb",
    "occupancy.csv": "e705f8534e6d6e6a2b589f1d7a8c9a718ad49e1d6a9ab4d9a48cd6b2741046f2",
    "eval.csv": "8b948ec8b40724410d1530f92a8e1e5ee3bb2533717e4eb5aa728dd2b7ae8fd1",
    "analyze/records.csv": "022a52842e6811c8a40b5dc221803639b3570fa245c7df4886419ba518a62dcd",
}

# the recording: 70 frames of 256 samples (three 32-frame blocks) plus 100
# trailing samples; tone on frames k % 4 < 2, frame 33 is all zeros
REC_FRAMES, REC_FRAME_LEN, REC_TAIL = 70, 256, 100


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_test_recording(payload, meta_path):
    """Noise plus a duty-cycled tone as interleaved little-endian float32 I/Q."""
    rng = np.random.default_rng(20240517)
    n = REC_FRAMES * REC_FRAME_LEN + REC_TAIL
    iq = rng.standard_normal((n, 2)) * np.sqrt(0.5)
    m = np.arange(REC_FRAME_LEN)
    tone = 3.0 * np.stack([np.cos(2 * np.pi * 0.125 * m), np.sin(2 * np.pi * 0.125 * m)], axis=-1)
    for k in range(REC_FRAMES):
        rows = slice(k * REC_FRAME_LEN, (k + 1) * REC_FRAME_LEN)
        if k % 4 < 2:
            iq[rows] += tone
        if k == 33:
            iq[rows] = 0.0
    iq.astype("<f4").tofile(payload)
    meta_path.write_text(
        "sample_rate_hz=1000000.0\ncenter_freq_hz=915000000.0\n"
        f"start_time_unix=1767225600.0\nnum_samples={n}\n"
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every output file's bytes, keyed as in GOLDEN (simulate once per worker count)."""
    root = tmp_path_factory.mktemp("golden")
    scn = root / "scn.yaml"
    scn.write_text(ACCEPTANCE_SCENARIO)
    out = {}

    def run(argv):
        assert main(argv) == 0

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run(["calibrate", "--scenario", str(scn), "--out", str(root)])
    out["reference.txt"] = (root / "reference.txt").read_bytes()
    for key in ("lambda_ed", "lambda_acf", "gamma"):
        out[key] = next(
            ln for ln in buf.getvalue().splitlines() if ln.startswith(f"{key}=")
        ).encode()

    for workers in (1, 2):
        sim = root / f"sim-w{workers}"
        run(["simulate", "--scenario", str(scn), "--out", str(sim), "--workers", str(workers)])
        out[workers] = {name: (sim / name).read_bytes()
                        for name in ("plan.csv", "records.csv", "truth.csv")}

    rep = root / "rep"
    run(["report", "--records", str(root / "sim-w1" / "records.csv"), "--out", str(rep),
         "--bins", "2.0"])
    out["occupancy.csv"] = (rep / "occupancy.csv").read_bytes()

    for workers in (1, 2):
        ev = root / f"ev-w{workers}"
        run(["eval", "--scenario", str(scn), "--out", str(ev), "--workers", str(workers)])
        out["eval.csv", workers] = (ev / "eval.csv").read_bytes()

    write_test_recording(root / "cap.iq", root / "cap.iq.meta")
    ana = root / "ana"
    run(["analyze", "--scenario", str(scn), "--out", str(ana), "--iq", str(root / "cap.iq"),
         "--meta", str(root / "cap.iq.meta"), "--center-mhz", "915"])
    out["analyze/records.csv"] = (ana / "records.csv").read_bytes()
    return out


def test_calibrate_golden(outputs):
    assert _sha(outputs["reference.txt"]) == GOLDEN["reference.txt"]
    for key in ("lambda_ed", "lambda_acf", "gamma"):
        assert _sha(outputs[key]) == GOLDEN[key], key


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_golden(outputs, workers):
    for name, data in outputs[workers].items():
        assert _sha(data) == GOLDEN[name], name


def test_report_golden(outputs):
    assert _sha(outputs["occupancy.csv"]) == GOLDEN["occupancy.csv"]


def test_eval_golden(outputs):
    assert _sha(outputs["eval.csv", 1]) == GOLDEN["eval.csv"]


def test_eval_golden_two_workers(outputs):
    """Two workers score the trial range in two chunks; the bytes must not change."""
    assert _sha(outputs["eval.csv", 2]) == GOLDEN["eval.csv"]


def test_analyze_golden(outputs):
    assert _sha(outputs["analyze/records.csv"]) == GOLDEN["analyze/records.csv"]


# A wider sweep: bands out of alphabetical order (records sort by plan
# position, `report` by band name), a band name that csv quoting must guard,
# fractional-MHz channels, a bpsk channel, a kind-none channel, a channel that
# is never on, and 40 frames per channel (one full 32-frame block and a
# partial one) starting at a non-zero epoch.
WIDE_SCENARIO = """\
name: golden-wide
master_seed: 8675309
sample_rate_hz: 2.0e6
start_time_unix: 1767225600.0
frame_len: 100
frame_interval_s: 0.25
total_s: 10.0

plan:
  - name: ZULU
    start_mhz: 900.0
    stop_mhz: 910.0
    spacing_mhz: [5]
    expected_channels: 3
  - name: "ISM, 433"
    start_mhz: 433.05
    stop_mhz: 433.1
    spacing_mhz: [0.025]
    expected_channels: 3
  - name: ALPHA
    start_mhz: 150.0
    stop_mhz: 150.0
    spacing_mhz: [1]
    expected_channels: 1

defaults:
  snr_db: 8.0
  signal:
    kind: tone
    normalized_freq: 0.21
    phase: 0.4
  noise:
    total_power: 2.0
  schedule:
    period_s: 3.0
    on_intervals: [[0.0, 1.0], [1.5, 2.25]]

channels:
  "ZULU:1":
    snr_db: 4.0
    signal:
      kind: bpsk
      symbol_rate_divisor: 3
      amplitude: 0.5
  "ISM, 433:2":
    signal:
      kind: none
  "ALPHA:0":
    schedule:
      period_s: 10.0
      on_intervals: []

detector:
  reference: reference.txt
  lambda_ed: 2.2
  lambda_acf: 0.25
  gamma: 0.6
  acf_lags: 8

calibration:
  reference_frames: 50
  threshold_frames: 500
"""
WIDE_BINS_S = "3.3"

GOLDEN_WIDE = {
    "plan.csv": "bb3d3e3c0746b34de0281d182e9a671c1c0cd2bbe205e19c7ebbb7f781c6beba",
    "records.csv": "9b82207de9200327340f18e5b6b570482a66806d56b3441536bc3c0b07393422",
    "truth.csv": "361b9f18067b9243c48fa20e40f1b15c64627292684f6efc2e36f40866692c25",
    "occupancy.csv": "e395aff39c2de1c639c6ef7943f94bdbd3b08ee554444bf79187bcc06979d9f9",
    "plots": "407f807d7d1b342930ca2ef7d0fd8b5ecab230d76e61d524b23dfa808bc0826a",
}


@pytest.fixture(scope="module")
def wide_outputs(tmp_path_factory):
    """The wide sweep's output digests, keyed by worker count, then as in GOLDEN_WIDE."""
    root = tmp_path_factory.mktemp("golden-wide")
    scn = root / "scn.yaml"
    scn.write_text(WIDE_SCENARIO)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calibrate", "--scenario", str(scn), "--out", str(root)]) == 0
        out = {}
        for workers in (1, 2):
            sim = root / f"sim-w{workers}"
            assert main(["simulate", "--scenario", str(scn), "--out", str(sim),
                         "--workers", str(workers)]) == 0
            assert main(["report", "--records", str(sim / "records.csv"), "--out", str(sim),
                         "--bins", WIDE_BINS_S]) == 0
            digests = {name: _sha((sim / name).read_bytes())
                       for name in ("plan.csv", "records.csv", "truth.csv", "occupancy.csv")}
            plots = hashlib.sha256()
            for path in sorted((sim / "plots").iterdir()):
                plots.update(path.name.encode() + b"\0" + path.read_bytes())
            digests["plots"] = plots.hexdigest()
            out[workers] = digests
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_wide_sweep_golden(wide_outputs, workers):
    assert wide_outputs[workers] == GOLDEN_WIDE
