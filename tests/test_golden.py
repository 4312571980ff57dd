"""Golden sha256 digests of every command's outputs on the acceptance scenario.

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
    out["lambda_ed"] = next(
        ln for ln in buf.getvalue().splitlines() if ln.startswith("lambda_ed=")
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
    assert _sha(outputs["lambda_ed"]) == GOLDEN["lambda_ed"]


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
