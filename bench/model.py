"""Frozen reference model of occuscan's outputs, and the checks that use it.

The benchmark checks every output of the program under test against this
model, never against the program's own code, so a change to the program
cannot move its reference. Each formula repeats, frame by frame, the numpy
calls of the occuscan release the benchmark was defined on (0.1.0), so on
that release the rendered CSV bytes match exactly. Later releases may change
the last digits and still pass: a statistic may differ by 1e-9 relative plus
one unit of the CSV's ninth significant digit, and a ``present`` decision may
differ only where the statistic lies that close to its threshold.

The model covers what the benchmark's inputs use: the builtin plan, tone
signals, complex Gaussian noise and the example scenario's block layout.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
DETECTORS = ("ed", "acf1", "cdist")

RECORD_HEADER = "time_unix,band,channel_index,center_freq_mhz,detector,statistic,threshold,present"
TRUTH_HEADER = "time_unix,band,channel_index,center_freq_mhz,truth_present"
PLAN_HEADER = "band,channel_index,center_freq_mhz"
OCCUPANCY_HEADER = ("band,channel_index,center_freq_mhz,detector,bin_start_unix,bin_len_s,"
                    "n_detected,n_total,occupancy")
EVAL_HEADER = "detector,scenario,snr_db,threshold,trials,pd,pfa"

# builtin plan: (band, start MHz, cyclic spacing MHz, channel count)
BUILTIN_BANDS = (
    ("GSM-850-UL", 824.0, (3.0, 2.0), 11),
    ("GSM-850-DL", 869.0, (3.0, 2.0), 11),
    ("GSM-1900-UL", 1850.0, (3.0, 2.0), 25),
    ("GSM-1900-DL", 1930.0, (3.0, 2.0), 25),
    ("2.4GHz", 2402.0, (5.0,), 20),
    ("5.8GHz", 5725.0, (5.0,), 31),
)

# seed-derivation purpose tags and the noise stream tag
SEED_CHANNEL_NOISE, SEED_CHANNEL_SIGNAL = 10, 11
SEED_CAL_NOISE, SEED_CAL_SIGNAL = 20, 21
SEED_EVAL_NOISE, SEED_EVAL_SIGNAL = 30, 31
NOISE_STREAM = 1


def fmt(x: float) -> str:
    return f"{x:.9g}"


def fmt_time(t: float) -> str:
    return f"{t:.6f}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(got: float, want: float) -> bool:
    """True when got matches want within REL_TOL plus the CSV's 9-digit rounding."""
    if want == 0.0 or not math.isfinite(want):
        return got == want
    quantum = 10.0 ** (math.floor(math.log10(abs(want))) - 8)
    return abs(got - want) <= REL_TOL * abs(want) + quantum


def ambiguous(stat: float, threshold: float) -> bool:
    """A decision this close to its threshold may flip under REL_TOL changes."""
    return abs(stat - threshold) <= REL_TOL * max(abs(stat), abs(threshold))


def decides(det: str, stat, threshold):
    return stat < threshold if det == "cdist" else stat > threshold


# --- synthesis ---------------------------------------------------------------

def derive_seed(master_seed: int, *tags: int) -> int:
    ss = np.random.SeedSequence((int(master_seed),) + tuple(int(t) for t in tags))
    return int(ss.generate_state(1, np.uint64)[0])


def noise(n: int, seed: int, frame_index: int, power: float) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, NOISE_STREAM, int(frame_index))))
    z = rng.standard_normal(2 * n)
    return math.sqrt(power / 2.0) * (z[0::2] + 1j * z[1::2])


def tone(n: int, sig: dict) -> np.ndarray:
    if sig.get("kind") != "tone":
        raise ValueError(f"model covers tone signals only, got {sig.get('kind')!r}")
    m = np.arange(n)
    freq, phase = float(sig.get("normalized_freq", 0.0)), float(sig.get("phase", 0.0))
    return float(sig.get("amplitude", 1.0)) * np.exp(1j * (2 * np.pi * freq * m + phase))


def snr_scale(signal_power: float, noise_power: float, snr_db: float) -> float:
    return math.sqrt(10 ** (snr_db / 10.0) * noise_power / signal_power)


def acf_magnitudes(x: np.ndarray, e0: float, lags: int) -> np.ndarray:
    """|ACF(l)| / ACF(0) for l = 0..lags-1 (linear ACF, entry 0 exactly 1)."""
    values = np.empty(lags, dtype=np.float64)
    values[0] = 1.0
    for lag in range(1, lags):
        values[lag] = min(abs(complex(np.dot(x[lag:], np.conj(x[:-lag])))) / e0, 1.0)
    return values


def statistics(x: np.ndarray, reference: np.ndarray, lags: int):
    """(ed, acf1, cdist) of one frame; acf1/cdist are None for a zero-energy frame."""
    e0 = float(np.vdot(x, x).real)
    ed = e0 / x.size
    if ed == 0.0:
        return ed, None, None
    values = acf_magnitudes(x, e0, lags)
    diff = reference - values
    return ed, float(values[1]), float(np.sqrt(np.mean(diff * diff)))


class Detector:
    """Thresholds and reference vector of one scenario."""

    def __init__(self, scenario: dict, reference: np.ndarray):
        d = scenario["detector"]
        self.thresholds = {"ed": float(d["lambda_ed"]), "acf1": float(d["lambda_acf"]),
                           "cdist": float(d["gamma"])}
        self.lags = int(d.get("acf_lags", 8))
        self.reference = reference

    def records(self, x: np.ndarray):
        """[(detector, statistic, threshold, present)] for ed, acf1, cdist."""
        ed, acf1, cdist = statistics(x, self.reference, self.lags)
        th = self.thresholds
        if acf1 is None:
            return [("ed", ed, th["ed"], ed > th["ed"]),
                    ("acf1", 0.0, th["acf1"], False), ("cdist", 1.0, th["cdist"], False)]
        return [(det, s, th[det], bool(decides(det, s, th[det])))
                for det, s in zip(DETECTORS, (ed, acf1, cdist))]


# --- commands ----------------------------------------------------------------

def plan():
    """[(band, index, center_freq_mhz)] of the builtin plan, in plan order."""
    rows = []
    for band, start, spacing, count in BUILTIN_BANDS:
        freqs = [start]
        while len(freqs) < count:
            freqs.append(freqs[-1] + spacing[(len(freqs) - 1) % len(spacing)])
        rows.extend((band, i, f) for i, f in enumerate(freqs))
    return rows


def _signal_noise(scenario: dict, block: dict, sig_seed: int, noise_seed: int):
    defaults = scenario.get("defaults", {})
    sig = dict(block.get("signal", defaults.get("signal")))
    sig.setdefault("seed", sig_seed)
    nse = dict(block.get("noise", defaults.get("noise", {})))
    nse.setdefault("seed", noise_seed)
    nse["total_power"] = float(nse.get("total_power", 1.0))
    return sig, nse


def calibrate(scenario: dict):
    """(reference ACF vector, lambda_ed) as `occuscan calibrate` computes them."""
    cal = scenario.get("calibration", {})
    seed = scenario["master_seed"]
    sig, nse = _signal_noise(scenario, cal, derive_seed(seed, SEED_CAL_SIGNAL),
                             derive_seed(seed, SEED_CAL_NOISE))
    n = int(scenario["frame_len"])
    lags = int(scenario["detector"].get("acf_lags", 8))
    n_ref = int(cal.get("reference_frames", 100))
    alpha = snr_scale(float(sig.get("amplitude", 1.0)) ** 2, nse["total_power"],
                      float(cal.get("snr_db", 20.0)))
    s = tone(n, sig)
    vectors = []
    for i in range(n_ref):
        x = alpha * s + noise(n, nse["seed"], i, nse["total_power"])
        vectors.append(acf_magnitudes(x, float(np.vdot(x, x).real), lags))
    mean = np.stack(vectors).mean(axis=0)
    mean[0] = 1.0
    np.clip(mean, 0.0, 1.0, out=mean)
    energies = []
    for i in range(int(cal.get("threshold_frames", 10000))):
        x = noise(n, nse["seed"], n_ref + i, nse["total_power"])
        energies.append(float(np.vdot(x, x).real) / n)
    lambda_ed = float(np.quantile(np.array(energies), 1.0 - float(cal.get("target_pfa", 0.05))))
    return mean, lambda_ed


def sweep(scenario: dict, reference: np.ndarray):
    """(record rows, truth rows) of `occuscan simulate`, in canonical order.

    A record row is (time, band, index, freq, detector, statistic, threshold,
    present); a truth row is (time, band, index, freq, present).
    """
    det = Detector(scenario, reference)
    seed = scenario["master_seed"]
    n = int(scenario["frame_len"])
    interval = float(scenario["frame_interval_s"])
    start = float(scenario.get("start_time_unix", 0.0))
    n_frames = int(math.floor(float(scenario["total_s"]) / interval + 1e-9))
    band_pos = {}
    records, truths = [], []
    for band, idx, freq in plan():
        pos = band_pos.setdefault(band, len(band_pos))
        merged = dict(scenario.get("defaults", {}))
        merged.update(scenario.get("channels", {}).get(f"{band}:{idx}", {}))
        sig, nse = _signal_noise(scenario, merged,
                                 derive_seed(seed, SEED_CHANNEL_SIGNAL, pos, idx),
                                 derive_seed(seed, SEED_CHANNEL_NOISE, pos, idx))
        sched = merged["schedule"]
        alpha = snr_scale(float(sig.get("amplitude", 1.0)) ** 2, nse["total_power"],
                          float(merged["snr_db"]))
        s = tone(n, sig)
        for k in range(n_frames):
            t = start + k * interval
            phase = (t - start) % float(sched["period_s"])
            on = any(a <= phase < b for a, b in sched.get("on_intervals", []))
            x = noise(n, nse["seed"], k, nse["total_power"])
            if on and alpha != 0.0:
                x = alpha * s + x
            truths.append(((t, pos, idx), (t, band, idx, freq, on)))
            for d, rec in enumerate(det.records(x)):
                records.append(((t, pos, idx, d), (t, band, idx, freq) + rec))
    records.sort(key=lambda r: r[0])
    truths.sort(key=lambda r: r[0])
    return [r for _, r in records], [r for _, r in truths]


def analyze(scenario: dict, reference: np.ndarray, payload: Path, meta: dict, center_mhz: float):
    """Record rows of `occuscan analyze` over an .iq payload, in capture order."""
    det = Detector(scenario, reference)
    n = int(scenario["frame_len"])
    flat = np.fromfile(payload, dtype="<f4")
    samples = flat[0::2].astype(np.float64) + 1j * flat[1::2].astype(np.float64)
    rows = []
    for k in range(samples.size // n):
        t = meta["start_time_unix"] + k * n / meta["sample_rate_hz"]
        for rec in det.records(samples[k * n:(k + 1) * n]):
            rows.append((t, "recording", 0, center_mhz) + rec)
    return rows


def eval_points(scenario: dict, reference: np.ndarray):
    """Rows of `occuscan eval`, each with its decision counts.

    A row is (detector, label, snr_db, threshold, trials, (pd count, pd
    ambiguous), (pfa count, pfa ambiguous)); the ambiguous counts are trials
    whose statistic lies within REL_TOL of the threshold.
    """
    det = Detector(scenario, reference)
    ev = scenario["eval"]
    seed = scenario["master_seed"]
    sig, nse = _signal_noise(scenario, ev, derive_seed(seed, SEED_EVAL_SIGNAL),
                             derive_seed(seed, SEED_EVAL_NOISE))
    n = int(ev.get("frame_len") or scenario["frame_len"])
    trials = int(ev.get("trials", 10000))
    points = [float(p) for p in ev.get("snr_db_points", [0.0, 5.0, 10.0, 20.0])]
    roc_snr = float(ev.get("roc_snr_db", 5.0))
    roc = {d: [float(t) for t in ev.get("roc_thresholds", {}).get(d, [])] for d in DETECTORS}
    snrs = sorted(set(points) | {roc_snr})
    s = tone(n, sig)
    alphas = {snr: snr_scale(float(sig.get("amplitude", 1.0)) ** 2, nse["total_power"], snr)
              for snr in snrs}
    h0 = np.empty((trials, 3))
    h1 = {snr: np.empty((trials, 3)) for snr in snrs}
    for i in range(trials):
        x = noise(n, nse["seed"], i, nse["total_power"])
        h0[i] = statistics(x, det.reference, det.lags)
        for snr in snrs:
            h1[snr][i] = statistics(alphas[snr] * s + x, det.reference, det.lags)

    def counts(stats, d, thr):
        col = stats[:, DETECTORS.index(d)]
        amb = np.abs(col - thr) <= REL_TOL * np.maximum(np.abs(col), abs(thr))
        return int(np.count_nonzero(decides(d, col, thr))), int(np.count_nonzero(amb))

    rows = []
    for d in DETECTORS:
        thr = det.thresholds[d]
        for snr in points:
            rows.append((d, "point", snr, thr, trials, counts(h1[snr], d, thr), counts(h0, d, thr)))
    for d in DETECTORS:
        if len(roc[d]) >= 2:
            for thr in roc[d]:
                rows.append((d, "roc", roc_snr, thr, trials,
                             counts(h1[roc_snr], d, thr), counts(h0, d, thr)))
    return rows


def occupancy(record_rows, bin_len_s: float):
    """Occupancy cells (band, index, freq, detector, bin_start, n_det, n_tot), report order."""
    cells = {}
    for t, band, idx, freq, det, _stat, _thr, present in record_rows:
        pair = cells.setdefault((band, idx, freq, det, math.floor(t / bin_len_s)), [0, 0])
        pair[0] += 1 if present else 0
        pair[1] += 1
    out = [(band, idx, freq, det, b * bin_len_s, nd, nt)
           for (band, idx, freq, det, b), (nd, nt) in cells.items()]
    out.sort(key=lambda c: (c[0], c[1], DETECTORS.index(c[3]), c[4]))
    return out


# --- rendering ---------------------------------------------------------------

def _lines(header: str, rows) -> bytes:
    return ("\n".join([header] + [",".join(r) for r in rows]) + "\n").encode()


def render_records(rows) -> bytes:
    return _lines(RECORD_HEADER, ((fmt_time(t), b, str(i), fmt(f), d, fmt(s), fmt(th), str(int(p)))
                                  for t, b, i, f, d, s, th, p in rows))


def render_truth(rows) -> bytes:
    return _lines(TRUTH_HEADER, ((fmt_time(t), b, str(i), fmt(f), str(int(p)))
                                 for t, b, i, f, p in rows))


def render_plan() -> bytes:
    return _lines(PLAN_HEADER, ((b, str(i), fmt(f)) for b, i, f in plan()))


def render_occupancy(cells, bin_len_s: float) -> bytes:
    return _lines(OCCUPANCY_HEADER, (
        (b, str(i), fmt(f), d, fmt_time(bs), fmt(bin_len_s), str(nd), str(nt), fmt(nd / nt))
        for b, i, f, d, bs, nd, nt in cells))


def render_eval(rows) -> bytes:
    return _lines(EVAL_HEADER, ((d, lab, fmt(snr), fmt(thr), str(t), fmt(h1[0] / t), fmt(h0[0] / t))
                                for d, lab, snr, thr, t, h1, h0 in rows))


def plot_files(cells):
    """{file name: [(bin_start, {detector: occupancy})]} of `occuscan report`."""
    by_channel = {}
    for band, idx, _freq, det, bs, nd, nt in cells:
        name = f"{re.sub(r'[^A-Za-z0-9.+-]+', '-', band)}_ch{idx:03d}.dat"
        by_channel.setdefault(name, {}).setdefault(bs, {})[det] = nd / nt
    return {name: sorted(bins.items()) for name, bins in by_channel.items()}


# --- checks ------------------------------------------------------------------

class Check:
    """Problems found in one set of outputs, and which CSVs match byte for byte."""

    def __init__(self):
        self.problems: list[str] = []
        self.sha_match: dict[str, bool] = {}

    def fail(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    @property
    def ok(self) -> bool:
        return not self.problems

    def _rows(self, path: Path, header: str, count: int):
        """The data rows of a CSV, or None after failing on its header or row count."""
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            self.fail(f"{path.name}: {exc}")
            return None
        if not rows or ",".join(rows[0]) != header:
            self.fail(f"{path.name}: bad header")
            return None
        if len(rows) - 1 != count:
            self.fail(f"{path.name}: {len(rows) - 1} rows, expected {count}")
            return None
        return rows[1:]

    def _sha(self, path: Path, expected: bytes) -> None:
        try:
            self.sha_match[path.name] = sha256(path.read_bytes()) == sha256(expected)
        except OSError:
            self.sha_match[path.name] = False

    def _float(self, where: str, text: str) -> float | None:
        try:
            return float(text)
        except ValueError:
            self.fail(f"{where}: not a number: {text!r}")
            return None

    def _number(self, where: str, text: str, want: float) -> None:
        got = self._float(where, text)
        if got is not None and not close(got, want):
            self.fail(f"{where}: {got!r} differs from {want!r}")

    def records(self, path: Path, expected) -> list | None:
        """Check a record CSV; returns its rows parsed as model rows when it passes."""
        self._sha(path, render_records(expected))
        rows = self._rows(path, RECORD_HEADER, len(expected))
        if rows is None:
            return None
        for line, (row, (t, band, idx, freq, det, stat, thr, present)) in enumerate(
                zip(rows, expected), start=2):
            where = f"{path.name}:{line}"
            if len(row) != 8 or row[0] != fmt_time(t) or row[1:3] != [band, str(idx)] \
                    or row[4] != det:
                self.fail(f"{where}: key {row[:5]} differs from {(fmt_time(t), band, idx, det)}")
                continue
            self._number(where, row[3], freq)
            self._number(where, row[5], stat)
            self._number(where, row[6], thr)
            if row[7] not in ("0", "1"):
                self.fail(f"{where}: present is {row[7]!r}")
            elif (row[7] == "1") != present and not ambiguous(stat, thr):
                self.fail(f"{where}: present={row[7]} differs from the model")
        if not self.ok:
            return None
        return [(float(t), band, int(idx), float(freq), det, float(stat), float(thr), p == "1")
                for t, band, idx, freq, det, stat, thr, p in rows]

    def truth(self, path: Path, expected) -> None:
        self._sha(path, render_truth(expected))
        rows = self._rows(path, TRUTH_HEADER, len(expected))
        if rows is None:
            return
        for line, (row, (t, band, idx, freq, present)) in enumerate(zip(rows, expected), start=2):
            if len(row) != 5 or row[0] != fmt_time(t) or row[1:3] != [band, str(idx)] \
                    or row[4] != str(int(present)):
                self.fail(f"{path.name}:{line}: {row} differs from the model")
            else:
                self._number(f"{path.name}:{line}", row[3], freq)

    def plan(self, path: Path) -> None:
        expected = plan()
        self._sha(path, render_plan())
        rows = self._rows(path, PLAN_HEADER, len(expected))
        if rows is None:
            return
        for line, (row, (band, idx, freq)) in enumerate(zip(rows, expected), start=2):
            if len(row) != 3 or row[:2] != [band, str(idx)]:
                self.fail(f"{path.name}:{line}: {row} differs from the model")
            else:
                self._number(f"{path.name}:{line}", row[2], freq)

    def report(self, out: Path, record_rows, bin_len_s: float) -> None:
        """Check occupancy.csv and the plot files against the checked records."""
        cells = occupancy(record_rows, bin_len_s)
        path = out / "occupancy.csv"
        self._sha(path, render_occupancy(cells, bin_len_s))
        rows = self._rows(path, OCCUPANCY_HEADER, len(cells))
        if rows is None:
            return
        for line, (row, (band, idx, freq, det, bs, nd, nt)) in enumerate(zip(rows, cells), start=2):
            where = f"{path.name}:{line}"
            if len(row) != 9 or row[:2] != [band, str(idx)] or row[3:5] != [det, fmt_time(bs)] \
                    or row[6:8] != [str(nd), str(nt)]:
                self.fail(f"{where}: {row} differs from the model")
                continue
            self._number(where, row[2], freq)
            self._number(where, row[5], bin_len_s)
            self._number(where, row[8], nd / nt)
        expected = plot_files(cells)
        plots = out / "plots"
        found = sorted(p.name for p in plots.glob("*.dat")) if plots.is_dir() else []
        if found != sorted(expected):
            self.fail(f"plots: {len(found)} files, expected {len(expected)}")
            return
        for name, bins in expected.items():
            lines = (plots / name).read_text().splitlines()
            if lines[:1] != ["bin_start ed acf1 cdist"] or len(lines) != len(bins) + 1:
                self.fail(f"plots/{name}: bad layout")
                continue
            for text, (bs, occ) in zip(lines[1:], bins):
                fields = text.split()
                if len(fields) != 4 or fields[0] != fmt_time(bs):
                    self.fail(f"plots/{name}: {text!r} differs from the model")
                    continue
                for det, field in zip(DETECTORS, fields[1:]):
                    if det not in occ:
                        if field != "nan":
                            self.fail(f"plots/{name}: {det} should be nan")
                    else:
                        self._number(f"plots/{name}", field, occ[det])

    def eval(self, path: Path, expected, noise_power: float, frame_len: int, z: float) -> None:
        """Check eval.csv against the model and the closed-form ed false-alarm rate."""
        from scipy.special import gammaincc

        self._sha(path, render_eval(expected))
        rows = self._rows(path, EVAL_HEADER, len(expected))
        if rows is None:
            return
        for line, (row, (det, label, snr, thr, trials, h1, h0)) in enumerate(
                zip(rows, expected), start=2):
            where = f"{path.name}:{line}"
            if len(row) != 7 or row[:2] != [det, label] or row[4] != str(trials):
                self.fail(f"{where}: key {row[:5]} differs from the model")
                continue
            self._number(where, row[2], snr)
            self._number(where, row[3], thr)
            got = {}
            for name, text, (count, amb) in (("pd", row[5], h1), ("pfa", row[6], h0)):
                value = self._float(where, text)
                if value is None:
                    continue
                got[name] = round(value * trials)
                if abs(got[name] - count) > amb:
                    self.fail(f"{where}: {name}={text} differs from {count}/{trials}")
            if det == "ed" and "pfa" in got:
                # Urkowitz: N*T_ed/sigma^2 ~ Gamma(N, 1) under complex Gaussian noise
                p0 = float(gammaincc(frame_len, frame_len * thr / noise_power))
                lo, hi = wilson(got["pfa"], trials, z)
                if not lo <= p0 <= hi:
                    self.fail(f"{where}: ed pfa={row[6]} puts closed-form {p0:.6g} "
                              f"outside its Wilson interval [{lo:.6g}, {hi:.6g}]")

    def calibration(self, reference_path: Path, stdout: str, reference, lambda_ed) -> None:
        try:
            lines = reference_path.read_text().split()
        except OSError as exc:
            self.fail(f"reference: {exc}")
            return
        if lines[:1] != [f"lags={len(reference)}"] or len(lines) != len(reference) + 1:
            self.fail("reference: bad layout")
            return
        for text, want in zip(lines[1:], reference):
            self._number("reference", text, float(want))
        found = re.search(r"^lambda_ed=(\S+)$", stdout, re.M)
        if found is None:
            self.fail("calibrate: no lambda_ed line")
        else:
            self._number("calibrate lambda_ed", found.group(1), lambda_ed)


def wilson(k: int, n: int, z: float):
    """Wilson score interval of a binomial proportion k/n at z standard errors."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return center - half, center + half
