"""Band layouts and channel plan generation.

A band is generated from its start frequency by applying its spacing list
cyclically ("3, 2" means alternating 3 MHz and 2 MHz steps, starting with 3)
until the expected channel count is reached; the builder then checks that the
final frequency lands exactly on the band's stop frequency. The builtin plan
covers the GSM-850/GSM-1900 uplink+downlink pairs and the 2.4/5.8 GHz ISM
bands, 123 channels total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PlanError

_STOP_TOL_MHZ = 1e-9


@dataclass(frozen=True)
class BandSpec:
    """One band row: frequency range, cyclic spacing steps, channel count."""

    name: str
    start_mhz: float
    stop_mhz: float
    spacing_mhz: tuple
    expected_channels: int

    def __post_init__(self):
        object.__setattr__(self, "spacing_mhz", tuple(float(s) for s in self.spacing_mhz))
        if not self.name:
            raise ValueError("band name must be non-empty")
        if not self.spacing_mhz or not all(0 < s < math.inf for s in self.spacing_mhz):
            raise ValueError("spacing_mhz must be a non-empty list of finite positive steps")
        if self.expected_channels < 1:
            raise ValueError("expected_channels must be >= 1")
        if not 0 < self.start_mhz < math.inf:
            raise ValueError("start_mhz must be a finite number > 0")
        if not self.start_mhz <= self.stop_mhz < math.inf:
            raise ValueError("stop_mhz must be finite and >= start_mhz")


@dataclass(frozen=True)
class Channel:
    """One tunable center frequency within a named band."""

    band: str
    index_in_band: int
    center_freq_mhz: float

    def __post_init__(self):
        if self.index_in_band < 0:
            raise ValueError("index_in_band must be >= 0")
        if not 0 < self.center_freq_mhz < math.inf:
            raise ValueError("center_freq_mhz must be a finite number > 0")


def build_channel_plan(specs) -> list[Channel]:
    """Expand band specs into channels, validating count and stop frequency.

    Raises PlanError naming the offending band when two bands share a name,
    or when the generated layout does not hit expected_channels or does not
    end at stop_mhz.
    """
    plan = []
    names = set()
    for spec in specs:
        if spec.name in names:
            raise PlanError(f"band {spec.name!r}: the plan already has a band of this name")
        names.add(spec.name)
        freqs = [spec.start_mhz]
        step_i = 0
        while len(freqs) < spec.expected_channels:
            freqs.append(freqs[-1] + spec.spacing_mhz[step_i % len(spec.spacing_mhz)])
            step_i += 1
        if abs(freqs[-1] - spec.stop_mhz) > _STOP_TOL_MHZ:
            raise PlanError(
                f"band {spec.name!r}: {spec.expected_channels} channels end at "
                f"{freqs[-1]} MHz, not the declared stop {spec.stop_mhz} MHz"
            )
        for i, f in enumerate(freqs):
            if i and f <= freqs[i - 1]:
                raise PlanError(f"band {spec.name!r}: frequencies not strictly increasing")
            plan.append(Channel(spec.name, i, f))
    return plan


# The six scanned bands: GSM pairs use the alternating 3/2 MHz step layout
# (the only reading under which span, count, and stop frequency all agree),
# ISM bands use a flat 5 MHz grid.
BUILTIN_BANDS = (
    BandSpec("GSM-850-UL", 824.0, 849.0, (3.0, 2.0), 11),
    BandSpec("GSM-850-DL", 869.0, 894.0, (3.0, 2.0), 11),
    BandSpec("GSM-1900-UL", 1850.0, 1910.0, (3.0, 2.0), 25),
    BandSpec("GSM-1900-DL", 1930.0, 1990.0, (3.0, 2.0), 25),
    BandSpec("2.4GHz", 2402.0, 2497.0, (5.0,), 20),
    BandSpec("5.8GHz", 5725.0, 5875.0, (5.0,), 31),
)


def builtin_plan() -> list[Channel]:
    """The full builtin channel plan: all six bands, 123 channels."""
    return build_channel_plan(BUILTIN_BANDS)
