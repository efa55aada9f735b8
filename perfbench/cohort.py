"""Seeded synthetic survival cohorts, written in the CSV format binsurv reads.

The generator lives in the benchmark, not in ``binsurv.synth``, so a change
to the library's own generator cannot change the benchmark's inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CENSOR_RATE = 0.4


def draw(n: int, n_features: int, seed: int, *stream: int):
    """Features, observed times and event flags of one cohort.

    ``stream`` names further cohorts of the same seed; without it the cohort
    is the seed's own.

    Standard-normal features, a linear proportional-hazards risk with a
    unit-norm coefficient vector (so every seed has the same signal
    strength), exponential event times and independent exponential censoring
    whose rate is bisected until CENSOR_RATE of the rows are censored.
    """
    rng = np.random.default_rng([seed, *stream, n, n_features])
    x = rng.standard_normal((n, n_features))
    w = rng.standard_normal(n_features)
    w /= np.linalg.norm(w)
    event_times = rng.exponential(1.0, n) / (0.1 * np.exp(x @ w))
    censor_draw = -np.log(rng.random(n))
    lo, hi = 1e-6, 1e3
    for _ in range(100):
        rate = float(np.sqrt(lo * hi))
        if np.mean(event_times > censor_draw / rate) > CENSOR_RATE:
            hi = rate
        else:
            lo = rate
    censor_times = censor_draw / rate
    times = np.minimum(event_times, censor_times)
    events = (event_times <= censor_times).astype(np.int64)
    return x, times, events


def write(path: Path, x, times, events) -> None:
    """Headered CSV with repr floats, so every value round-trips exactly."""
    header = [f"x{i + 1}" for i in range(x.shape[1])] + ["time", "event"]
    lines = [",".join(header)]
    for row, t, e in zip(x.tolist(), times.tolist(), events.tolist()):
        lines.append(",".join(map(repr, row)) + f",{t!r},{e}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
