"""Synthetic datasets, observation dropping, normalization, CSV I/O.

The two-class toy set: class 0 is 7 + sin t + cos t, class 1 is
2 sin t + 2 cos t, both on linspace(0, 6, 100) with 0.2-scaled unit
noise, 50 series each, shuffled and z-scored.  The companion test set
grows 20 deviation kinds out of one base class-0 draw: kind i replaces
indices 60..100 by the parabola 0.3*i*(t - h)^2 + k that still passes
through (x_pass, y_pass), each kind repeated 50 times, plus 50 fresh
class-1 series with unit noise; labels are 1000 zeros then 50 ones.

CSV layout: header t,v1,...,vD[,label]; one row per observation; a blank
line separates series; the label column, when present, is constant within
a series.  A row whose value cells are all empty is a hidden point (mask
False, values NaN).  Floats are written with repr so files round-trip
exactly.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TimeSeries:
    """Observations of a D-channel signal at strictly increasing times.

    mask[k] is False where the observation is hidden from models (held
    out as interpolation ground truth); values keeps the true numbers.
    """

    times: np.ndarray
    values: np.ndarray
    label: int = None
    mask: np.ndarray = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.times.ndim != 1 or self.values.shape[0] != self.times.size:
            raise ValueError(
                f"times {self.times.shape} do not match values {self.values.shape}"
            )
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.mask is None:
            self.mask = np.ones(self.times.size, dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.times.shape:
                raise ValueError("mask must match times")

    @property
    def length(self):
        return self.times.size

    @property
    def channels(self):
        return self.values.shape[1]

    def observed(self):
        """(times, values) restricted to unmasked points."""
        return self.times[self.mask], self.values[self.mask]


class Normalizer:
    """Per-channel affine z-score map fit on a training split."""

    def __init__(self, mean, std):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    @classmethod
    def fit(cls, series_list):
        # masked-out points are evaluation targets, keep them out of the fit
        stacked = np.concatenate([s.observed()[1] for s in series_list], axis=0)
        std = stacked.std(axis=0)
        return cls(stacked.mean(axis=0), np.where(std < 1e-12, 1.0, std))

    def apply(self, series):
        return TimeSeries(series.times.copy(), (series.values - self.mean) / self.std,
                          label=series.label, mask=series.mask.copy())

    def invert_values(self, values):
        return values * self.std + self.mean


# ---------------------------------------------------------------------------
# toy classification set

TOY_STEPS = 100
TOY_T_MAX = 6.0


def toy_class0_base(t):
    return 7.0 + np.sin(t) + np.cos(t)


def toy_class1_base(t):
    return 2.0 * np.sin(t) + 2.0 * np.cos(t)


def gen_toy_train(seed=0, return_normalizer=False, normalize=True):
    """50 class-0 and 50 class-1 noisy series, shuffled and z-scored.

    With return_normalizer=True also returns the Normalizer fit on the raw
    split, for normalizing companion data the same way.  normalize=False
    returns the raw series instead (for writing data-unit files).
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, TOY_T_MAX, TOY_STEPS)
    c0 = toy_class0_base(t)[None, :] + 0.2 * rng.normal(size=(50, TOY_STEPS))
    c1 = toy_class1_base(t)[None, :] + 0.2 * rng.normal(size=(50, TOY_STEPS))
    data = np.concatenate([c0, c1], axis=0)
    labels = np.array([0] * 50 + [1] * 50)
    order = rng.permutation(100)
    raw = [TimeSeries(t, data[i], label=int(labels[i])) for i in order]
    norm = Normalizer.fit(raw)
    series = [norm.apply(s) for s in raw] if normalize else raw
    if return_normalizer:
        return series, norm
    return series


def gen_toy_test(seed=0):
    """1050 raw test series: 20 parabolic deviation kinds x 50, then 50 class-1.

    Kind i keeps the shared base draw outside indices 60..100 and replaces
    that span with 0.3*i*(t - h)^2 + k, anchored to pass through the base
    curve's value at index 60.  Returned unnormalized; apply the training
    normalizer before feeding a model.
    """
    rng = np.random.default_rng(seed)
    n, kinds, idx1, idx2 = 50, 20, 60, 100
    t = np.linspace(0.0, TOY_T_MAX, TOY_STEPS)
    class0 = toy_class0_base(t)[None, :] + rng.normal(size=(n, TOY_STEPS))
    class1 = toy_class1_base(t)[None, :] + rng.normal(size=(n, TOY_STEPS))

    x_pass = idx1 / TOY_STEPS * TOY_T_MAX
    y_pass = class0[0, idx1]
    h = (idx1 + idx2) / 2.0 * TOY_T_MAX / TOY_STEPS
    y_ori = class0[0].copy()
    y_ori[idx1:idx2] = 0.0

    class_noise = np.zeros((kinds, TOY_STEPS))
    for i in range(kinds):
        k = y_pass - 0.3 * i * (x_pass - h) ** 2
        y = 0.3 * i * (t[idx1:idx2] - h) ** 2 + k
        noise = np.zeros(TOY_STEPS)
        noise[idx1:idx2] = y
        class_noise[i] = noise + y_ori

    deviated = np.repeat(class_noise, n, axis=0)
    data = np.concatenate([deviated, class1], axis=0)
    labels = [0] * (kinds * n) + [1] * n
    return [TimeSeries(t, row, label=lab) for row, lab in zip(data, labels)]


# ---------------------------------------------------------------------------
# sine regression set

def gen_sine_regression(n_series=10, length=50, seed=0, cycles=2.0,
                        noise=0.02, t_max=None):
    """Amplitude- and phase-randomized sines with small additive noise."""
    if n_series < 1 or length < 2:
        raise ValueError("need n_series >= 1 and length >= 2")
    rng = np.random.default_rng(seed)
    span = 2.0 * np.pi * cycles if t_max is None else t_max
    t = np.linspace(0.0, span, length)
    out = []
    for _ in range(n_series):
        amp = rng.uniform(0.7, 1.3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        v = amp * np.sin(t + phase) + noise * rng.normal(size=length)
        out.append(TimeSeries(t, v))
    return out


def drop_observations(series, rate, seed=0):
    """Hide each interior point with probability `rate`; endpoints stay.

    Values are kept as ground truth; only the mask changes.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("drop rate must be in [0, 1)")
    if series.length < 2:
        raise ValueError("cannot drop observations from a series shorter than 2")
    rng = np.random.default_rng(seed)
    keep = rng.random(series.length) >= rate
    keep[0] = keep[-1] = True
    if keep.sum() < 2:
        raise ValueError("drop rate leaves fewer than two observations")
    return TimeSeries(series.times.copy(), series.values.copy(),
                      label=series.label, mask=series.mask & keep)


# ---------------------------------------------------------------------------
# CSV

class CsvFormatError(ValueError):
    pass


def save_csv(series_list, path):
    if not series_list:
        raise ValueError("nothing to save")
    d = series_list[0].channels
    labeled = series_list[0].label is not None
    header = ["t"] + [f"v{i + 1}" for i in range(d)] + (["label"] if labeled else [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for si, s in enumerate(series_list):
        if s.channels != d or (s.label is not None) != labeled:
            raise ValueError(f"series {si} does not match the first series' layout")
        if si:
            buf.write("\n")
        for k in range(s.length):
            row = [repr(float(s.times[k]))]
            row += [repr(float(v)) if s.mask[k] else "" for v in s.values[k]]
            if labeled:
                row.append(str(int(s.label)))
            writer.writerow(row)
    with open(path, "w") as f:
        f.write(buf.getvalue())


def load_csv(path, normalizer=None):
    """Parse a multi-series CSV; malformed rows report their line number.

    A row with every value cell empty is a hidden point; a row with only
    some empty, or with a non-finite number, is rejected.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise CsvFormatError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    labeled = header and header[-1] == "label"
    vcols = header[1:-1] if labeled else header[1:]
    if header[0] != "t" or any(c != f"v{i + 1}" for i, c in enumerate(vcols)) or not vcols:
        raise CsvFormatError(
            f"{path}:1: header must be t,v1,...,vD[,label], got {lines[0]!r}"
        )
    d = len(vcols)
    width = 1 + d + (1 if labeled else 0)

    out = []
    block_t, block_v, block_seen, block_lab = [], [], [], None

    def flush(lineno):
        nonlocal block_t, block_v, block_seen, block_lab
        if not block_t:
            return
        if np.any(np.diff(block_t) <= 0):
            raise CsvFormatError(
                f"{path}:{lineno}: series times must be strictly increasing"
            )
        out.append(TimeSeries(np.array(block_t), np.array(block_v),
                              label=block_lab, mask=np.array(block_seen)))
        block_t, block_v, block_seen, block_lab = [], [], [], None

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            flush(lineno)
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise CsvFormatError(
                f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
            )
        cells = parts[1 : 1 + d]
        empty = [not c.strip() for c in cells]
        seen = not all(empty)
        if seen and any(empty):
            raise CsvFormatError(
                f"{path}:{lineno}: some value cells are empty; a hidden "
                "point leaves all of them empty"
            )
        try:
            t = float(parts[0])
            vals = [float(c) for c in cells] if seen else [np.nan] * d
            lab = int(parts[-1]) if labeled else None
        except ValueError:
            raise CsvFormatError(f"{path}:{lineno}: malformed value") from None
        if not np.isfinite(t) or (seen and not np.all(np.isfinite(vals))):
            raise CsvFormatError(f"{path}:{lineno}: non-finite value")
        if labeled:
            if block_lab is None:
                block_lab = lab
            elif lab != block_lab:
                raise CsvFormatError(
                    f"{path}:{lineno}: label changes within a series"
                )
        block_t.append(t)
        block_v.append(vals)
        block_seen.append(seen)
    flush(len(lines) + 1)
    if not out:
        raise CsvFormatError(f"{path}: no series found")
    if normalizer is not None:
        out = [normalizer.apply(s) for s in out]
    return out
