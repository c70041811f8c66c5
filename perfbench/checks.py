"""Output checks of the benchmark.

Each check takes outputs the program produced (and, where needed, an
expected value the benchmark computed on its own) and raises CheckError
when they disagree.  None of them calls into the program, so
test_checks.py can feed each one a perturbed output and see it fail.
"""

import numpy as np


class CheckError(AssertionError):
    pass


def expected_windows(series_list, min_len, batch):
    """(windows per epoch, skipped series) implied by the series clocks.

    Series sharing an observed clock train together in chunks of `batch`;
    every chunk of a clock with n observations has one window per
    interval, n - 1; a series with fewer than `min_len` observations is
    skipped.  On the toy set this is 4 chunks x 99 = 396; under Bernoulli
    drop every clock is distinct and it is the sum of n_obs - 1.
    """
    clocks = {}
    skipped = 0
    for s in series_list:
        t = s.times[s.mask]
        if t.size < min_len:
            skipped += 1
            continue
        entry = clocks.setdefault(t.tobytes(), [t.size, 0])
        entry[1] += 1
    windows = sum((n - 1) * -(-members // batch)
                  for n, members in clocks.values())
    return windows, skipped


def series_steps(series_list, min_len):
    """Series advanced by one interval in one training epoch."""
    sizes = [int(s.mask.sum()) for s in series_list]
    return sum(n - 1 for n in sizes if n >= min_len)


def window_counts(windows, skipped, want_windows, want_skipped):
    if windows != want_windows or skipped != want_skipped:
        raise CheckError(
            f"epoch ran {windows} windows and skipped {skipped} series; the "
            f"clocks give {want_windows} windows and {want_skipped} skipped")


def objectives(values, windows):
    """One window objective per window, each finite and >= 0."""
    v = np.asarray(values, dtype=np.float64)
    if v.size != windows:
        raise CheckError(f"{v.size} window objectives for {windows} windows")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        bad = int(np.flatnonzero(~np.isfinite(v) | (v < 0))[0])
        raise CheckError(f"window objective {bad} is {v[bad]!r}")


def directional(fd, reverse, value, rtol=1e-6, floor=1e-8):
    """Central difference along one direction against reverse mode.

    The allowed error is rtol relative to the derivative plus a floor of
    `floor` x the objective's size, which covers the difference's
    rounding when the directional derivative is close to zero.
    """
    err = abs(fd - reverse)
    allowed = rtol * max(abs(fd), abs(reverse)) + floor * max(abs(value), 1.0)
    if not err <= allowed:
        raise CheckError(
            f"directional derivative: central difference {fd!r}, reverse "
            f"mode {reverse!r}, error {err:.2e} > {allowed:.2e}")


def adamax_first_step(before, after, grads, lr, eps, rtol=1e-12):
    """A fresh Adamax step moves p by -lr * g / (|g| + eps).

    before, after, grads: {name: array}.  At step 1 the bias-corrected
    first moment is g and the infinity norm is |g|, so beta1 and beta2
    drop out.
    """
    for name, g in grads.items():
        want = before[name] - lr * g / (np.abs(g) + eps)
        scale = np.abs(before[name]) + np.abs(want)
        if not np.all(np.abs(after[name] - want) <= rtol * scale):
            raise CheckError(f"Adamax step on {name!r} differs from "
                             f"-lr*g/(|g|+eps)")


def identical(what, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.array_equal(got, want):
        raise CheckError(f"{what}: outputs are not identical")


def close(what, got, want, rtol):
    """max |got - want| <= rtol * max |want|, elementwise over the arrays."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} vs {want.shape}")
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    if not err <= rtol * scale:
        raise CheckError(f"{what}: max abs error {err:.3e} exceeds "
                         f"{rtol:.0e} x {scale:.3e}")


def classification(preds, probs, n_series, n_classes):
    preds, probs = np.asarray(preds), np.asarray(probs)
    if preds.shape != (n_series,) or probs.shape != (n_series,):
        raise CheckError(f"classify returned {preds.shape}/{probs.shape} "
                         f"for {n_series} series")
    if np.any(preds < 0) or np.any(preds >= n_classes):
        raise CheckError("predicted label out of range")
    if not np.all((probs >= 1.0 / n_classes) & (probs <= 1.0)):
        raise CheckError("predicted-class probability outside [1/C, 1]")


def interpolation(result, want_points):
    if result["n_points"] != want_points:
        raise CheckError(f"interpolation scored {result['n_points']} hidden "
                         f"points, the masks hide {want_points}")
    if not (np.isfinite(result["rmse"]) and result["rmse"] > 0):
        raise CheckError(f"interpolation rmse is {result['rmse']!r}")


def gradcheck_results(results, tol, suites):
    """Every finite-difference probe within tol; every suite present."""
    present = {name.split(".")[0] for name in results}
    missing = set(suites) - present
    if missing:
        raise CheckError(f"grad-check suites missing: {sorted(missing)}")
    worst = max(results, key=results.get)
    if not results[worst] < tol:
        raise CheckError(f"grad-check {worst} rel err {results[worst]:.2e}")


def corruption_caught(raised):
    if not raised:
        raise CheckError("a 1% corrupted op gradient passed the grad-check")


def csv_roundtrip(loaded, series_list):
    """Loaded times, mask and observed values equal the written series."""
    if len(loaded) != len(series_list):
        raise CheckError(f"loaded {len(loaded)} series, wrote "
                         f"{len(series_list)}")
    for i, (got, want) in enumerate(zip(loaded, series_list)):
        if not np.array_equal(got.times, want.times):
            raise CheckError(f"series {i}: times differ after load")
        if not np.array_equal(got.mask, want.mask):
            raise CheckError(f"series {i}: mask differs after load")
        if not np.array_equal(got.values[got.mask], want.values[want.mask]):
            raise CheckError(f"series {i}: observed values differ after load")
