"""Task objectives for one planning window.

Classification supervises only the window's terminal hidden state with
cross entropy; regression sums squared-error terms over the horizon
states that have targets.  The action regularizer applies the
controller-side readout to every emitted action against the same target,
so it trains psi alone: phi never appears in its graph, making
d(regularizer)/d(phi) exactly zero by construction.

total = task cost + lambda * regularizer.  All costs are scalar nodes,
averaged over the batch and summed over horizon terms.
"""

import numpy as np

from . import autodiff as ad


def _mse(pred, target, sample_weight=None):
    """Mean over channels, weighted mean over the batch; scalar node."""
    diff = ad.sub(pred, ad.constant(target))
    per = ad.mean_(ad.square(diff), axis=1)  # (B,)
    if sample_weight is None:
        return ad.mean_(per)
    w = np.asarray(sample_weight, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("no available targets in this term")
    return ad.sum_(ad.mul_const(per, w / total))


def classification_cost(model, store, traj, labels):
    """Cross entropy of the terminal state's readout against labels (B,)."""
    logits = model.readout(store, traj.states[-1])
    return ad.mean_(ad.softmax_cross_entropy(logits, labels))


def regression_cost(model, store, states, targets, weights=None):
    """Sum over horizon of MSE(readout(h_k), x_k), skipping empty targets.

    states: list of (B, H) nodes; targets: matching list of (B, D) arrays
    or None to skip a horizon; weights: optional per-horizon (B,) masks of
    available samples.  Raises if every horizon is skipped.
    """
    if len(states) != len(targets):
        raise ValueError(
            f"{len(states)} states vs {len(targets)} targets"
        )
    total = None
    for k, (h, x) in enumerate(zip(states, targets)):
        if x is None:
            continue
        w = None if weights is None else weights[k]
        if w is not None and np.sum(w) <= 0:
            continue
        term = _mse(model.readout(store, h), x, w)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ValueError("regression cost has no available targets")
    return total


def action_regularizer(controller, store, seq, target, task):
    """Sum over all emitted actions of the readout loss against `target`.

    Classification: target is the label array (B,), each action pays a
    cross-entropy term.  Regression: target is a list of (B, D) arrays
    aligned with the actions (None skips a term, falling back to zero
    contribution).
    """
    total = None
    for k, u in enumerate(seq.actions):
        out = controller.readout(store, u)
        if task == "classification":
            term = ad.mean_(ad.softmax_cross_entropy(out, target))
        else:
            x = target[k]
            if x is None:
                continue
            term = _mse(out, x)
        total = term if total is None else ad.add(total, term)
    if total is None:
        total = ad.constant(0.0)
    return total


def total_objective(task_cost, regularizer, lam):
    """task_cost + lam * regularizer, kept as separate graphs until here."""
    if lam == 0.0:
        return task_cost
    return ad.add(task_cost, ad.mul_const(regularizer, float(lam)))
