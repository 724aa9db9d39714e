"""Finite-difference verification of the hand-written backward passes.

An op under test is presented as two closures over a flat dict of leaves
(parameter name -> scalar or array): `forward(leaves)` returning the op
output, and `backward(leaves)` returning the analytic gradient of the
sum-of-outputs loss for every leaf.  Central differences perturb each leaf
entry in turn; an entry whose second-order difference misses the tolerance
is measured again with the fourth-order stencil at the same step, whose
truncation error is eps^2 smaller, and compared with that.  The report
carries the worst relative error, any leaf whose analytic gradient is
missing or non-finite, and any analytic gradient whose key names no leaf.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradReport:
    name: str
    max_rel_err: float = 0.0
    worst_leaf: str = ""
    checked: int = 0
    failures: list = field(default_factory=list)
    tol: float = 1e-4

    @property
    def passed(self):
        return not self.failures and self.max_rel_err <= self.tol

    def summary(self):
        status = "pass" if self.passed else "FAIL"
        line = (f"{status}  {self.name}: max rel err {self.max_rel_err:.3e} "
                f"({self.checked} entries, worst {self.worst_leaf or '-'})")
        for msg in self.failures:
            line += f"\n      {msg}"
        return line


def _loss(forward, leaves):
    return float(np.sum(forward(leaves)))


# step multiples of the loss samples and the derivative they give
_SECOND = ((1.0, -1.0), lambda lo, eps: (lo[0] - lo[1]) / (2.0 * eps))
_FOURTH = ((1.0, -1.0, 2.0, -2.0),
           lambda lo, eps: (8.0 * (lo[0] - lo[1]) - (lo[2] - lo[3])) / (12.0 * eps))


def _numeric_grad(forward, leaves, key, value, eps, stencil=_SECOND, entries=None):
    """Finite differences of the loss in the entries of one leaf (every
    entry, or those listed), the others left 0.  An array leaf is perturbed
    in place in one working copy, each entry restored before the next."""
    steps, derivative = stencil
    bumped = dict(leaves)
    arr = np.asarray(value, dtype=np.float64)
    num = np.zeros_like(arr)
    work = arr.copy()
    if arr.ndim:
        bumped[key] = work
    for idx in np.ndindex(arr.shape) if entries is None else entries:
        losses = []
        for step in steps:
            if arr.ndim:
                work[idx] = arr[idx] + step * eps
            else:
                bumped[key] = float(arr) + step * eps
            losses.append(_loss(forward, bumped))
        work[idx] = arr[idx]
        num[idx] = derivative(losses, eps)
    return num


def _rel_err(a, n):
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)


def grad_check(name, forward, backward, leaves, eps=1e-4, tol=1e-4):
    """Compare backward() against central differences on every leaf, an
    entry that misses tol against the fourth-order stencil."""
    report = GradReport(name=name, tol=tol)
    analytic = backward(leaves)
    for key, value in leaves.items():
        if key not in analytic:
            report.failures.append(f"{key}: no analytic gradient returned")
            continue
        a = np.asarray(analytic[key], dtype=np.float64)
        if not np.all(np.isfinite(a)):
            report.failures.append(f"{key}: non-finite analytic gradient")
            continue
        n = _numeric_grad(forward, leaves, key, value, eps)
        if a.shape != n.shape:
            report.failures.append(
                f"{key}: gradient shape {a.shape} != leaf shape {n.shape}")
            continue
        rel = _rel_err(a, n)
        miss = rel > tol
        if miss.any():
            n4 = _numeric_grad(forward, leaves, key, value, eps, _FOURTH,
                               [tuple(i) for i in np.argwhere(miss)])
            rel = np.where(miss, _rel_err(a, n4), rel)
        report.checked += int(rel.size)
        worst = float(rel.max()) if rel.size else 0.0
        if worst > report.max_rel_err:
            report.max_rel_err = worst
            if a.ndim == 0:
                report.worst_leaf = key
            else:
                idx = np.unravel_index(int(np.argmax(rel)), rel.shape)
                report.worst_leaf = key + str(tuple(int(i) for i in idx))
    report.failures.extend(f"{key}: gradient returned for no leaf"
                           for key in analytic if key not in leaves)
    return report
