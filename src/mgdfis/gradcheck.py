"""Finite-difference verification of the hand-written backward passes.

An op under test is presented as two closures over a flat dict of leaves
(parameter name -> scalar or array): `forward(leaves)` returning the op
output, and `backward(leaves)` returning the analytic gradient of the
sum-of-outputs loss for every leaf.  Central differences perturb each leaf
entry in turn; the report carries the worst relative error, any leaf
whose analytic gradient is missing or non-finite, and any analytic gradient
whose key names no leaf.
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


def _numeric_grad(forward, leaves, key, value, eps):
    """Central differences of the loss in every entry of one leaf.  An array
    leaf is perturbed in place in one working copy, each entry restored
    before the next."""
    bumped = dict(leaves)
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        bumped[key] = float(arr) + eps
        hi = _loss(forward, bumped)
        bumped[key] = float(arr) - eps
        lo = _loss(forward, bumped)
        return np.asarray((hi - lo) / (2.0 * eps))
    num = np.empty_like(arr)
    work = bumped[key] = arr.copy()
    for idx in np.ndindex(arr.shape):
        work[idx] = arr[idx] + eps
        hi = _loss(forward, bumped)
        work[idx] = arr[idx] - eps
        lo = _loss(forward, bumped)
        work[idx] = arr[idx]
        num[idx] = (hi - lo) / (2.0 * eps)
    return num


def grad_check(name, forward, backward, leaves, eps=1e-4, tol=1e-4):
    """Compare backward() against central differences on every leaf."""
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
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        rel = np.abs(a - n) / denom
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
