"""Optimal Transport Dataset Distance between labeled point clouds.

The label ground metric uses a diagonal-Gaussian approximation of the
class-conditional feature distributions; transport is solved by log-domain
Sinkhorn with uniform marginals.  The cost matrix is built from tape ops and
the solve runs in float64 off the tape; the returned cost is one tape op
(``tensor.transport_cost``) whose backward differentiates the converged plan
implicitly, so the cost is differentiable w.r.t. the target points (and
through the target class moments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor


class DomainError(ValueError):
    """A numeric input lies outside the operation's domain."""


VARIANCE_FLOOR = 1e-6


@dataclass
class LabeledPointCloud:
    points: Tensor  # [N, d]
    labels: np.ndarray  # [N] ints < class_count
    class_count: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.points.data.ndim != 2:
            raise ShapeError("points must be [N, d]")
        if self.labels.shape != (self.points.data.shape[0],):
            raise ShapeError("labels must be one int per point")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ContractError("label outside [0, class_count)")

    def __len__(self) -> int:
        return self.points.data.shape[0]


@dataclass
class ClassMoments:
    mean: Tensor  # [K', d] per represented class
    var: Tensor  # [K', d] diagonal variance, floored
    classes: np.ndarray  # [K'] original class ids, sorted


def compute_class_moments(cloud: LabeledPointCloud) -> ClassMoments:
    """Differentiable per-class mean and diagonal variance of the cloud's points.

    Classes with fewer than 2 points are kept; all variances are floored at
    1e-6 so downstream square roots stay differentiable.
    """
    if len(cloud) == 0:
        raise ContractError("cannot compute moments of an empty cloud")
    classes, inverse = np.unique(cloud.labels, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(classes)).astype(np.float32)
    assign = np.zeros((len(classes), len(cloud)), dtype=np.float32)
    assign[inverse, np.arange(len(cloud))] = 1.0
    assign /= counts[:, None]
    mean = T.matmul(Tensor(assign), cloud.points)  # [K', d]
    second = T.matmul(Tensor(assign), T.square(cloud.points))
    var = T.maximum_const(T.sub(second, T.square(mean)), VARIANCE_FLOOR)
    return ClassMoments(mean=mean, var=var, classes=classes)


def _pairwise_sq_dists(a: Tensor, b: Tensor) -> Tensor:
    """[N, M] squared euclidean distances, clamped at 0 against cancellation."""
    a2 = T.tsum(T.square(a), axis=1, keepdims=True)  # [N, 1]
    b2 = T.reshape(T.tsum(T.square(b), axis=1, keepdims=True), (1, b.data.shape[0]))
    cross = T.matmul(a, T.transpose_last2(b))
    return T.maximum_const(T.sub(T.add(a2, b2), T.mul(cross, 2.0)), 0.0)


def label_distance_matrix(a: ClassMoments, b: ClassMoments) -> Tensor:
    """[Ka', Kb'] matrix of diagonal-Gaussian W2^2 between class moments."""
    mean_part = _pairwise_sq_dists(a.mean, b.mean)
    std_part = _pairwise_sq_dists(T.sqrt(a.var), T.sqrt(b.var))
    return T.add(mean_part, std_part)


def joint_cost_matrix(a: LabeledPointCloud, b: LabeledPointCloud, label_dist: Tensor,
                      a_classes: np.ndarray, b_classes: np.ndarray) -> Tensor:
    """C[i, j] = ||z_i - z'_j||^2 + label_dist[y_i, y'_j].

    Row r of ``label_dist`` is class ``a_classes[r]`` and column c class
    ``b_classes[c]``: the sorted class ids of ``ClassMoments.classes``.
    """
    if np.any(label_dist.data < 0):
        raise DomainError("label distances must be nonnegative")
    if a.points.data.shape[1] != b.points.data.shape[1]:
        raise ShapeError("point clouds must share the feature dimension")
    feat = _pairwise_sq_dists(a.points, b.points)
    lab = T.take_cols(T.take_rows(label_dist, np.searchsorted(a_classes, a.labels)),
                      np.searchsorted(b_classes, b.labels))
    return T.add(feat, lab)


@dataclass
class SinkhornParams:
    """A Sinkhorn solve's entropic ``epsilon``, iteration cap and marginal
    tolerance; each caller states the first two.  ``epsilon=0`` selects the
    median rule: epsilon is resolved from the cost matrix as 0.05 * median(C)
    and then held constant, so the cost's gradient is its derivative at that
    fixed epsilon, not through the median."""

    epsilon: float  # 0: use 0.05 * median cost
    max_iters: int
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.epsilon < 0:
            raise ContractError("epsilon must be positive (or 0 for the median rule)")
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")


DEFAULT_EPSILON_FACTOR = 0.05


@dataclass
class SinkhornResult:
    coupling: Tensor  # [N, M], rows sum to 1/N, columns to 1/M at convergence
    cost: Tensor  # scalar transport cost sum(coupling * cost_matrix)
    converged: bool
    iterations: int
    marginal_violation: float


def _resolve_epsilon(cost_data: np.ndarray, params: SinkhornParams) -> float:
    if params.epsilon > 0:
        return float(params.epsilon)
    med = float(np.median(cost_data))
    return DEFAULT_EPSILON_FACTOR * max(med, 1e-12)


_LEVEL_ITERS = 10


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    xmax = x.max(axis=axis, keepdims=True)
    return (np.log(np.exp(x - xmax).sum(axis=axis, keepdims=True)) + xmax).squeeze(axis)


def sinkhorn(cost: Tensor, params: SinkhornParams) -> SinkhornResult:
    """Entropic OT with uniform marginals, solved by log-domain updates.

    The solver loop runs in float64 with epsilon annealed from 0.5 *
    median(cost) down to the target (halving at each converged level), which
    keeps small-epsilon problems inside the iteration budget without changing
    the fixed point.  The coupling, cost and marginal violation all come from
    one plan of the final potentials, the last convergence check's, with or
    without the tape.  The cost's gradient is the implicit-function gradient
    at the fixed point (Luise et al., NeurIPS 2018), see
    ``tensor.transport_cost``.
    """
    if not np.all(np.isfinite(cost.data)):
        raise ContractError("cost matrix must be finite")
    n, m = cost.data.shape
    eps_target = _resolve_epsilon(cost.data, params)

    C = cost.data.astype(np.float64)
    log_a = np.full(n, -np.log(n))
    log_b = np.full(m, -np.log(m))
    f = np.zeros(n)
    g = np.zeros(m)

    # halving schedule from the cost oscillation scale down to the target
    eps_levels = []
    e = max(eps_target, 0.25 * float(C.max() - C.min()))
    while e > eps_target * (1 + 1e-12):
        eps_levels.append(e)
        e *= 0.5
    eps_levels.append(eps_target)

    def violation_of(fv, gv, e):
        logp = (fv[:, None] + gv[None, :] - C) / e + log_a[:, None] + log_b[None, :]
        p = np.exp(logp)
        return p, max(np.abs(p.sum(axis=1) - 1.0 / n).max(),
                      np.abs(p.sum(axis=0) - 1.0 / m).max())

    def update(e):
        nonlocal f, g
        f = -e * _lse((g[None, :] - C) / e + log_b[None, :], axis=1)
        g = -e * _lse((f[:, None] - C) / e + log_a[:, None], axis=0)

    solver_converged = False
    iterations = 0
    eps_reached = eps_levels[0]
    for eps in eps_levels[:-1]:
        for _ in range(_LEVEL_ITERS):
            if iterations >= params.max_iters:
                break
            iterations += 1
            update(eps)
            eps_reached = eps
    eps = eps_levels[-1]
    checked = None  # (plan, violation) of the last convergence check
    while iterations < params.max_iters:
        iterations += 1
        update(eps)
        eps_reached = eps
        if iterations % 4 == 0 or iterations == params.max_iters:
            checked = violation_of(f, g, eps)
            if checked[1] < params.tolerance:
                solver_converged = True
                break

    # the target level ends on a check; only a budget spent before it leaves
    # the plan to build
    p, violation = checked or violation_of(f, g, eps_reached)
    return SinkhornResult(coupling=Tensor(p), cost=T.transport_cost(cost, p, eps_reached),
                          converged=solver_converged, iterations=iterations,
                          marginal_violation=float(violation))


def otdd_distance(target: LabeledPointCloud, proxy: LabeledPointCloud,
                  params: SinkhornParams, proxy_moments: ClassMoments) -> SinkhornResult:
    """OTDD between a trainable target cloud and a fixed proxy cloud.

    Target class moments are recomputed on every call (they carry gradient).
    ``proxy_moments`` are the fixed side's, ``compute_class_moments`` of
    ``proxy`` or of the larger cloud it is drawn from, computed once by the
    caller.  The result's ``cost`` is the differentiable training signal; with
    ``epsilon=0`` its gradient treats the median-rule epsilon resolved from
    the cost matrix as a constant (see ``SinkhornParams``).
    """
    if len(target) == 0 or len(proxy) == 0:
        raise ContractError("point clouds must be nonempty")
    if target.points.data.shape[1] != proxy.points.data.shape[1]:
        raise ShapeError("target and proxy feature dimensions differ")
    t_mom = compute_class_moments(target)
    label_dist = label_distance_matrix(t_mom, proxy_moments)
    cost = joint_cost_matrix(target, proxy, label_dist, t_mom.classes, proxy_moments.classes)
    return sinkhorn(cost, params)
