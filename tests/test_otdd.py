import numpy as np
import pytest
from scipy.linalg import sqrtm

from crossmodal_pde import tensor as T
from crossmodal_pde.invariants import central_differences, exact_transport_cost, relative_error
from crossmodal_pde.otdd import (
    DEFAULT_EPSILON_FACTOR,
    DomainError,
    LabeledPointCloud,
    SinkhornParams,
    compute_class_moments,
    joint_cost_matrix,
    label_distance_matrix,
    otdd_distance,
    sinkhorn,
)
from crossmodal_pde.tensor import ContractError, ShapeError, Tensor


def make_cloud(points, labels, k=None):
    labels = np.asarray(labels)
    return LabeledPointCloud(points=Tensor(np.asarray(points, dtype=np.float32)),
                             labels=labels, class_count=k or int(labels.max()) + 1)


def random_cloud(rng, n, d, k, spread=2.0):
    labels = rng.integers(0, k, size=n)
    centers = rng.normal(scale=spread, size=(k, d))
    pts = centers[labels] + rng.normal(scale=0.5, size=(n, d))
    return make_cloud(pts, labels, k)


# -- gaussian W2 ------------------------------------------------------------


def gaussian_w2_sq(m1, v1, m2, v2) -> float:
    """Squared W2 between diagonal Gaussians at float64, ||m1-m2||^2 + sum_j
    (sqrt(v1_j) - sqrt(v2_j))^2: the scalar form of ``label_distance_matrix``."""
    m1, v1, m2, v2 = (np.asarray(x, dtype=np.float64) for x in (m1, v1, m2, v2))
    if np.any(v1 < 0) or np.any(v2 < 0):
        raise DomainError("variances must be nonnegative")
    return float(((m1 - m2) ** 2).sum() + ((np.sqrt(v1) - np.sqrt(v2)) ** 2).sum())


def test_w2_identical_moments_zero():
    m = np.array([1.0, -2.0])
    v = np.array([0.5, 3.0])
    assert gaussian_w2_sq(m, v, m, v) == 0.0


def test_w2_scalar_closed_form():
    got = gaussian_w2_sq(np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([4.0]))
    assert abs(got - 2.0) < 1e-12


def test_w2_negative_variance_rejected():
    with pytest.raises(DomainError):
        gaussian_w2_sq(np.zeros(2), np.array([-0.1, 1.0]), np.zeros(2), np.ones(2))


def test_w2_matches_full_matrix_bures_on_diagonals():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m1, m2 = rng.normal(size=3), rng.normal(size=3)
        v1, v2 = rng.uniform(0.1, 4.0, size=3), rng.uniform(0.1, 4.0, size=3)
        s1, s2 = np.diag(v1), np.diag(v2)
        root = sqrtm(sqrtm(s1) @ s2 @ sqrtm(s1))
        want = float(np.sum((m1 - m2) ** 2) + np.trace(s1 + s2 - 2.0 * root))
        got = gaussian_w2_sq(m1, v1, m2, v2)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_label_distance_matrix_matches_scalar_form():
    rng = np.random.default_rng(12)
    a = random_cloud(rng, 20, 4, 3)
    b = random_cloud(rng, 24, 4, 2)
    ma, mb = compute_class_moments(a), compute_class_moments(b)
    mat = label_distance_matrix(ma, mb).data
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            want = gaussian_w2_sq(ma.mean.data[i], ma.var.data[i],
                                  mb.mean.data[j], mb.var.data[j])
            assert abs(mat[i, j] - want) < 1e-3 * max(1.0, want)


# -- joint cost ---------------------------------------------------------------


def test_joint_cost_zero_diagonal_on_identical_clouds():
    cloud = make_cloud([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], [0, 1, 1])
    zero_label = Tensor(np.zeros((2, 2), dtype=np.float32))
    c = joint_cost_matrix(cloud, cloud, zero_label, np.arange(2), np.arange(2))
    np.testing.assert_allclose(np.diag(c.data), 0.0, atol=1e-5)


def test_joint_cost_two_points():
    a = make_cloud([[0.0], [3.0]], [0, 0], k=1)
    c = joint_cost_matrix(a, a, Tensor(np.zeros((1, 1), dtype=np.float32)), [0], [0])
    np.testing.assert_allclose(c.data, [[0.0, 9.0], [9.0, 0.0]], atol=1e-5)


def test_joint_cost_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    a = random_cloud(rng, 5, 3, 2)
    b = random_cloud(rng, 7, 3, 3)
    label_dist = Tensor(rng.uniform(0.0, 2.0, size=(2, 3)).astype(np.float32))
    # every class id maps to its own row and column, whether the cloud holds it or not
    got = joint_cost_matrix(a, b, label_dist, np.arange(2), np.arange(3)).data
    want = np.zeros((5, 7))
    for i in range(5):
        for j in range(7):
            diff = a.points.data[i].astype(np.float64) - b.points.data[j].astype(np.float64)
            want[i, j] = (diff**2).sum() + label_dist.data[a.labels[i], b.labels[j]]
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_joint_cost_dim_mismatch():
    a = make_cloud(np.zeros((2, 3)), [0, 0], k=1)
    b = make_cloud(np.zeros((2, 4)), [0, 0], k=1)
    with pytest.raises(ShapeError):
        joint_cost_matrix(a, b, Tensor(np.zeros((1, 1), dtype=np.float32)), [0], [0])


# -- class moments -------------------------------------------------------------


def test_moments_basic_and_one_point_class():
    cloud = make_cloud([[0.0], [2.0], [5.0]], [0, 0, 1])
    mom = compute_class_moments(cloud)
    np.testing.assert_allclose(mom.mean.data[:, 0], [1.0, 5.0], atol=1e-6)
    np.testing.assert_allclose(mom.var.data[0, 0], 1.0, atol=1e-5)
    assert mom.var.data[1, 0] == pytest.approx(1e-6)


# -- sinkhorn -------------------------------------------------------------------


def test_sinkhorn_single_point():
    res = sinkhorn(Tensor(np.array([[2.5]], dtype=np.float32)),
                   SinkhornParams(epsilon=0.1, max_iters=50))
    np.testing.assert_allclose(res.coupling.data, [[1.0]], atol=1e-6)
    assert abs(res.cost.item() - 2.5) < 1e-6


def test_sinkhorn_self_transport_near_zero():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 3)).astype(np.float32)
    d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    res = sinkhorn(Tensor(d), SinkhornParams(epsilon=0.01, max_iters=2000))
    assert res.cost.item() < 1e-4


def marginals_cost():
    rng = np.random.default_rng(3)
    return rng.uniform(0.0, 4.0, size=(5, 7)).astype(np.float32)


def test_sinkhorn_marginals_within_tolerance():
    # 1e-8 is below the float32 rounding of the returned coupling: the
    # violation is that of the float64 plan the solver converged to
    for tolerance in (1e-6, 1e-8):
        params = SinkhornParams(epsilon=0.2, max_iters=2000, tolerance=tolerance)
        res = sinkhorn(Tensor(marginals_cost()), params)
        assert res.converged, f"tolerance {tolerance}: violation {res.marginal_violation:.2e}"
        assert res.marginal_violation < tolerance
        p = res.coupling.data.astype(np.float64)
        assert np.abs(p.sum(axis=1) - 1 / 5).max() < 1e-6
        assert np.abs(p.sum(axis=0) - 1 / 7).max() < 1e-6


def test_sinkhorn_same_result_with_and_without_tape():
    params = SinkhornParams(epsilon=0.2, max_iters=2000, tolerance=1e-6)
    off = sinkhorn(Tensor(marginals_cost()), params)
    on = sinkhorn(Tensor(marginals_cost(), requires_grad=True), params)
    assert on.cost.requires_grad and not off.cost.requires_grad
    assert on.cost.item() == off.cost.item()
    assert on.converged == off.converged
    assert on.marginal_violation == off.marginal_violation
    np.testing.assert_array_equal(on.coupling.data, off.coupling.data)


def test_sinkhorn_nonconvergence_flag():
    rng = np.random.default_rng(5)
    cost = rng.uniform(0.0, 4.0, size=(6, 6)).astype(np.float32)
    res = sinkhorn(Tensor(cost), SinkhornParams(epsilon=1e-4, max_iters=3, tolerance=1e-12))
    assert not res.converged
    assert res.iterations == 3


def test_exact_oracle_symmetry():
    rng = np.random.default_rng(6)
    cost = rng.uniform(0.0, 3.0, size=(5, 5))
    assert exact_transport_cost(cost) == pytest.approx(exact_transport_cost(cost.T))


# -- otdd ------------------------------------------------------------------------


def test_otdd_self_distance_small():
    # tight, well-separated classes: entropic bias at the default epsilon is
    # bounded by the (tiny) intra-class spacing
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=12)
    centers = rng.normal(scale=3.0, size=(3, 4))
    pts = centers[labels] + rng.normal(scale=0.005, size=(12, 4))
    cloud = make_cloud(pts, labels, 3)
    res = otdd_distance(cloud, cloud, SinkhornParams(epsilon=0.0, max_iters=3000),
                        compute_class_moments(cloud))
    assert res.cost.item() < 1e-3


def test_otdd_translation_vs_oracle():
    # single shared class: label term is 0 between identical within-class moments
    # up to the translation's effect; compare against the exact matching oracle
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(4, 2)).astype(np.float32)
    shift = np.array([2.0, -1.0], dtype=np.float32)
    a = make_cloud(pts, [0, 0, 0, 0], k=1)
    b = make_cloud(pts + shift, [0, 0, 0, 0], k=1)
    mom_a, mom_b = compute_class_moments(a), compute_class_moments(b)
    label_dist = label_distance_matrix(mom_a, mom_b)
    cost = joint_cost_matrix(a, b, label_dist, mom_a.classes, mom_b.classes)
    opt = exact_transport_cost(cost.data)
    # identity matching is optimal for a pure translation: cost |t|^2 + label term
    label_term = float(label_dist.data[0, 0])
    assert opt == pytest.approx(float((shift**2).sum()) + label_term, rel=1e-4)
    res = otdd_distance(a, b, SinkhornParams(epsilon=0.01 * float(np.median(cost.data)),
                                             max_iters=20000, tolerance=1e-8), mom_b)
    assert abs(res.cost.item() - opt) <= 0.02 * opt


def otdd_grad_rel_error(target_pts: Tensor, labels, proxy: LabeledPointCloud,
                        params: SinkhornParams,
                        value_params: SinkhornParams | None = None) -> float:
    """Largest relative error of the OTDD gradient w.r.t. the target points
    against central differences of the no-grad value (computed with
    ``value_params`` when given, else with ``params``)."""
    k = int(np.max(labels)) + 1
    target = LabeledPointCloud(points=target_pts, labels=labels, class_count=k)
    value_params = value_params or params
    proxy_moments = compute_class_moments(proxy)

    def value() -> float:
        t = LabeledPointCloud(points=Tensor(target_pts.data), labels=labels, class_count=k)
        with T.no_grad():
            return otdd_distance(t, proxy, value_params, proxy_moments).cost.item()

    T.zero_grads([target_pts])
    otdd_distance(target, proxy, params, proxy_moments).cost.backward()
    analytic = target_pts.grad.astype(np.float64)
    assert np.all(np.isfinite(analytic))
    (fd,) = central_differences(value, [target_pts])
    return float(relative_error(analytic, fd).max())


def test_otdd_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    target_pts = Tensor(rng.normal(scale=1.5, size=(6, 3)).astype(np.float32), requires_grad=True)
    proxy = random_cloud(rng, 8, 3, 3)
    params = SinkhornParams(epsilon=0.3, max_iters=4000, tolerance=1e-7)
    rel = otdd_grad_rel_error(target_pts, np.array([0, 0, 1, 1, 2, 2]), proxy, params)
    assert rel < 1e-3, f"max rel grad error {rel:.2e}"


def test_otdd_gradient_median_rule_holds_epsilon_fixed():
    # with epsilon=0 the median rule resolves epsilon from C, and the
    # gradient is that of the cost at this epsilon held constant: it matches
    # central differences of the value recomputed with epsilon frozen
    rng = np.random.default_rng(9)
    labels = np.array([0, 0, 1, 1, 2, 2])
    target_pts = Tensor(rng.normal(scale=1.5, size=(6, 3)).astype(np.float32), requires_grad=True)
    proxy = random_cloud(rng, 8, 3, 3)
    cost = otdd_cost_matrix(make_cloud(target_pts.data, labels, 3), proxy)
    params = SinkhornParams(epsilon=0.0, max_iters=4000, tolerance=1e-7)
    frozen = SinkhornParams(epsilon=DEFAULT_EPSILON_FACTOR * float(np.median(cost)),
                            max_iters=4000, tolerance=1e-7)
    rel = otdd_grad_rel_error(target_pts, labels, proxy, params, value_params=frozen)
    assert rel < 1e-3, f"max rel grad error {rel:.2e}"


def otdd_cost_matrix(a: LabeledPointCloud, b: LabeledPointCloud) -> np.ndarray:
    mom_a, mom_b = compute_class_moments(a), compute_class_moments(b)
    return joint_cost_matrix(a, b, label_distance_matrix(mom_a, mom_b),
                             mom_a.classes, mom_b.classes).data


@pytest.mark.parametrize("seed", [21, 24, 30])
def test_otdd_gradient_matches_finite_differences_small_epsilon(seed):
    # at 1% of the median cost the plan is nearly a matching: an unrolled
    # or truncated gradient is off by several percent here, the implicit
    # gradient at the fixed point is not
    rng = np.random.default_rng(seed)
    labels = np.array([0, 0, 1, 1, 2, 2])
    target_pts = Tensor(rng.normal(scale=1.5, size=(6, 3)).astype(np.float32), requires_grad=True)
    proxy = random_cloud(rng, 8, 3, 3)
    cost = otdd_cost_matrix(make_cloud(target_pts.data, labels, 3), proxy)
    params = SinkhornParams(epsilon=0.01 * float(np.median(cost)), max_iters=20000,
                            tolerance=1e-9)
    rel = otdd_grad_rel_error(target_pts, labels, proxy, params)
    assert rel < 5e-3, f"max rel grad error {rel:.2e}"


def test_otdd_gradient_with_exact_zero_plan_blocks():
    # two tight clusters 4 apart on each side, two points each: at epsilon
    # 0.005 the cross-cluster plan entries underflow to exactly 0, so the
    # plan's support splits into two blocks and the implicit system gains a
    # second gauge direction
    rng = np.random.default_rng(14)
    shift = np.array([2.0, 0.0])
    a = np.concatenate([rng.normal(scale=0.3, size=(2, 2)) - shift,
                        rng.normal(scale=0.3, size=(2, 2)) + shift])
    b = np.concatenate([rng.normal(scale=0.3, size=(2, 2)) - shift,
                        rng.normal(scale=0.3, size=(2, 2)) + shift])
    labels = np.zeros(4, dtype=int)
    proxy = make_cloud(b, labels, 1)
    params = SinkhornParams(epsilon=0.005, max_iters=20000, tolerance=1e-9)
    res = otdd_distance(make_cloud(a, labels, 1), proxy, params, compute_class_moments(proxy))
    assert res.converged
    plan = res.coupling.data
    assert np.all(plan[:2, 2:] == 0.0) and np.all(plan[2:, :2] == 0.0)
    target_pts = Tensor(a.astype(np.float32), requires_grad=True)
    rel = otdd_grad_rel_error(target_pts, labels, proxy, params)
    assert rel < 1e-3, f"max rel grad error {rel:.2e}"


def test_otdd_epsilon_halving_does_not_inflate_cost():
    rng = np.random.default_rng(10)
    a = random_cloud(rng, 10, 3, 2)
    b = random_cloud(rng, 12, 3, 2)
    costs = []
    for eps in (0.8, 0.4, 0.2, 0.1):
        res = otdd_distance(a, b, SinkhornParams(epsilon=eps, max_iters=5000, tolerance=1e-7),
                            compute_class_moments(b))
        assert res.converged
        costs.append(res.cost.item())
    for hi, lo in zip(costs, costs[1:]):
        assert lo <= hi + 1e-3 * abs(hi)


def test_otdd_empty_cloud_rejected():
    a = make_cloud(np.zeros((0, 2)), np.zeros(0, dtype=int), k=1)
    b = make_cloud(np.zeros((2, 2)), [0, 0], k=1)
    with pytest.raises(ContractError, match="nonempty"):
        otdd_distance(a, b, SinkhornParams(epsilon=0.0, max_iters=10), compute_class_moments(b))


# -- input contracts -------------------------------------------------------------


@pytest.mark.parametrize("points, labels, error, match", [
    (np.zeros(3), [0, 0, 0], ShapeError, "points must be"),
    (np.zeros((3, 2)), [0, 0], ShapeError, "one int per point"),
    (np.zeros((2, 2)), [0, 2], ContractError, "outside"),
    (np.zeros((2, 2)), [-1, 0], ContractError, "outside"),
], ids=["points_not_2d", "label_count", "label_too_large", "label_negative"])
def test_cloud_contract_errors(points, labels, error, match):
    with pytest.raises(error, match=match):
        LabeledPointCloud(points=Tensor(points.astype(np.float32)), labels=labels, class_count=2)


def test_moments_of_an_empty_cloud_rejected():
    with pytest.raises(ContractError, match="empty cloud"):
        compute_class_moments(make_cloud(np.zeros((0, 2)), np.zeros(0, dtype=int), k=1))


def test_joint_cost_negative_label_distance_rejected():
    a = make_cloud(np.zeros((2, 2)), [0, 0], k=1)
    with pytest.raises(DomainError, match="nonnegative"):
        joint_cost_matrix(a, a, Tensor(np.full((1, 1), -1.0, dtype=np.float32)), [0], [0])


def test_otdd_feature_dim_mismatch():
    a = make_cloud(np.zeros((2, 3)), [0, 0], k=1)
    b = make_cloud(np.zeros((2, 4)), [0, 0], k=1)
    with pytest.raises(ShapeError, match="feature dimensions"):
        otdd_distance(a, b, SinkhornParams(epsilon=0.0, max_iters=10), compute_class_moments(b))


@pytest.mark.parametrize("epsilon, max_iters, match", [
    (-0.1, 10, "epsilon"), (0.1, 0, "max_iters"),
], ids=["negative_epsilon", "zero_max_iters"])
def test_sinkhorn_params_contract(epsilon, max_iters, match):
    with pytest.raises(ContractError, match=match):
        SinkhornParams(epsilon=epsilon, max_iters=max_iters)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_sinkhorn_non_finite_cost_rejected(bad):
    cost = np.ones((2, 2), dtype=np.float32)
    cost[0, 1] = bad
    with pytest.raises(ContractError, match="finite"):
        sinkhorn(Tensor(cost), SinkhornParams(epsilon=0.1, max_iters=10))
