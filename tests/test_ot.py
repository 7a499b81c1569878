"""Transport solver tests against independent oracles.

The oracles here are deliberately naive: explicit 4-index loops for the
structural term, dense grid search over the one-parameter 2x2 transport
polytope, and full permutation enumeration for upper bounds. They share
no code path with the solver.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdkg import ot
from rdkg.errors import InputError
from rdkg.ot import (
    MARGINAL_TOL,
    Coupling,
    SolverConfig,
    _argmin_quadratic_unit,
    _logsumexp,
    _round_to_marginals,
    distortion_terms,
    fgw,
    gw_gradient,
    sinkhorn,
    structure_value,
)

from conftest import random_metric


def four_index_structure(c1, c2, plan):
    """Oracle: the raw quadratic mismatch, summed explicitly."""
    n, m = plan.shape
    total = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    total += (c1[i, k] - c2[j, l]) ** 2 * plan[i, j] * plan[k, l]
    return total


def regularized_objective(cost, plan, eps):
    """<cost, plan> - eps * H(plan) with H the Shannon entropy."""
    p = plan[plan > 0]
    return float((cost * plan).sum() + eps * (p * np.log(p)).sum())


def grid_search_2x2(cost, eps, steps=40001):
    """Oracle: uniform-marginal 2x2 plans are [[t, .5-t], [.5-t, t]]."""
    best = np.inf
    for t in np.linspace(0.0, 0.5, steps):
        plan = np.array([[t, 0.5 - t], [0.5 - t, t]])
        best = min(best, regularized_objective(cost, plan, eps))
    return best


# --- sinkhorn -----------------------------------------------------------------


def test_sinkhorn_1x1_forced():
    out = sinkhorn(np.array([[7.3]]), np.array([1.0]), np.array([1.0]), 0.05)
    assert out.matrix == pytest.approx(np.array([[1.0]]))


def test_sinkhorn_2x2_antidiagonal_cost():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([0.5, 0.5])
    out = sinkhorn(cost, u, u, 0.01, 2000)
    assert np.allclose(out.matrix, np.diag(u), atol=1e-3)


def test_sinkhorn_marginals_contract(rng):
    cost = rng.random((6, 4)) * 2
    mu = rng.random(6) + 0.1
    mu /= mu.sum()
    nu = rng.random(4) + 0.1
    nu /= nu.sum()
    out = sinkhorn(cost, mu, nu, 0.05, 500)
    assert out.converged
    assert out.marginal_residual() <= 1e-6
    assert out.matrix.min() >= 0.0
    assert abs(out.matrix.sum() - 1.0) < 1e-9


def test_sinkhorn_objective_matches_grid(rng):
    for _ in range(5):
        cost = rng.random((2, 2)) * 2
        u = np.array([0.5, 0.5])
        out = sinkhorn(cost, u, u, 0.05, 2000)
        solver_obj = regularized_objective(cost, out.matrix, 0.05)
        assert solver_obj <= grid_search_2x2(cost, 0.05) + 1e-3


def test_sinkhorn_rejects_bad_inputs():
    u = np.array([0.5, 0.5])
    with pytest.raises(InputError, match="non-finite"):
        sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), u, u, 0.05)
    with pytest.raises(InputError, match="strictly positive"):
        sinkhorn(np.zeros((2, 2)), np.array([1.0, 0.0]), u, 0.05)
    with pytest.raises(InputError, match="at least 1"):
        sinkhorn(np.zeros((2, 2)), u, u, 0.05, 0)
    for potentials, message in [
        ((np.zeros(3), np.zeros(2)), "potential shapes"),
        ((np.zeros(2), np.zeros((2, 1))), "potential shapes"),
        ((np.zeros(2), np.array([0.0, np.nan])), "non-finite"),
        ((np.array([np.inf, 0.0]), np.zeros(2)), "non-finite"),
    ]:
        with pytest.raises(InputError, match=message):
            sinkhorn(np.zeros((2, 2)), u, u, 0.05, potentials=potentials)


def log_domain_scale_loop(cost, eps, f, g, log_mu, log_nu, mu, cap):
    """Oracle: every Sinkhorn iteration in the log domain, plain (no
    over-relaxation), testing the rows before each iteration; the plan is
    the exponential of its own potentials."""
    converged = False
    for iteration in range(cap):
        row_lse = _logsumexp((g[None, :] - cost) / eps, axis=1)
        if iteration > 0:
            row_sums = np.exp(f / eps + row_lse)
            if np.abs(row_sums - mu).max() <= ot.MARGINAL_TOL:
                converged = True
                break
        f[:] = eps * (log_mu - row_lse)
        col_lse = _logsumexp((f[:, None] - cost) / eps, axis=0)
        g[:] = eps * (log_nu - col_lse)
    else:
        iteration = cap
    return iteration, converged, np.exp((f[:, None] + g[None, :] - cost) / eps)


def oracle_sinkhorn(*args, **kwargs):
    """sinkhorn with the log-domain oracle as its per-stage loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ot, "_scale_loop", log_domain_scale_loop)
        return sinkhorn(*args, **kwargs)


def assert_oracle_fixed_point(plan, cost, mu, nu, eps):
    """The oracle, started from the solver's potentials, keeps the plan."""
    ref = oracle_sinkhorn(cost, mu, nu, eps, 50, potentials=plan.potentials)
    scale = np.abs(ref.matrix).max()
    assert np.abs(plan.matrix - ref.matrix).max() <= 1e-9 * scale


def assert_plan_from_potentials(plan, cost, mu, nu, eps):
    """The plan is the rounded exponential of the returned potentials."""
    f, g = plan.potentials
    ref = _round_to_marginals(np.exp((f[:, None] + g[None, :] - cost) / eps), mu, nu)
    assert np.abs(plan.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (39, 12), (217, 60)])
@pytest.mark.parametrize("eps", [0.05, 1e-2, 1e-3, 1e-4])
def test_sinkhorn_matches_log_domain_oracle(shape, eps, monkeypatch):
    # Over-relaxed and plain iterations share only their fixed point, so
    # every leg (cold and warm solve of each cost) is held against the
    # plain log-domain oracle twice:
    # - from the same start at the default tolerance and cap, the solver
    #   converges wherever the oracle does, and the two plans then agree
    #   to the order of the tolerance both meet;
    # - the solver runs to a tolerance far below the default with a large
    #   cap, and where it gets there the oracle, started from its
    #   potentials, must keep its plan to 1e-9.
    # Legs on which neither the solver nor the oracle meets either
    # tolerance (sharp eps on the spread-30 costs, single-stage warm
    # starts far from the new optimum) have no common point to compare.
    # At the program's epsilon every cold solve gets to the tight one.
    n, m = shape
    rng = np.random.default_rng(n * 1000 + m)
    mu = rng.random(n) + 0.1
    mu /= mu.sum()
    nu = rng.random(m) + 0.1
    nu /= nu.sum()
    for spread in (1.0, 30.0):
        cost = rng.random((n, m)) * spread
        # warm start from solved potentials on a shifted cost
        shifted = cost + rng.random((n, m)) * 0.2 * spread
        with monkeypatch.context() as mp:
            mp.setattr(ot, "MARGINAL_TOL", 1e-12)
            cold = sinkhorn(cost, mu, nu, eps, 20000)
            warm = sinkhorn(shifted, mu, nu, eps, 20000, potentials=cold.potentials)
            if eps == SolverConfig.epsilon:
                assert cold.converged
            for solved_cost, plan in ((cost, cold), (shifted, warm)):
                assert np.isfinite(plan.matrix).all()
                assert plan.marginal_residual() <= 1e-9
                if plan.converged:
                    assert_oracle_fixed_point(plan, solved_cost, mu, nu, eps)
                    assert_plan_from_potentials(plan, solved_cost, mu, nu, eps)
        for solved_cost, start in ((cost, None), (shifted, cold.potentials)):
            got = sinkhorn(solved_cost, mu, nu, eps, potentials=start)
            ref = oracle_sinkhorn(solved_cost, mu, nu, eps, potentials=start)
            assert got.converged or not ref.converged
            if ref.converged:
                assert np.abs(got.matrix - ref.matrix).max() <= 10 * MARGINAL_TOL


@pytest.mark.parametrize("offset", [-50.0, -36.5])
def test_sinkhorn_opening_falls_back_for_an_underflowed_column(offset, monkeypatch):
    # A warm start whose last column potential is far below the others at
    # eps 0.05: after the row step that kernel column is about
    # exp(offset / eps), 0 in float at -50 and subnormal (a sum near
    # 5e-316, a few significant bits) at -36.5. Scaling it to nu would
    # take log(0) or divide by a sum that has lost its precision, so the
    # opening must take the column step in the log domain instead, and
    # the solve must land on the oracle's fixed point.
    rng = np.random.default_rng(3)
    n, m, eps = 12, 8, 0.05
    cost = rng.random((n, m))
    mu = np.full(n, 1 / n)
    nu = rng.random(m) + 0.1
    nu /= nu.sum()
    start = (np.zeros(n), np.concatenate([np.zeros(m - 1), [offset]]))
    column_steps = []

    def counted_logsumexp(a, axis):
        column_steps.append(axis)
        return _logsumexp(a, axis)

    with monkeypatch.context() as mp:
        mp.setattr(ot, "_logsumexp", counted_logsumexp)
        mp.setattr(ot, "MARGINAL_TOL", 1e-12)
        out = sinkhorn(cost, mu, nu, eps, 20000, potentials=start)
    assert column_steps == [0]  # the first opening only
    assert out.converged
    assert_oracle_fixed_point(out, cost, mu, nu, eps)
    assert_plan_from_potentials(out, cost, mu, nu, eps)
    got = sinkhorn(cost, mu, nu, eps, potentials=start)
    ref = oracle_sinkhorn(cost, mu, nu, eps, potentials=start)
    assert got.converged and ref.converged
    assert np.abs(got.matrix - ref.matrix).max() <= 10 * MARGINAL_TOL


def self_similarity_cost(seed: int, n: int = 40, topics: int = 4, words: int = 15):
    """1 - cosine similarity of n bag-of-words rows with themselves.

    Units against nodes named after them give this shape of feature
    cost: a spread of about 1 with near-tied assignments, on which plain
    Sinkhorn contracts slowly at eps 0.05.
    """
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, topics * words))
    for row in rows:
        topic = rng.integers(topics)
        np.add.at(row, topic * words + rng.integers(0, words, 6), 1.0)
        np.add.at(row, rng.integers(0, topics * words, 2), 1.0)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return 1.0 - rows @ rows.T


def test_sinkhorn_converges_where_plain_scaling_is_slow():
    cost = self_similarity_cost(8)
    mu = np.full(len(cost), 1 / len(cost))
    assert not oracle_sinkhorn(cost, mu, mu, 0.05).converged  # plain needs > 200
    out = sinkhorn(cost, mu, mu, 0.05)
    assert out.converged
    # converged means rows and columns both, before the plan is rounded
    f, g = out.potentials
    raw = np.exp((f[:, None] + g[None, :] - cost) / 0.05)
    assert np.abs(raw.sum(axis=1) - mu).max() <= MARGINAL_TOL
    assert np.abs(raw.sum(axis=0) - mu).max() <= MARGINAL_TOL
    ref = oracle_sinkhorn(cost, mu, mu, 0.05, 5000)
    assert ref.converged
    assert np.abs(out.matrix - ref.matrix).max() <= 10 * MARGINAL_TOL


def test_sinkhorn_recentres_far_off_warm_start(monkeypatch):
    # Warm potentials far off the cost at eps 1e-3: the kernel formed by
    # the first iteration has underflowed entries, so scaling steps leave
    # the safe range and new passes open from the absorbed potentials.
    # No error, a finite feasible plan.
    rng = np.random.default_rng(11)
    n, m, eps = 39, 12, 1e-3
    cost = rng.random((n, m)) * 30.0
    mu = np.full(n, 1 / n)
    nu = np.full(m, 1 / m)
    f = rng.random(n) * 40.0 - 20.0
    g = np.concatenate([np.full(m // 2, 15.0), np.full(m - m // 2, -25.0)])
    passes = []

    def counted_open_pass(*args):
        passes.append(1)
        return open_pass(*args)

    open_pass = ot._open_pass
    monkeypatch.setattr(ot, "_open_pass", counted_open_pass)
    out = sinkhorn(cost, mu, nu, eps, 2000, potentials=(f, g))
    assert len(passes) > 1  # the first one and re-centrings
    assert np.isfinite(out.matrix).all()
    assert out.marginal_residual() <= 1e-6
    assert np.isfinite(out.potentials[0]).all() and np.isfinite(out.potentials[1]).all()


def far_off_warm_start():
    """The far-off warm start above: (cost, mu, nu, eps, f, g)."""
    rng = np.random.default_rng(11)
    n, m = 39, 12
    cost = rng.random((n, m)) * 30.0
    f = rng.random(n) * 40.0 - 20.0
    g = np.concatenate([np.full(m // 2, 15.0), np.full(m - m // 2, -25.0)])
    return cost, np.full(n, 1 / n), np.full(m, 1 / m), 1e-3, f, g


def test_sinkhorn_recentring_keeps_pace_with_plain_iterations():
    # The far-off warm start needs a new pass every few dozen iterations.
    # Each pass must keep the iterations it made, so the solver ends as
    # close to the marginals as plain log-domain iterations with the same
    # budget from the same start.
    cost, mu, nu, eps, f, g = far_off_warm_start()

    def raw_residual(plan):
        pf, pg = plan.potentials
        raw = np.exp((pf[:, None] + pg[None, :] - cost) / eps)
        return max(np.abs(raw.sum(axis=1) - mu).max(), np.abs(raw.sum(axis=0) - nu).max())

    got = sinkhorn(cost, mu, nu, eps, 5000, potentials=(f, g))
    ref = oracle_sinkhorn(cost, mu, nu, eps, 5000, potentials=(f, g))
    assert raw_residual(got) <= 1.1 * raw_residual(ref)


def test_sinkhorn_drops_non_finite_scalings(monkeypatch):
    # With no range limit the far-off warm start's scalings overflow to
    # inf or NaN or underflow to 0; such a pass must go back to its last
    # checked scalings rather than absorb them into the potentials.
    monkeypatch.setattr(ot, "_SCALE_LIMIT", np.inf)
    cost, mu, nu, eps, f, g = far_off_warm_start()
    out = sinkhorn(cost, mu, nu, eps, 2000, potentials=(f, g))
    assert np.isfinite(out.potentials[0]).all() and np.isfinite(out.potentials[1]).all()
    assert out.marginal_residual() <= 1e-6


# --- structural term ------------------------------------------------------------


def test_gw_zero_matrices():
    plan = np.full((3, 3), 1 / 9)
    z = np.zeros((3, 3))
    assert structure_value(z, z, plan) == 0.0
    assert np.allclose(gw_gradient(z, z, plan), 0.0)


def test_structure_half_identity_case():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = 0.5 * np.eye(2)
    assert structure_value(c, c, plan) == pytest.approx(
        four_index_structure(c, c, plan), abs=1e-12
    )


def test_structure_matches_oracle_on_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        c1 = random_metric(n, rng)
        c2 = random_metric(m, rng)
        plan = rng.random((n, m))
        plan /= plan.sum()
        assert structure_value(c1, c2, plan) == pytest.approx(
            four_index_structure(c1, c2, plan), abs=1e-10
        )


def test_gradient_is_numerical_derivative(rng):
    n, m = 3, 3
    c1 = random_metric(n, rng)
    c2 = random_metric(m, rng)
    plan = rng.random((n, m))
    plan /= plan.sum()
    grad = gw_gradient(c1, c2, plan)
    h = 1e-6
    for i in range(n):
        for j in range(m):
            bumped = plan.copy()
            bumped[i, j] += h
            fd = (structure_value(c1, c2, bumped) - structure_value(c1, c2, plan)) / h
            assert grad[i, j] == pytest.approx(fd, abs=1e-4)


def test_distortion_terms_constant_feature_cost(rng):
    mu = np.full(3, 1 / 3)
    nu = np.full(4, 1 / 4)
    plan = np.outer(mu, nu)
    feats = np.full((3, 4), 0.7)
    structure, feature = distortion_terms(plan, np.zeros((3, 3)), np.zeros((4, 4)), feats)
    assert structure == 0.0
    assert feature == pytest.approx(0.7)


def test_distortion_terms_match_oracle(rng):
    c1 = random_metric(3, rng)
    c2 = random_metric(3, rng)
    plan = rng.random((3, 3))
    plan /= plan.sum()
    feats = rng.random((3, 3)) * 2
    structure, feature = distortion_terms(plan, c1, c2, feats)
    assert structure == pytest.approx(four_index_structure(c1, c2, plan), abs=1e-10)
    assert feature == pytest.approx((feats * plan).sum(), abs=1e-12)


def test_shape_mismatch_errors(rng):
    plan = np.full((2, 3), 1 / 6)
    with pytest.raises(InputError):
        gw_gradient(np.zeros((3, 3)), np.zeros((3, 3)), plan)
    with pytest.raises(InputError):
        distortion_terms(plan, np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((3, 2)))


# --- fused solver ------------------------------------------------------------------


def _self_alignment_fixture(n=6):
    rng = np.random.default_rng(5)
    d = random_metric(n, rng)
    feats = np.ones((n, n)) - np.eye(n)  # orthonormal embeddings
    mu = np.full(n, 1 / n)
    return d, feats, mu


def reference_fgw(c1, c2, feats, mu, nu, cfg):
    """Frank-Wolfe through the public gw_gradient, structure_value and
    distortion_terms, every product recomputed: (plan, terms, history)."""
    lam = cfg.lambda_feat

    def objective(plan):
        value = lam * float(np.tensordot(feats, plan))
        if lam < 1.0:
            value += (1.0 - lam) * structure_value(c1, c2, plan)
        return value

    pi = np.outer(mu, nu)
    history = [objective(pi)]
    potentials = None
    for _ in range(cfg.fw_iters):
        grad = lam * feats
        if lam < 1.0:
            grad = grad + (1.0 - lam) * gw_gradient(c1, c2, pi)
        inner = sinkhorn(grad, mu, nu, cfg.epsilon, cfg.sinkhorn_iters, potentials=potentials)
        potentials = inner.potentials
        delta = inner.matrix - pi
        r, s = delta.sum(axis=1), delta.sum(axis=0)
        quad = float(r @ (c1 * c1) @ r + s @ (c2 * c2) @ s
                     - 2.0 * np.tensordot(c1 @ delta @ c2, delta))
        t = _argmin_quadratic_unit((1.0 - lam) * quad, float(np.tensordot(grad, delta)))
        if t == 0.0:
            break
        pi = pi + t * delta
        history.append(objective(pi))
        if history[-2] - history[-1] < cfg.fw_tol * max(abs(history[-1]), 1.0):
            break
    return pi, distortion_terms(pi, c1, c2, feats), history


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_fgw_reuses_products_exactly(rng, lam):
    # the kept products and pair terms give bit-identical iterates and terms
    for _ in range(3):
        n, m = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        c1, c2 = random_metric(n, rng), random_metric(m, rng)
        feats = rng.random((n, m)) * 2
        mu = np.full(n, 1 / n)
        nu = rng.random(m) + 0.1
        nu /= nu.sum()
        cfg = SolverConfig(lambda_feat=lam)
        res = fgw(c1, c2, feats, mu, nu, cfg)
        plan, (structure, feature), history = reference_fgw(c1, c2, feats, mu, nu, cfg)
        assert len(history) > 2
        assert np.array_equal(res.coupling.matrix, plan)
        assert res.history == history
        assert (res.structure_term, res.feature_term) == (structure, feature)


def test_fgw_self_alignment_identity():
    d, feats, mu = _self_alignment_fixture()
    res = fgw(d, d, feats, mu, mu, SolverConfig(epsilon=0.05))
    assert res.distortion <= 0.05
    assert list(res.coupling.matrix.argmax(axis=1)) == list(range(len(mu)))


def test_fgw_lambda_one_reduces_to_sinkhorn(rng):
    n, m = 4, 3
    c1, c2 = random_metric(n, rng), random_metric(m, rng)
    feats = rng.random((n, m)) * 2
    mu = np.full(n, 1 / n)
    nu = np.full(m, 1 / m)
    cfg = SolverConfig(lambda_feat=1.0)
    res = fgw(c1, c2, feats, mu, nu, cfg)
    baseline = sinkhorn(feats, mu, nu, cfg.epsilon, cfg.sinkhorn_iters)
    # the 1e-9 contract is the distortion identity; the plans agree only
    # up to the marginal tolerance of the two solve paths
    assert res.distortion == pytest.approx((feats * res.coupling.matrix).sum(), abs=1e-9)
    assert np.allclose(res.coupling.matrix, baseline.matrix, atol=1e-5)


def test_fgw_lambda_zero_distortion_is_structure(rng):
    c1, c2 = random_metric(3, rng), random_metric(3, rng)
    mu = np.full(3, 1 / 3)
    res = fgw(c1, c2, np.zeros((3, 3)), mu, mu, SolverConfig(lambda_feat=0.0))
    assert res.distortion == pytest.approx(res.structure_term, abs=1e-9)


def test_fgw_distortion_decomposition_invariant(rng):
    c1, c2 = random_metric(4, rng), random_metric(4, rng)
    feats = rng.random((4, 4)) * 2
    mu = np.full(4, 1 / 4)
    res = fgw(c1, c2, feats, mu, mu)
    lam = SolverConfig().lambda_feat
    assert res.distortion == pytest.approx(
        (1 - lam) * res.structure_term + lam * res.feature_term, abs=1e-9
    )


def test_fgw_monotone_history(rng):
    for _ in range(5):
        n = int(rng.integers(3, 6))
        c1, c2 = random_metric(n, rng), random_metric(n, rng)
        feats = rng.random((n, n)) * 2
        mu = np.full(n, 1 / n)
        res = fgw(c1, c2, feats, mu, mu)
        for prev, nxt in zip(res.history, res.history[1:]):
            assert nxt <= prev + 1e-9


def test_fgw_beats_permutation_bound(rng):
    lam = SolverConfig().lambda_feat
    for _ in range(10):
        n = int(rng.integers(3, 5))
        c1, c2 = random_metric(n, rng), random_metric(n, rng)
        feats = rng.random((n, n)) * 2
        mu = np.full(n, 1 / n)
        res = fgw(c1, c2, feats, mu, mu)
        best = np.inf
        for perm in itertools.permutations(range(n)):
            plan = np.zeros((n, n))
            plan[range(n), perm] = 1 / n
            s = four_index_structure(c1, c2, plan)
            f = (feats * plan).sum()
            best = min(best, (1 - lam) * s + lam * f)
        assert res.distortion <= best + 0.1


def test_fgw_symmetry(rng):
    # symmetry is asserted on solves whose inner problems fully converge,
    # hence the generous inner iteration budget
    n = 4
    c1, c2 = random_metric(n, rng), random_metric(n, rng)
    feats = rng.random((n, n)) * 2
    mu = np.full(n, 1 / n)
    cfg = SolverConfig(sinkhorn_iters=30000, fw_iters=200, fw_tol=1e-10)
    forward = fgw(c1, c2, feats, mu, mu, cfg)
    backward = fgw(c2, c1, feats.T, mu, mu, cfg)
    assert forward.coupling.converged and backward.coupling.converged
    assert forward.distortion == pytest.approx(backward.distortion, abs=1e-6)


def test_fgw_nonnegative_distortion(rng):
    for _ in range(5):
        c1, c2 = random_metric(3, rng), random_metric(4, rng)
        feats = rng.random((3, 4)) * 2
        res = fgw(c1, c2, feats, np.full(3, 1 / 3), np.full(4, 1 / 4))
        assert res.distortion >= 0.0
        assert res.coupling.residual <= 1e-6


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_fgw_coupling_marginals_property(seed):
    # accepted solves (all inner problems converged) satisfy the 1e-6
    # marginal contract; otherwise the violation must be reported
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    res = fgw(
        random_metric(n, rng),
        random_metric(m, rng),
        rng.random((n, m)) * 2,
        np.full(n, 1 / n),
        np.full(m, 1 / m),
        SolverConfig(sinkhorn_iters=20000),
    )
    residual = res.coupling.marginal_residual()
    if res.coupling.converged:
        assert residual <= 1e-6
    assert res.coupling.residual == residual


def test_coupling_validation_helpers():
    plan = np.array([[0.5, 0.0], [0.0, 0.5]])
    c = Coupling(plan, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert c.marginal_residual() == 0.0
    assert c.matrix.argmax(axis=1).tolist() == [0, 1]
