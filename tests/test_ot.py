"""Transport solver tests against independent oracles.

The oracles here are deliberately naive: explicit 4-index loops for the
structural term, dense grid search over the one-parameter 2x2 transport
polytope, and full permutation enumeration for upper bounds. They share
no code path with the solver.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rdkg import ot
from rdkg.errors import InputError, NumericalError
from rdkg.ot import (
    FW_ITERS,
    FW_TOL,
    MARGINAL_TOL,
    Coupling,
    _argmin_quadratic_unit,
    _logsumexp,
    _round_to_marginals,
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
            if eps == ot.EPSILON:
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


def allocating_scale_loop(cost, eps, f, g, log_mu, log_nu, mu, cap, restores=None):
    """Oracle: the scaling loop as it was before its buffers, every product,
    update and residual a new array and the last checked pair two saved
    references; each return to that pair is appended to ``restores``."""
    nu = np.exp(log_nu)
    omega = 1.0
    relax = True
    best = np.inf
    stalls = 0
    iteration = 0
    while True:
        kernel = ot._open_pass(cost, eps, f, g, log_mu, log_nu, mu, nu)
        iteration += 1
        u = np.ones_like(f)
        v = np.ones_like(g)
        ktu = kernel.sum(axis=0)
        checked = (u, v)
        last_residual, last_scaled = np.inf, 0
        scaled, next_check = 0, 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while True:
                kv = kernel @ v
                if scaled == next_check or iteration == cap:
                    if not (0.0 < u.min() and u.max() <= ot._SCALE_LIMIT
                            and 0.0 < v.min() and v.max() <= ot._SCALE_LIMIT):
                        if not (np.isfinite(u).all() and np.isfinite(v).all()
                                and 0.0 < u.min() and 0.0 < v.min()):
                            u, v = checked
                            if restores is not None:
                                restores.append(iteration)
                        converged = False
                        break
                    residual = max(np.abs(u * kv - mu).max(), np.abs(v * ktu - nu).max())
                    converged = residual <= ot.MARGINAL_TOL
                    if converged or iteration == cap:
                        break
                    if residual < best:
                        rate_bound = (ot._OMEGA - 1.0) ** (scaled - last_scaled)
                        if relax and omega == 1.0 and residual > last_residual * rate_bound:
                            omega = ot._OMEGA
                        best, stalls = residual, 0
                    else:
                        stalls += 1
                        if stalls == 2:
                            omega, relax = 1.0, False
                    gap = 2 if scaled == 0 else ot._CHECK_GAP
                    ratio = residual / last_residual
                    if 0.0 < ratio < 1.0:
                        need = math.log(ot.MARGINAL_TOL / residual) / math.log(ratio)
                        gap = min(max(math.ceil(need * (scaled - last_scaled)), 1),
                                  ot._CHECK_GAP)
                    checked = (u, v)
                    last_residual, last_scaled = residual, scaled
                    next_check = scaled + gap
                if omega == 1.0:
                    u = mu / kv
                    ktu = u @ kernel
                    v = nu / ktu
                else:
                    u = u * (mu / (u * kv)) ** omega
                    ktu = u @ kernel
                    v = v * (nu / (v * ktu)) ** omega
                scaled += 1
                iteration += 1
        f += eps * np.log(u)
        g += eps * np.log(v)
        if converged or iteration == cap:
            kernel *= u[:, None]
            kernel *= v
            return iteration, converged, kernel


def assert_same_bits_as_allocating_loop(cost, mu, nu, eps, max_iters, potentials=None):
    """sinkhorn and sinkhorn with the allocating oracle loop return the same
    plan and potentials bit for bit, and the same converged flag: the oracle
    solve's (converged, restores)."""
    got = sinkhorn(cost, mu, nu, eps, max_iters, potentials=potentials)
    restores = []

    def oracle_loop(*args):
        return allocating_scale_loop(*args, restores=restores)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ot, "_scale_loop", oracle_loop)
        ref = sinkhorn(cost, mu, nu, eps, max_iters, potentials=potentials)
    assert got.matrix.tobytes() == ref.matrix.tobytes()
    for mine, theirs in zip(got.potentials, ref.potentials):
        assert mine.tobytes() == theirs.tobytes()
    assert got.converged == ref.converged
    return ref.converged, restores


# m = 1 makes v, K'u and the rest length-1 views into the joint buffers
@pytest.mark.parametrize("shape", [(40, 13), (217, 33), (40, 1)])
def test_scale_loop_buffers_match_the_allocating_loop(shape):
    n, m = shape
    rng = np.random.default_rng(n + m)
    mu = np.full(n, 1 / n)
    nu = rng.random(m) + 0.1
    nu /= nu.sum()
    # a column-major cost gives a column-major kernel, so the products
    # take BLAS's other layout
    for spread, order in itertools.product((1.0, 30.0), "CF"):
        cost = np.asarray(rng.random((n, m)) * spread, order=order)
        cold = sinkhorn(cost, mu, nu, 0.05)
        shifted = np.asarray(cost + rng.random((n, m)) * 0.2 * spread, order=order)
        assert_same_bits_as_allocating_loop(cost, mu, nu, 0.05, 200)
        assert_same_bits_as_allocating_loop(shifted, mu, nu, 0.05, 200, cold.potentials)
        # stopped by the iteration cap, cold (a short epsilon schedule) and
        # warm; one column is exact after the opening iteration
        for max_iters, start in ((5, None), (3, cold.potentials)):
            converged, _ = assert_same_bits_as_allocating_loop(
                shifted, mu, nu, 1e-3, max_iters, start)
            assert converged == (m == 1)


def test_scale_loop_buffers_match_the_allocating_loop_over_relaxed():
    # plain scaling needs more than 200 iterations here, so the solve
    # over-relaxes (see test_sinkhorn_converges_where_plain_scaling_is_slow)
    cost = self_similarity_cost(8)
    mu = np.full(len(cost), 1 / len(cost))
    cold = sinkhorn(cost, mu, mu, 0.05)
    converged, _ = assert_same_bits_as_allocating_loop(cost, mu, mu, 0.05, 200)
    assert converged
    shifted = cost + np.random.default_rng(8).random(cost.shape) * 0.05
    assert_same_bits_as_allocating_loop(shifted, mu, mu, 0.05, 200, cold.potentials)


def test_scale_loop_buffers_match_the_allocating_loop_across_passes(monkeypatch):
    # the far-off warm start opens new passes; with no range limit its
    # scalings turn non-finite and the loop must restore the last checked
    # pair, which an in-place update would have overwritten
    cost, mu, nu, eps, f, g = far_off_warm_start()
    assert_same_bits_as_allocating_loop(cost, mu, nu, eps, 2000, (f, g))
    monkeypatch.setattr(ot, "_SCALE_LIMIT", np.inf)
    _, restores = assert_same_bits_as_allocating_loop(cost, mu, nu, eps, 2000, (f, g))
    assert restores


def test_solvers_leave_their_inputs_unchanged(rng, gates):
    # no buffer of sinkhorn or fgw aliases an array the caller passed
    n, m = 40, 13
    c1, c2 = random_metric(n, rng), random_metric(m, rng)
    # column-major, as CostMemo.unit_cost returns a column selection
    feats = np.asfortranarray(rng.random((n, m)) * 2)
    mu = np.full(n, 1 / n)
    nu = rng.random(m) + 0.1
    nu /= nu.sum()
    cost = rng.random((n, m))
    start = sinkhorn(cost, mu, nu, 0.05).potentials

    def solve_and_compare(solve, *inputs):
        before = [x.tobytes(order="A") for x in inputs]
        out = solve()
        assert [x.tobytes(order="A") for x in inputs] == before
        assert not any(np.shares_memory(out, x) for x in inputs)

    solve_and_compare(lambda: sinkhorn(cost, mu, nu, 0.05).matrix, cost, mu, nu)
    solve_and_compare(lambda: sinkhorn(cost, mu, nu, 0.05, potentials=start).matrix,
                      cost, mu, nu, *start)
    for lam in (0.0, 0.6, 1.0):
        gates(lambda_feat=lam)
        solve_and_compare(lambda: fgw(c1, c2, feats, mu, nu).coupling.matrix,
                          c1, c2, feats, mu, nu)


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


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (1, 5), (7, 4)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_products_equal_their_matmul_expressions(shape, order):
    # the solver's products are ndarray.dot; the expressions they replace
    # are written here with @, and must give the same bits
    n, m = shape
    rng = np.random.default_rng(n * 10 + m)

    def operand(rows, cols, low=0.0):
        return np.asarray(rng.random((rows, cols)) + low, order=order)

    c1, c2 = operand(n, n), operand(m, m)
    c1sq, c2sq = c1 * c1, c2 * c2
    pi, delta = operand(n, m), operand(n, m, low=-0.5)

    r, s = pi.sum(axis=1), pi.sum(axis=0)
    got = ot._pair_terms(c1sq, c2sq, pi)
    for mine, theirs in zip(got, (c1sq @ r, c2sq @ s, r, s)):
        assert mine.tobytes() == theirs.tobytes()

    u, w = c1sq @ r, c2sq @ s
    product = c1 @ pi @ c2
    value = max(float(r @ u + s @ w - 2.0 * np.vdot(product, pi)), 0.0)
    assert structure_value(c1, c2, pi) == value

    r, s = delta.sum(axis=1), delta.sum(axis=0)
    product = c1 @ delta @ c2
    quad = float(r @ c1sq @ r + s @ c2sq @ s - 2.0 * np.vdot(product, delta))
    got_quad, got_product = ot._quad_coeff(c1, c2, delta, c1sq, c2sq)
    assert got_quad == quad and got_product.tobytes() == product.tobytes()


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


def test_shape_mismatch_errors(rng):
    plan = np.full((2, 3), 1 / 6)
    with pytest.raises(InputError):
        gw_gradient(np.zeros((3, 3)), np.zeros((3, 3)), plan)
    with pytest.raises(InputError):
        structure_value(np.zeros((3, 3)), np.zeros((3, 3)), plan)


# --- fused solver ------------------------------------------------------------------


def _self_alignment_fixture(n=6):
    rng = np.random.default_rng(5)
    d = random_metric(n, rng)
    feats = np.ones((n, n)) - np.eye(n)  # orthonormal embeddings
    mu = np.full(n, 1 / n)
    return d, feats, mu


def recomputing_fgw(c1, c2, feats, mu, nu):
    """Frank-Wolfe through the public gw_gradient and structure_value,
    every product recomputed, at ot.LAMBDA_FEAT and ot.EPSILON: (plan,
    terms, history)."""
    lam = ot.LAMBDA_FEAT

    def objective(plan):
        value = lam * float(np.tensordot(feats, plan))
        if lam < 1.0:
            value += (1.0 - lam) * structure_value(c1, c2, plan)
        return value

    pi = np.outer(mu, nu)
    history = [objective(pi)]
    potentials = None
    for _ in range(FW_ITERS):
        grad = lam * feats
        if lam < 1.0:
            grad = grad + (1.0 - lam) * gw_gradient(c1, c2, pi)
        inner = sinkhorn(grad, mu, nu, ot.EPSILON, ot.SINKHORN_ITERS, potentials=potentials)
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
        if history[-2] - history[-1] < FW_TOL * max(abs(history[-1]), 1.0):
            break
    terms = (structure_value(c1, c2, pi), max(float(np.tensordot(feats, pi)), 0.0))
    return pi, terms, history


def reference_fgw(c1, c2, feats, mu, nu):
    """Frank-Wolfe with the product P = C1 pi C2 carried by linearity: P
    starts as (C1 mu)(C2' nu)' and each step pi + t delta adds t C1 delta C2,
    the line search's product. Returns (plan, terms, history, iterates),
    iterates pairing every plan with its carried P. Every lam takes the
    same step: at lam = 1 the structural parts are weighted by 0. lam is
    ot.LAMBDA_FEAT and the regularization ot.EPSILON."""
    lam = ot.LAMBDA_FEAT
    c1sq, c2sq = c1 * c1, c2 * c2

    def terms(plan, product):
        # (structure from the carried product, raw feature, (C1 o C1) r, (C2 o C2) s)
        r, s = plan.sum(axis=1), plan.sum(axis=0)
        u, w = c1sq @ r, c2sq @ s
        structure = max(float(r @ u + s @ w - 2.0 * np.tensordot(product, plan)), 0.0)
        return structure, float(np.tensordot(feats, plan)), u, w

    def objective(structure, feature):
        return lam * feature + (1.0 - lam) * structure

    pi = np.outer(mu, nu)
    product = np.outer(c1 @ mu, nu @ c2)
    structure, feature, u, w = terms(pi, product)
    history = [objective(structure, feature)]
    iterates = [(pi, product)]
    potentials = None
    for _ in range(FW_ITERS):
        grad = lam * feats + (1.0 - lam) * (2.0 * (u[:, None] + w[None, :]) - 4.0 * product)
        inner = sinkhorn(grad, mu, nu, ot.EPSILON, ot.SINKHORN_ITERS, potentials=potentials)
        potentials = inner.potentials
        delta = inner.matrix - pi
        r, s = delta.sum(axis=1), delta.sum(axis=0)
        step = c1 @ delta @ c2
        quad = float(r @ c1sq @ r + s @ c2sq @ s - 2.0 * np.tensordot(step, delta))
        t = _argmin_quadratic_unit((1.0 - lam) * quad, float(np.tensordot(grad, delta)))
        if t == 0.0:
            break
        pi = pi + t * delta
        product = product + t * step
        structure, feature, u, w = terms(pi, product)
        history.append(objective(structure, feature))
        iterates.append((pi, product))
        if history[-2] - history[-1] < FW_TOL * max(abs(history[-1]), 1.0):
            break
    return pi, (structure, max(feature, 0.0)), history, iterates


def _fw_problem(rng, low=3, high=9):
    n, m = int(rng.integers(low, high)), int(rng.integers(low, high))
    c1, c2 = random_metric(n, rng), random_metric(m, rng)
    feats = rng.random((n, m)) * 2
    mu = np.full(n, 1 / n)
    nu = rng.random(m) + 0.1
    nu /= nu.sum()
    return c1, c2, feats, mu, nu


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_fgw_reuses_products_exactly(rng, gates, lam):
    # the carried product and the kept pair terms give bit-identical
    # iterates and terms
    gates(lambda_feat=lam)
    for _ in range(3):
        problem = _fw_problem(rng)
        res = fgw(*problem)
        plan, (structure, feature), history, _ = reference_fgw(*problem)
        assert len(history) > 2
        assert np.array_equal(res.coupling.matrix, plan)
        assert res.history == history
        assert (res.structure_term, res.feature_term) == (structure, feature)


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_fgw_carried_product_matches_fresh_products(rng, gates, lam):
    # carrying C1 pi C2 by linearity drifts from a fresh product only by
    # rounding, and moves the solve no further than that; at lam = 1 the
    # structure term, which weighs nothing in the solve, comes from the
    # carried product too
    gates(lambda_feat=lam)
    for low, high in ((3, 9), (3, 9), (20, 45)):
        problem = _fw_problem(rng, low, high)
        c1, c2 = problem[:2]
        _, _, history, iterates = reference_fgw(*problem)
        assert len(iterates) > 2
        for plan, product in iterates:
            fresh = c1 @ plan @ c2
            assert np.abs(product - fresh).max() <= 1e-12 * np.abs(fresh).max()
        res = fgw(*problem)
        plan, terms, recomputed_history = recomputing_fgw(*problem)
        assert len(recomputed_history) == len(history)
        assert np.abs(res.coupling.matrix - plan).max() <= 1e-12 * plan.max()
        for got, want in zip((res.structure_term, res.feature_term), terms):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_fgw_self_alignment_identity(gates):
    gates(epsilon=0.05)
    d, feats, mu = _self_alignment_fixture()
    res = fgw(d, d, feats, mu, mu)
    assert res.distortion <= 0.05
    assert list(res.coupling.matrix.argmax(axis=1)) == list(range(len(mu)))


def test_fgw_lambda_one_reduces_to_sinkhorn(rng, gates):
    n, m = 4, 3
    c1, c2 = random_metric(n, rng), random_metric(m, rng)
    feats = rng.random((n, m)) * 2
    mu = np.full(n, 1 / n)
    nu = np.full(m, 1 / m)
    gates(lambda_feat=1.0)
    res = fgw(c1, c2, feats, mu, nu)
    baseline = sinkhorn(feats, mu, nu, ot.EPSILON, ot.SINKHORN_ITERS)
    # the 1e-9 contract is the distortion identity; the plans agree only
    # up to the marginal tolerance of the two solve paths
    assert res.distortion == pytest.approx((feats * res.coupling.matrix).sum(), abs=1e-9)
    assert np.allclose(res.coupling.matrix, baseline.matrix, atol=1e-5)


def test_fgw_lambda_zero_distortion_is_structure(rng, gates):
    c1, c2 = random_metric(3, rng), random_metric(3, rng)
    mu = np.full(3, 1 / 3)
    gates(lambda_feat=0.0)
    res = fgw(c1, c2, np.zeros((3, 3)), mu, mu)
    assert res.distortion == pytest.approx(res.structure_term, abs=1e-9)


def test_fgw_distortion_decomposition_invariant(rng):
    c1, c2 = random_metric(4, rng), random_metric(4, rng)
    feats = rng.random((4, 4)) * 2
    mu = np.full(4, 1 / 4)
    res = fgw(c1, c2, feats, mu, mu)
    lam = ot.LAMBDA_FEAT
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
    lam = ot.LAMBDA_FEAT
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


def test_fgw_symmetry(rng, monkeypatch, gates):
    # symmetry is asserted on solves whose inner problems fully converge,
    # hence the generous inner iteration budget and the tight stop rule
    monkeypatch.setattr("rdkg.ot.FW_ITERS", 200)
    monkeypatch.setattr("rdkg.ot.FW_TOL", 1e-10)
    gates(sinkhorn_iters=30000)
    n = 4
    c1, c2 = random_metric(n, rng), random_metric(n, rng)
    feats = rng.random((n, n)) * 2
    mu = np.full(n, 1 / n)
    forward = fgw(c1, c2, feats, mu, mu)
    backward = fgw(c2, c1, feats.T, mu, mu)
    assert forward.coupling.converged and backward.coupling.converged
    assert forward.distortion == pytest.approx(backward.distortion, abs=1e-6)


@pytest.mark.parametrize("lam", [0.6, 1.0])
def test_fgw_reports_a_non_finite_gradient_as_a_numerical_failure(rng, gates, lam):
    # sinkhorn's input check is the one scan of each gradient; fgw turns its
    # refusal of a non-finite gradient into the solve's numerical failure
    gates(lambda_feat=lam)
    c1, c2 = random_metric(4, rng), random_metric(3, rng)
    feats = rng.random((4, 3))
    mu, nu = np.full(4, 1 / 4), np.full(3, 1 / 3)
    if lam < 1.0:
        c1 = c1 * 1e200  # c1 o c1 overflows, and with it the gradient
    else:
        feats[1, 2] = np.inf  # the gradient is the feature cost itself
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match="outer iteration 1: bad gradient"
    ):
        fgw(c1, c2, feats, mu, nu)


def test_fgw_keeps_a_bad_marginal_an_input_error(rng):
    # the gradient is finite, so sinkhorn's refusal is the caller's input
    c1, c2 = random_metric(3, rng), random_metric(3, rng)
    mu = np.array([0.5, 0.5, 0.0])
    with pytest.raises(InputError, match="strictly positive"):
        fgw(c1, c2, rng.random((3, 3)), mu, np.full(3, 1 / 3))


def test_fgw_nonnegative_distortion(rng):
    for _ in range(5):
        c1, c2 = random_metric(3, rng), random_metric(4, rng)
        feats = rng.random((3, 4)) * 2
        res = fgw(c1, c2, feats, np.full(3, 1 / 3), np.full(4, 1 / 4))
        assert res.distortion >= 0.0
        assert res.coupling.marginal_residual() <= 1e-6


# the cap is set once for every example, so the fixture needs no reset
@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fgw_coupling_marginals_property(gates, seed):
    # accepted solves (all inner problems converged) satisfy the 1e-6
    # marginal contract; otherwise the violation must be reported
    gates(sinkhorn_iters=20000)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    res = fgw(
        random_metric(n, rng),
        random_metric(m, rng),
        rng.random((n, m)) * 2,
        np.full(n, 1 / n),
        np.full(m, 1 / m),
    )
    residual = res.coupling.marginal_residual()
    if res.coupling.converged:
        assert residual <= 1e-6
    plan = res.coupling.matrix
    assert residual == max(np.abs(plan.sum(axis=1) - 1 / n).max(),
                           np.abs(plan.sum(axis=0) - 1 / m).max())


def test_coupling_validation_helpers():
    plan = np.array([[0.5, 0.0], [0.0, 0.5]])
    c = Coupling(plan, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert c.marginal_residual() == 0.0
    assert c.matrix.argmax(axis=1).tolist() == [0, 1]
