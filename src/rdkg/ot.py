"""Entropic optimal transport and the fused structural-feature coupling.

The linear solver is Sinkhorn in the stabilized scaling form: each
epsilon stage starts with one log-domain iteration, then iterates on
scalings against a kernel with the potentials absorbed (two
matrix-vector products per iteration) and falls back to a log-domain
iteration whenever a scaling leaves a safe range (Cuturi, NeurIPS 2013;
Schmitzer, SIAM J. Sci. Comput. 2019). The fused problem

    min_pi (1-lam) * sum_{i,j,k,l} |C1(i,k) - C2(j,l)|^2 pi(i,j) pi(k,l)
           + lam * <M, pi>

over couplings pi with prescribed marginals is solved by conditional
gradient (Frank-Wolfe): each outer step linearizes the quadratic term,
solves the resulting linear transport problem with Sinkhorn, and takes
an exact line-search step on the quadratic objective restricted to the
segment between the iterate and the direction.

The quadratic term never materializes the 4-index tensor. With row sums
r and column sums s of pi, the squared-loss expansion gives

    E(pi) = r' (C1 o C1) r + s' (C2 o C2) s - 2 <C1 pi C2, pi>
    grad E(pi)(i,j) = 2 [ ((C1 o C1) r)_i + ((C2 o C2) s)_j ]
                      - 4 (C1 pi C2)(i,j)

(o = elementwise product), an O(N^2 M + N M^2) computation. Because r
and s are taken from pi itself, E matches the explicit 4-index sum for
any nonnegative matrix, not only for exactly-feasible couplings.

Reported distortion is the unregularized objective at the returned
coupling; the entropy term is a solver device, not part of the
distortion definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

MARGINAL_TOL = 1e-6
#: Upper bound on the Sinkhorn scalings between two absorptions, and the
#: kernel entries flushed to 0 when the kernel is formed (subnormal
#: operands slow every product they enter). A flushed entry would carry
#: at most _KERNEL_FLOOR * _SCALE_LIMIT**2 = 1e-50 of mass, far below
#: float precision on any marginal. Small scalings need no bound: they
#: only shrink entries.
_SCALE_LIMIT = 1e50
_KERNEL_FLOOR = 1e-150


@dataclass
class Coupling:
    """Transport plan with its prescribed marginals.

    Row sums match mu_row and column sums match mu_col within 1e-6 on
    every accepted solve; residual records the worst deviation actually
    achieved.
    """

    matrix: np.ndarray
    mu_row: np.ndarray
    mu_col: np.ndarray
    residual: float = 0.0
    converged: bool = True
    potentials: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def marginal_residual(self) -> float:
        row_err = np.abs(self.matrix.sum(axis=1) - self.mu_row).max()
        col_err = np.abs(self.matrix.sum(axis=0) - self.mu_col).max()
        return float(max(row_err, col_err))


@dataclass
class SolverConfig:
    lambda_feat: float = 0.6
    epsilon: float = 0.05
    sinkhorn_iters: int = 200
    fw_iters: int = 50
    fw_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_feat <= 1.0:
            raise InputError("lambda_feat must lie in [0, 1]")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.sinkhorn_iters < 1 or self.fw_iters < 1:
            raise InputError("iteration counts must be at least 1")


@dataclass
class FgwResult:
    coupling: Coupling
    distortion: float
    structure_term: float
    feature_term: float
    outer_iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    out = top + np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def sinkhorn(
    cost: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    epsilon: float,
    max_iters: int = SolverConfig.sinkhorn_iters,
    potentials: tuple[np.ndarray, np.ndarray] | None = None,
) -> Coupling:
    """Entropy-regularized linear transport by stabilized Sinkhorn.

    Minimizes <cost, pi> - epsilon * H(pi) over couplings of (mu, nu).
    The duals f, g are log-domain potentials, iterated as scalings
    within a stage (see _scale_loop); the plan is
    exp((f + g - cost) / epsilon). Cold starts anneal the
    regularization from the cost scale down to the target epsilon
    (geometric halving, potentials carried across stages);
    near-boundary optima that take millions of plain updates converge
    in tens this way. ``potentials`` warm starts the duals
    instead, for callers solving a sequence of nearby problems; the
    final potentials are stashed on the returned coupling for reuse.

    The returned plan is rounded onto the marginal polytope (rows and
    columns scaled down, missing mass restored rank-one), so its
    marginals are exact to float precision regardless of convergence.
    ``converged`` reports whether the dual iteration reached tolerance
    at the target epsilon within max_iters; when it is False the plan
    is feasible but may sit measurably off the entropic optimum.
    """
    cost = np.asarray(cost, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if not np.isfinite(cost).all():
        raise InputError("cost matrix has non-finite entries")
    if (mu <= 0).any() or (nu <= 0).any():
        raise InputError("marginals must be strictly positive")
    n, m = cost.shape
    if mu.shape != (n,) or nu.shape != (m,):
        raise InputError("marginal shapes do not match the cost matrix")

    log_mu = np.log(mu)
    log_nu = np.log(nu)
    if potentials is not None:
        f, g = np.array(potentials[0]), np.array(potentials[1])
        schedule = [epsilon]
    else:
        f, g = np.zeros(n), np.zeros(m)
        schedule = _epsilon_schedule(cost, epsilon)
    budget = max_iters
    converged = False
    for stage, eps in enumerate(schedule):
        final_stage = stage == len(schedule) - 1
        if final_stage:
            # The target epsilon always runs, so the returned potentials
            # match the requested regularization.
            cap = max(2, budget)
        else:
            # Early stages only need to roughly track the continuation path.
            cap = min(budget, max(16, max_iters // (4 * len(schedule))))
        spent, converged = _scale_loop(cost, eps, f, g, log_mu, log_nu, mu, cap)
        budget -= spent
        if budget <= 0 and not final_stage:
            spent, converged = _scale_loop(cost, epsilon, f, g, log_mu, log_nu, mu, 2)
            break

    plan = np.exp((f[:, None] + g[None, :] - cost) / epsilon)
    if not np.isfinite(plan).all():
        raise NumericalError("numerical failure in sinkhorn: non-finite plan")
    plan = _round_to_marginals(plan, mu, nu)
    coupling = Coupling(matrix=plan, mu_row=mu, mu_col=nu, converged=converged)
    coupling.residual = coupling.marginal_residual()
    coupling.potentials = (f, g)
    return coupling


def _epsilon_schedule(cost: np.ndarray, target: float) -> list[float]:
    spread = float(cost.max() - cost.min())
    schedule: list[float] = []
    eps = spread / 2.0
    while eps > target * 1.000001:
        schedule.append(eps)
        eps /= 2.0
    schedule.append(target)
    return schedule


def _scale_loop(cost, eps, f, g, log_mu, log_nu, mu, cap) -> tuple[int, bool]:
    """Alternating updates at one epsilon; mutates f and g in place.

    Returns (iterations spent, converged). Iteration k > 0 first tests
    the row marginals (columns are exact after the previous g-update,
    so the row error is the full marginal violation), then updates f
    and g. The first iteration runs in the log domain, which is exact
    for any potentials. Later ones run on the scalings u = exp(df/eps),
    v = exp(dg/eps) of the potentials against the kernel
    K = exp((f + g - cost)/eps), formed once with the potentials
    absorbed and entries below _KERNEL_FLOOR flushed to 0: row sums
    are u o Kv, and the updates are u = mu/Kv, v = nu/K'u, two
    matrix-vector products per iteration. The scalings are absorbed
    into f and g on exit. An iteration whose new scalings exceed
    _SCALE_LIMIT (or are infinite: a row or column of the kernel
    underflowed) is discarded and redone in the log domain from the
    absorbed potentials, which re-centres the kernel. With both
    scalings positive and bounded, Kv and K'u stay finite, so u and v
    never reach 0 or NaN.
    """
    nu = np.exp(log_nu)
    iteration = 0
    while iteration < cap:
        row_lse = _logsumexp((g[None, :] - cost) / eps, axis=1)
        if iteration > 0:
            row_sums = np.exp(f / eps + row_lse)
            if np.abs(row_sums - mu).max() <= MARGINAL_TOL:
                return iteration, True
        f[:] = eps * (log_mu - row_lse)
        col_lse = _logsumexp((f[:, None] - cost) / eps, axis=0)
        g[:] = eps * (log_nu - col_lse)
        iteration += 1
        if iteration == cap:
            break
        kernel = np.exp((f[:, None] + g[None, :] - cost) / eps)
        kernel[kernel < _KERNEL_FLOOR] = 0.0
        u = np.ones_like(f)
        v = np.ones_like(g)
        converged = False
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while iteration < cap:
                kv = kernel @ v
                if np.abs(u * kv - mu).max() <= MARGINAL_TOL:
                    converged = True
                    break
                u_next = mu / kv
                v_next = nu / (u_next @ kernel)
                # An infinite u_next can make v_next NaN (inf * 0); both fail.
                if not (u_next.max() <= _SCALE_LIMIT and v_next.max() <= _SCALE_LIMIT):
                    break
                u, v = u_next, v_next
                iteration += 1
        f += eps * np.log(u)
        g += eps * np.log(v)
        if converged:
            return iteration, True
    return cap, False


def _round_to_marginals(plan: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Project an almost-feasible plan onto exact marginals.

    Scales overfull rows then columns down to their targets and restores
    the missing mass as a rank-one correction; perturbs the plan by at
    most the pre-projection marginal violation.
    """
    rows = plan.sum(axis=1)
    plan = plan * np.minimum(1.0, mu / np.where(rows > 0, rows, 1.0))[:, None]
    cols = plan.sum(axis=0)
    plan = plan * np.minimum(1.0, nu / np.where(cols > 0, cols, 1.0))[None, :]
    missing_rows = np.maximum(mu - plan.sum(axis=1), 0.0)
    missing_cols = np.maximum(nu - plan.sum(axis=0), 0.0)
    deficit = missing_rows.sum()
    if deficit > 0:
        plan = plan + np.outer(missing_rows, missing_cols) / deficit
    return plan


def _pair_terms(c1sq: np.ndarray, c2sq: np.ndarray, pi: np.ndarray):
    r = pi.sum(axis=1)
    s = pi.sum(axis=0)
    return c1sq @ r, c2sq @ s, r, s


def _structure_parts(c1, c2, c1sq, c2sq, pi):
    """(structure value, (C1 o C1) r, (C2 o C2) s, C1 pi C2) of a plan.

    The last three are what the gradient at pi is made of.
    """
    u, w, r, s = _pair_terms(c1sq, c2sq, pi)
    product = c1 @ pi @ c2
    value = float(r @ u + s @ w - 2.0 * np.tensordot(product, pi))
    return max(value, 0.0), u, w, product


def _gradient(u: np.ndarray, w: np.ndarray, product: np.ndarray) -> np.ndarray:
    return 2.0 * (u[:, None] + w[None, :]) - 4.0 * product


def structure_value(c1: np.ndarray, c2: np.ndarray, pi: np.ndarray) -> float:
    """Quadratic structural mismatch of a plan via the fast expansion.

    Equals sum_{i,j,k,l} |c1(i,k) - c2(j,l)|^2 pi(i,j) pi(k,l) exactly
    (up to float rounding) for any nonnegative pi.
    """
    _check_square(c1, c2, pi)
    return _structure_parts(c1, c2, c1 * c1, c2 * c2, pi)[0]


def gw_gradient(c1: np.ndarray, c2: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Gradient of the structural term at pi (exact, factor 2 included)."""
    _check_square(c1, c2, pi)
    u, w, _, _ = _pair_terms(c1 * c1, c2 * c2, pi)
    return _gradient(u, w, c1 @ pi @ c2)


def distortion_terms(
    plan: np.ndarray,
    d_source: np.ndarray,
    d_target: np.ndarray,
    feature_costs: np.ndarray,
) -> tuple[float, float]:
    """(structure, feature) mismatch terms of a plan, both >= 0."""
    if feature_costs.shape != plan.shape:
        raise InputError("feature cost shape does not match the coupling")
    structure = structure_value(d_source, d_target, plan)
    feature = max(float(np.tensordot(feature_costs, plan)), 0.0)
    return structure, feature


def fgw(
    d_source: np.ndarray,
    d_target: np.ndarray,
    feature_costs: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    config: SolverConfig | None = None,
) -> FgwResult:
    """Fused structural-feature coupling by conditional gradient.

    Starts from the independence plan mu nu', iterates Sinkhorn-solved
    linearizations with exact quadratic line search, and stops when the
    relative objective decrease drops below fw_tol. The objective is
    nonincreasing across outer iterations by construction; the history
    of unregularized objective values is returned for inspection.

    C1 o C1 and C2 o C2 are formed once per call, and each objective
    evaluation keeps the product C1 pi C2 and the pair terms, which give
    the next gradient and the final structure and feature terms, so an
    outer step makes two matrix products (objective, line search).
    """
    cfg = config or SolverConfig()
    lam = cfg.lambda_feat
    d_source = np.asarray(d_source, dtype=np.float64)
    d_target = np.asarray(d_target, dtype=np.float64)
    feature_costs = np.asarray(feature_costs, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    n, m = len(mu), len(nu)
    if d_source.shape != (n, n) or d_target.shape != (m, m):
        raise InputError("distance matrix shapes do not match the marginals")
    if feature_costs.shape != (n, m):
        raise InputError("feature cost shape does not match the marginals")

    c1sq, c2sq = d_source * d_source, d_target * d_target
    pi = np.outer(mu, nu)
    objective, feature, parts = _evaluate(
        d_source, d_target, c1sq, c2sq, feature_costs, pi, lam
    )
    history = [objective]
    converged = False
    inner_converged = True
    iterations = 0
    potentials = None

    for iterations in range(1, cfg.fw_iters + 1):
        grad = lam * feature_costs
        if lam < 1.0:
            grad = grad + (1.0 - lam) * _gradient(*parts[1:])
        if not np.isfinite(grad).all():
            raise NumericalError(
                f"numerical failure at outer iteration {iterations}: bad gradient"
            )
        inner = sinkhorn(
            grad, mu, nu, cfg.epsilon, cfg.sinkhorn_iters, potentials=potentials
        )
        inner_converged = inner_converged and inner.converged
        potentials = inner.potentials
        direction = inner.matrix
        delta = direction - pi

        # Exact line search: objective along pi + t*delta is quadratic
        # a t^2 + b t + const with the coefficients below.
        a = (1.0 - lam) * _quad_coeff(d_source, d_target, delta, c1sq, c2sq)
        b = float(np.tensordot(grad, delta))
        t = _argmin_quadratic_unit(a, b)
        if t == 0.0:
            converged = True
            break
        pi = pi + t * delta
        new_objective, feature, parts = _evaluate(
            d_source, d_target, c1sq, c2sq, feature_costs, pi, lam
        )
        if np.isnan(new_objective):
            raise NumericalError(
                f"numerical failure at outer iteration {iterations}: NaN objective"
            )
        history.append(new_objective)
        decrease = objective - new_objective
        objective = new_objective
        if decrease < cfg.fw_tol * max(abs(objective), 1.0):
            converged = True
            break

    # parts and feature belong to the last evaluated plan, which is pi.
    if parts is None:
        structure = structure_value(d_source, d_target, pi)
    else:
        structure = parts[0]
    feature = max(feature, 0.0)
    # Every iterate is a convex combination of the feasible start and
    # the inner solutions, so the residual is bounded by the worst inner
    # one; converged reflects whether all inner solves hit tolerance.
    coupling = Coupling(matrix=pi, mu_row=mu, mu_col=nu, converged=inner_converged)
    coupling.residual = coupling.marginal_residual()
    return FgwResult(
        coupling=coupling,
        distortion=(1.0 - lam) * structure + lam * feature,
        structure_term=structure,
        feature_term=feature,
        outer_iterations=iterations,
        converged=converged,
        history=history,
    )


def coupling_dump(pi: Coupling) -> dict:
    """Debug representation of a coupling for the CLI --debug dump."""
    return {
        "shape": list(pi.shape),
        "rows": pi.matrix.tolist(),
        "marginal_residual": pi.marginal_residual(),
    }


def _evaluate(c1, c2, c1sq, c2sq, feats, pi, lam):
    """(objective, raw feature term, _structure_parts or None at lam = 1)."""
    feature = float(np.tensordot(feats, pi))
    value = lam * feature
    parts = None
    if lam < 1.0:
        parts = _structure_parts(c1, c2, c1sq, c2sq, pi)
        value += (1.0 - lam) * parts[0]
    return value, feature, parts


def _quad_coeff(c1, c2, delta, c1sq, c2sq) -> float:
    # E(delta) with delta's own (signed) marginals; may be negative, in
    # which case the line search picks an endpoint.
    r = delta.sum(axis=1)
    s = delta.sum(axis=0)
    return float(r @ c1sq @ r + s @ c2sq @ s - 2.0 * np.tensordot(c1 @ delta @ c2, delta))


def _argmin_quadratic_unit(a: float, b: float) -> float:
    """Minimizer of a t^2 + b t over t in [0, 1]."""
    if a > 0.0:
        return float(min(1.0, max(0.0, -b / (2.0 * a))))
    return 1.0 if a + b < 0.0 else 0.0


def _check_square(c1: np.ndarray, c2: np.ndarray, pi: np.ndarray) -> None:
    n, m = pi.shape
    if c1.shape != (n, n) or c2.shape != (m, m):
        raise InputError(
            f"distance matrices {c1.shape}/{c2.shape} do not match plan {pi.shape}"
        )
