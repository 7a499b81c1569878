"""Entropic optimal transport and the fused structural-feature coupling.

The linear solver is Sinkhorn in the stabilized scaling form: each
epsilon stage starts a pass with one exact iteration from the
potentials, whose row log-sum-exp keeps its exponentials as the kernel
with the potentials absorbed (one N x M exponential per pass), then
iterates on scalings against that kernel (two matrix-vector products per
iteration) and opens a new pass whenever a scaling leaves a safe range
(Cuturi, NeurIPS 2013; Schmitzer, SIAM J. Sci. Comput. 2019). The
plan is the last kernel with its scalings applied. Where plain scaling
contracts slowly, the updates over-relax by a fixed factor, which keeps
the fixed point and contracts much faster (Thibault, Chizat, Dossal,
Papadakis, arXiv:1711.01851); a stalled stage returns to plain updates. Both
marginals are checked only where the contraction measured so far would
meet the tolerance, at most a few iterations apart, so an iteration
between checks is two products and two updates. The loop keeps its
scalings, products, targets, work vector and last checked pair in one
buffer each, rows then columns, allocated once per stage, so an
iteration allocates nothing and a check makes each reduction once over
both sides.
Every product is ``ndarray.dot``, which calls the same BLAS routine as
``@`` and gives the same bits: at the 40 x M problems of a refinement
step numpy's per-call dispatch, not the flops, sets the loop's time,
and ``dot`` dispatches in about half the time of the ``matmul`` ufunc.
The fused problem

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

The product C1 pi C2 is linear in pi, so the solver carries it across
outer steps: the line search's product C1 delta C2 of the step
direction delta is the only N^2 M-sized product of a step, and the
step pi + t delta moves the carried product by t times it. The start
plan mu nu' has the rank-one product (C1 mu)(C2' nu)'. A step builds
its gradient and the increments t delta and t C1 delta C2 in two N x M
buffers allocated once per solve, and moves the plan and the carried
product in place.

Reported distortion is the unregularized objective at the returned
coupling; the entropy term is a solver device, not part of the
distortion definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

MARGINAL_TOL = 1e-6
#: The Frank-Wolfe stop rule: at most FW_ITERS outer steps, and a stop once
#: a step lowers the objective by less than FW_TOL times max(|objective|, 1).
FW_ITERS = 50
FW_TOL = 1e-6
#: Upper bound on the Sinkhorn scalings between two absorptions, and the
#: kernel entries flushed to 0 when the kernel is formed (subnormal
#: operands slow every product they enter). A flushed entry would carry
#: at most _KERNEL_FLOOR * _SCALE_LIMIT**2 = 1e-50 of mass, far below
#: float precision on any marginal. Small scalings need no bound: they
#: only shrink entries.
_SCALE_LIMIT = 1e50
_KERNEL_FLOOR = 1e-150
#: Over-relaxation factor of the scaling updates (see _scale_loop). Of
#: 1.5-1.9, 1.7 took the fewest scaling iterations on the solves of a
#: seed-1 short-lectures round, where the slow solves are: a smaller
#: factor gains less on them, and a larger one slows the many moderately
#: slow solves, on which the rate cannot beat omega - 1.
_OMEGA = 1.7
#: Longest run of scaling iterations between two marginal checks. When a
#: check was six reductions and six elementwise operations it cost about
#: two over-relaxed iterations at 40 x 30; the joint buffers of
#: _scale_loop have since made it three and four (not re-timed). A
#: longer run saves checks on slow solves, a shorter one bounds the
#: overrun where the contraction speeds up after a check. Counting
#: iterations and checks, weighted by their timed cost, over the solves
#: of a seed-1 round of each perfbench workload, runs of 8 to 16 came
#: within 1% of each other, 6 cost 3% more and 4 12% more.
_CHECK_GAP = 8


@dataclass
class Coupling:
    """Transport plan with its prescribed marginals.

    Row sums match mu_row and column sums match mu_col within 1e-6 on
    every accepted solve; marginal_residual() computes the worst
    deviation actually achieved (no residual is stored).
    """

    matrix: np.ndarray
    mu_row: np.ndarray
    mu_col: np.ndarray
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_feat <= 1.0:
            raise InputError("lambda_feat must lie in [0, 1]")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.sinkhorn_iters < 1:
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
    exp((f + g - cost) / epsilon), taken from the last pass's kernel and
    scalings rather than exponentiated anew, so entries below
    _KERNEL_FLOOR are 0. Cold starts anneal the
    regularization from the cost scale down to the target epsilon
    (geometric halving, potentials carried across stages);
    near-boundary optima that take millions of plain updates converge
    in tens this way. ``potentials`` warm starts the duals
    instead, for callers solving a sequence of nearby problems; the
    final potentials are stashed on the returned coupling for reuse.

    The returned plan is rounded onto the marginal polytope (rows and
    columns scaled down, missing mass restored rank-one), so its
    marginals are exact to float precision regardless of convergence.
    ``converged`` reports whether the dual iteration brought rows and
    columns both within MARGINAL_TOL at the target epsilon within
    max_iters; when it is False the plan is feasible but may sit
    measurably off the entropic optimum.
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
    if max_iters < 1:
        raise InputError("iteration counts must be at least 1")

    log_mu = np.log(mu)
    log_nu = np.log(nu)
    if potentials is not None:
        f, g = (np.array(p, dtype=np.float64) for p in potentials)
        if f.shape != (n,) or g.shape != (m,):
            raise InputError("potential shapes do not match the cost matrix")
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise InputError("potentials have non-finite entries")
        schedule = [epsilon]
    else:
        f, g = np.zeros(n), np.zeros(m)
        schedule = _epsilon_schedule(cost, epsilon)
    budget = max_iters
    # A scaling update may divide by zero or overflow; the loop's range
    # test catches what that leaves (see _scale_loop), so the solve's
    # stages run under one errstate rather than one per pass.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for stage, eps in enumerate(schedule):
            final_stage = stage == len(schedule) - 1
            if final_stage:
                # The target epsilon always runs, so the returned potentials
                # match the requested regularization.
                cap = max(2, budget)
            else:
                # Early stages only need to roughly track the continuation path.
                cap = min(budget, max(16, max_iters // (4 * len(schedule))))
            spent, converged, plan = _scale_loop(cost, eps, f, g, log_mu, log_nu, mu, cap)
            budget -= spent
            if budget <= 0 and not final_stage:
                _, converged, plan = _scale_loop(cost, epsilon, f, g, log_mu, log_nu, mu, 2)
                break

    if not np.isfinite(plan).all():
        raise NumericalError("numerical failure in sinkhorn: non-finite plan")
    plan = _round_to_marginals(plan, mu, nu)
    return Coupling(matrix=plan, mu_row=mu, mu_col=nu, converged=converged,
                    potentials=(f, g))


def _epsilon_schedule(cost: np.ndarray, target: float) -> list[float]:
    spread = float(cost.max() - cost.min())
    schedule: list[float] = []
    eps = spread / 2.0
    while eps > target * 1.000001:
        schedule.append(eps)
        eps /= 2.0
    schedule.append(target)
    return schedule


def _scale_loop(cost, eps, f, g, log_mu, log_nu, mu, cap) -> tuple[int, bool, np.ndarray]:
    """Scaling iterations at one epsilon; mutates f and g in place.

    Returns (iterations spent, converged, plan). A pass starts with one
    exact iteration from the potentials (_open_pass), which also yields
    the kernel K = exp((f + g - cost)/eps) with the potentials absorbed
    and entries below _KERNEL_FLOOR flushed to 0, and iterates on the
    scalings u = exp(df/eps), v = exp(dg/eps):

        u <- u o (mu / (u o Kv))^omega,   v <- v o (nu / (v o K'u))^omega

    two matrix-vector products per iteration. omega = 1 is plain
    Sinkhorn (u = mu/Kv, v = nu/K'u). An omega in (1, 2) has the same
    fixed point and contracts much faster where plain Sinkhorn
    contracts by a factor close to 1 per iteration, but never by more
    than omega - 1 (Thibault et al., arXiv:1711.01851), and costs about
    twice the elementwise work. So a pass runs plain iterations until a
    check shows them contracting by less than omega - 1 per iteration
    since the previous check, and over-relaxes with omega = _OMEGA from
    then on. Over-relaxing from the first iteration would slow the
    stages that plain iterations finish in a few steps; on a long
    epsilon schedule those would run to their caps and leave the target
    stage short of max_iters. Once two consecutive checks bring no new
    best residual, the rest of the stage runs plain iterations, whose
    global convergence the over-relaxed ones do not share (Lehmann et
    al., Optim. Lett. 2022).

    A check tests both marginals, since with omega > 1 neither is exact
    after an update: rows u o Kv against mu (Kv is the next update's
    product) and columns v o K'u against nu (K'u is the last update's).
    ``converged`` means both were within MARGINAL_TOL at a check. A pass
    checks after 0 and 2 scaling iterations; each later check goes where
    the contraction per iteration measured between the last two checks
    would bring the residual to MARGINAL_TOL, at least 1 and at most
    _CHECK_GAP iterations on (_CHECK_GAP if the residual did not fall),
    and one runs at the cap. Gaps that ignore the rate (say doubling up
    to _CHECK_GAP) overrun a quickly converging stage by up to 7
    iterations, which on a long epsilon schedule uses up max_iters
    before the target stage. An iteration between two checks is the two
    products and the two updates.

    A check also tests that both scalings lie in (0, _SCALE_LIMIT]; a
    failure ends the pass, and a new one starts from the absorbed
    potentials, which re-centres the kernel. Finite positive scalings
    are absorbed as they are: beyond the limit a flushed kernel entry
    may have carried mass, but the next pass starts with an exact
    iteration from whatever potentials it gets, and only a
    check within the limit can report convergence. Going back to the
    last checked pair would make a far-off warm start, which needs a new
    pass every few dozen iterations, fall far behind plain iterations.
    An infinite, NaN or zero entry (a kernel row or column
    underflowed, or an update overflowed) sends the scalings back to
    the last checked pair; the discarded iterations count as spent. The
    scalings are absorbed into f and g whenever a pass ends. The last
    pass's kernel, scaled in its own buffer to u o K o v, is the plan
    exp((f + g - cost)/eps) of the returned potentials, up to the flushed
    entries.

    The stage allocates five buffers of length n + m, each a row part
    then a column part: the scalings u|v, the products Kv|K'u, the
    targets mu|nu, the work vector (a check's residual, an over-relaxed
    update's factor) and the last checked pair. u, v, Kv and the rest
    are views into them. A check is then one range test (min and max
    over u|v), one residual over both sides (multiply, subtract, abs,
    max) and one copy of u|v into the checked pair, which a failed range
    test copies back. The max over u|v is the larger of the two sides'
    maxima, so the check gives the same booleans and residual as one
    per side. Every product (``ndarray.dot``, the BLAS call ``@`` makes,
    with half its dispatch time), update and residual is written into
    the views with out=, in the same operations and order as the
    expressions above, so an iteration allocates nothing. At 40 x M an
    iteration's time is mostly numpy's per-call cost, so fewer calls,
    not fewer flops, make the loop faster.
    """
    n = len(f)
    # one buffer per quantity, rows then columns, so a check reduces each once
    scalings, products, work, checked = (np.empty(n + len(g)) for _ in range(4))
    targets = np.concatenate((mu, np.exp(log_nu)))
    u, v = scalings[:n], scalings[n:]
    kv, ktu = products[:n], products[n:]
    row_work, col_work = work[:n], work[n:]
    nu = targets[n:]
    omega = 1.0
    relax = True  # False for the rest of the stage after a stall
    best = np.inf
    stalls = 0
    iteration = 0
    while True:
        kernel = _open_pass(cost, eps, f, g, log_mu, log_nu, mu, nu)
        iteration += 1
        scalings.fill(1.0)
        kernel.sum(axis=0, out=ktu)
        checked.fill(1.0)
        last_residual, last_scaled = np.inf, 0  # the previous check of this pass
        scaled, next_check = 0, 0
        while True:
            kernel.dot(v, out=kv)
            if scaled == next_check or iteration == cap:
                # NaN fails every comparison, so it fails this test.
                low = scalings.min()
                if not (0.0 < low and scalings.max() <= _SCALE_LIMIT):
                    if not (0.0 < low and np.isfinite(scalings).all()):
                        np.copyto(scalings, checked)
                    converged = False
                    break
                np.multiply(scalings, products, out=work)
                work -= targets
                np.abs(work, out=work)
                residual = work.max()
                converged = residual <= MARGINAL_TOL
                if converged or iteration == cap:
                    break
                if residual < best:
                    rate_bound = (_OMEGA - 1.0) ** (scaled - last_scaled)
                    if relax and omega == 1.0 and residual > last_residual * rate_bound:
                        omega = _OMEGA
                    best, stalls = residual, 0
                else:
                    stalls += 1
                    if stalls == 2:
                        omega, relax = 1.0, False
                gap = 2 if scaled == 0 else _CHECK_GAP
                ratio = residual / last_residual  # 0 at the first check of a pass
                if 0.0 < ratio < 1.0:
                    # repeats of the last gap its contraction needs to meet the tolerance
                    need = math.log(MARGINAL_TOL / residual) / math.log(ratio)
                    gap = min(max(math.ceil(need * (scaled - last_scaled)), 1), _CHECK_GAP)
                np.copyto(checked, scalings)
                last_residual, last_scaled = residual, scaled
                next_check = scaled + gap
            if omega == 1.0:
                np.divide(mu, kv, out=u)
                u.dot(kernel, out=ktu)
                np.divide(nu, ktu, out=v)
            else:
                _relax(u, kv, mu, omega, row_work)
                u.dot(kernel, out=ktu)
                _relax(v, ktu, nu, omega, col_work)
            scaled += 1
            iteration += 1
        f += eps * np.log(u)
        g += eps * np.log(v)
        if converged or iteration == cap:
            kernel *= u[:, None]
            kernel *= v
            return iteration, converged, kernel


def _relax(scaling, product, target, omega, work) -> None:
    """scaling <- scaling o (target / (scaling o product))^omega, in place."""
    np.multiply(scaling, product, out=work)
    np.divide(target, work, out=work)
    np.power(work, omega, out=work)
    scaling *= work


def _open_pass(cost, eps, f, g, log_mu, log_nu, mu, nu) -> np.ndarray:
    """One exact Sinkhorn iteration from the potentials; sets f and g in
    place and returns the kernel exp((f + g - cost)/eps) of the result,
    entries below _KERNEL_FLOOR flushed to 0.

    The row step is a log-sum-exp whose exponentials are kept:
    E = exp((g - cost)/eps - rowmax) and f = eps (log mu - rowmax -
    log rowsum E), the ops of _logsumexp, and E o (mu / rowsum E) is the
    kernel with the new f absorbed. The column step then scales that
    kernel's columns to nu and moves g by the same factor in the log
    domain. Every row of E holds a 1, but a column of the kernel may
    underflow: where a column sum is below _KERNEL_FLOOR, entries that
    lost precision could carry mass once scaled, so the column step is
    taken in the log domain and the kernel exponentiated anew.
    """
    kernel = g[None, :] - cost
    kernel /= eps
    top = kernel.max(axis=1)
    kernel -= top[:, None]
    np.exp(kernel, out=kernel)
    rows = kernel.sum(axis=1)
    lse = np.log(rows)
    lse += top
    np.subtract(log_mu, lse, out=f)
    f *= eps
    np.divide(mu, rows, out=rows)
    kernel *= rows[:, None]
    cols = kernel.sum(axis=0)
    if cols.min() < _KERNEL_FLOOR:
        col_lse = _logsumexp((f[:, None] - cost) / eps, axis=0)
        g[:] = eps * (log_nu - col_lse)
        kernel = np.exp((f[:, None] + g[None, :] - cost) / eps)
    else:
        g += eps * (log_nu - np.log(cols))
        kernel *= nu / cols
    np.putmask(kernel, kernel < _KERNEL_FLOOR, 0.0)
    return kernel


def _round_to_marginals(plan: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Project an almost-feasible plan onto exact marginals, in place.

    Scales overfull rows then columns down to their targets and restores
    the missing mass as a rank-one correction; perturbs the plan by at
    most the pre-projection marginal violation. Returns the plan.
    """
    rows = plan.sum(axis=1)
    np.putmask(rows, rows <= 0.0, 1.0)
    np.divide(mu, rows, out=rows)
    plan *= np.minimum(rows, 1.0, out=rows)[:, None]
    cols = plan.sum(axis=0)
    np.putmask(cols, cols <= 0.0, 1.0)
    np.divide(nu, cols, out=cols)
    plan *= np.minimum(cols, 1.0, out=cols)
    missing_rows = np.subtract(mu, plan.sum(axis=1, out=rows), out=rows)
    np.maximum(missing_rows, 0.0, out=missing_rows)
    missing_cols = np.subtract(nu, plan.sum(axis=0, out=cols), out=cols)
    np.maximum(missing_cols, 0.0, out=missing_cols)
    deficit = missing_rows.sum()
    if deficit > 0:
        correction = np.outer(missing_rows, missing_cols)
        correction /= deficit
        plan += correction
    return plan


def _pair_terms(c1sq: np.ndarray, c2sq: np.ndarray, pi: np.ndarray):
    r = pi.sum(axis=1)
    s = pi.sum(axis=0)
    return c1sq.dot(r), c2sq.dot(s), r, s


def _structure_parts(c1sq, c2sq, pi, product):
    """(structure value, (C1 o C1) r, (C2 o C2) s) of a plan, given its
    product C1 pi C2.

    The last two, with the product, are what the gradient at pi is made of.
    """
    u, w, r, s = _pair_terms(c1sq, c2sq, pi)
    value = float(r.dot(u) + s.dot(w) - 2.0 * np.vdot(product, pi))
    return max(value, 0.0), u, w


def _gradient(u, w, product, out=None, scratch=None) -> np.ndarray:
    """2 (u_i + w_j) - 4 product(i,j), written into ``out`` with 4 product
    in ``scratch`` when they are given."""
    out = np.add(u[:, None], w[None, :], out=out)
    out *= 2.0
    out -= np.multiply(product, 4.0, out=scratch)
    return out


def structure_value(c1: np.ndarray, c2: np.ndarray, pi: np.ndarray) -> float:
    """Quadratic structural mismatch of a plan via the fast expansion.

    Equals sum_{i,j,k,l} |c1(i,k) - c2(j,l)|^2 pi(i,j) pi(k,l) exactly
    (up to float rounding) for any nonnegative pi.
    """
    _check_square(c1, c2, pi)
    return _structure_parts(c1 * c1, c2 * c2, pi, c1.dot(pi).dot(c2))[0]


def gw_gradient(c1: np.ndarray, c2: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Gradient of the structural term at pi (exact, factor 2 included)."""
    _check_square(c1, c2, pi)
    u, w, _, _ = _pair_terms(c1 * c1, c2 * c2, pi)
    return _gradient(u, w, c1.dot(pi).dot(c2))


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
    linearizations with exact quadratic line search, and stops after
    FW_ITERS outer steps or once the relative objective decrease drops
    below FW_TOL. The objective is nonincreasing across outer iterations
    by construction; the history of unregularized objective values is
    returned for inspection.

    C1 o C1, C2 o C2 and lam * feature_costs are formed once per call.
    The product C1 pi C2 is carried across steps (see the module
    docstring): the start plan's is rank-one, and the line search's
    product C1 delta C2 both gives the step's quadratic coefficient and
    moves the carried one, so an outer step makes one matrix product. The
    carried product, with the pair terms, gives each gradient and the
    final structure term, at every lam: at lam = 1 the structural part
    of the gradient and of the line search is weighted by 0, so the
    steps are those of the feature term alone. Each gradient is built in
    one reused N x M buffer; the direction becomes delta in place, and
    t delta and t C1 delta C2 are formed in a second one and added to pi
    and the carried product in place.
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
    lam_costs = lam * feature_costs
    pi = np.outer(mu, nu)
    product = np.outer(d_source.dot(mu), nu.dot(d_target))
    grad, scratch = np.empty((n, m)), np.empty((n, m))
    objective, feature, parts = _evaluate(c1sq, c2sq, feature_costs, pi, product, lam)
    history = [objective]
    converged = False
    inner_converged = True
    iterations = 0
    potentials = None

    for iterations in range(1, FW_ITERS + 1):
        _gradient(*parts[1:], product, out=grad, scratch=scratch)
        grad *= 1.0 - lam
        grad += lam_costs
        # sinkhorn's input check is the one scan of the gradient; a
        # non-finite gradient is this solve's numerical failure
        try:
            inner = sinkhorn(
                grad, mu, nu, cfg.epsilon, cfg.sinkhorn_iters, potentials=potentials
            )
        except InputError:
            if np.isfinite(grad).all():
                raise
            raise NumericalError(
                f"numerical failure at outer iteration {iterations}: bad gradient"
            ) from None
        inner_converged = inner_converged and inner.converged
        potentials = inner.potentials
        delta = inner.matrix
        delta -= pi

        # Exact line search: objective along pi + t*delta is quadratic
        # a t^2 + b t + const with the coefficients below.
        quad, step_product = _quad_coeff(d_source, d_target, delta, c1sq, c2sq)
        a = (1.0 - lam) * quad
        b = float(np.vdot(grad, delta))
        t = _argmin_quadratic_unit(a, b)
        if t == 0.0:
            converged = True
            break
        pi += np.multiply(delta, t, out=scratch)
        product += np.multiply(step_product, t, out=scratch)
        new_objective, feature, parts = _evaluate(
            c1sq, c2sq, feature_costs, pi, product, lam
        )
        if np.isnan(new_objective):
            raise NumericalError(
                f"numerical failure at outer iteration {iterations}: NaN objective"
            )
        history.append(new_objective)
        decrease = objective - new_objective
        objective = new_objective
        if decrease < FW_TOL * max(abs(objective), 1.0):
            converged = True
            break

    # parts and feature belong to the last evaluated plan, which is pi.
    structure = parts[0]
    feature = max(feature, 0.0)
    # Every iterate is a convex combination of the feasible start and
    # the inner solutions, so the residual is bounded by the worst inner
    # one; converged reflects whether all inner solves hit tolerance.
    return FgwResult(
        coupling=Coupling(matrix=pi, mu_row=mu, mu_col=nu, converged=inner_converged),
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


def _evaluate(c1sq, c2sq, feats, pi, product, lam):
    """(objective, raw feature term, _structure_parts), given the product
    C1 pi C2."""
    feature = float(np.vdot(feats, pi))
    parts = _structure_parts(c1sq, c2sq, pi, product)
    return lam * feature + (1.0 - lam) * parts[0], feature, parts


def _quad_coeff(c1, c2, delta, c1sq, c2sq) -> tuple[float, np.ndarray]:
    """(E(delta), C1 delta C2): the line search's quadratic coefficient,
    with delta's own (signed) marginals, and the product it is made of.

    The coefficient may be negative, in which case the line search picks
    an endpoint.
    """
    r = delta.sum(axis=1)
    s = delta.sum(axis=0)
    product = c1.dot(delta).dot(c2)
    value = r.dot(c1sq).dot(r) + s.dot(c2sq).dot(s) - 2.0 * np.vdot(product, delta)
    return float(value), product


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
