"""Theoretical step-size bound evaluation and certification.

The convergence guarantees of the two solver families hold when the local
step size stays below the minimum of a family of closed-form bound expressions:
indices 1-7 for the mini-batch solver, indices 1 and 8-17 for the
variance-reduced one.  The expressions combine the smoothness constant, the
penalty, the local step count, the graph's extreme nonzero Laplacian
eigenvalues, the dataset balance ratio, and the operator norm of the inverse
of a block eigenvector matrix assembled per Laplacian eigenvalue.

Because that eigenvector matrix itself contains the candidate step size, the
bounds with indices 5-7 and 14-17 are implicit in gamma.  The checker
therefore evaluates everything *at the candidate* and reports a certified /
not-certified verdict rather than solving for the largest admissible value;
``ltadmm certify`` over a ``[sweep] gamma`` axis checks several candidates.

Two expressions are implemented verbatim despite looking suspicious (an
inner ``max`` in bound 7, a mixed-units ``L^3/N`` term in bound 12); the
report flags them.  The bounds are known to be conservative: failing
certification does not predict empirical divergence.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .algorithms import RunConfig
from .graph import SpectralInfo, Topology, spectral_quantities
from .problems import ProblemInstance, smoothness_constant

__all__ = [
    "BoundContext",
    "BoundReport",
    "CertificationReport",
    "StepSizePreconditionError",
    "IllConditionedBlockError",
    "eigenvector_block",
    "build_v_hat_inverse_norm",
    "evaluate_bounds",
    "certified_run_check",
]

_SGD_INDICES = (1, 2, 3, 4, 5, 6, 7)
_SARAH_INDICES = (1, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)

_CONDITION_LIMIT = 1e12

_NOTES = (
    "bound 7 takes the larger of its two terms, kept verbatim",
    "bound 12 contains an L^3/N term of mixed units, implemented verbatim",
)


class StepSizePreconditionError(ValueError):
    """gamma*rho*tau times the largest Laplacian eigenvalue reached 2.

    The block eigenvector construction requires
    ``gamma * rho * tau * lambda < 2`` for every nonzero Laplacian
    eigenvalue; this is the same condition as bound 1.
    """


class IllConditionedBlockError(ValueError):
    """A block eigenvector matrix is numerically singular."""

    def __init__(self, eigenvalue: float, condition: float):
        self.eigenvalue = eigenvalue
        self.condition = condition
        super().__init__(
            f"block for Laplacian eigenvalue {eigenvalue:.6g} is ill-conditioned "
            f"(condition number {condition:.3g} > {_CONDITION_LIMIT:.0e})"
        )


def eigenvector_block(lam: float, rho: float, tau: int, gamma: float) -> np.ndarray:
    """3x3 eigenvector matrix of the per-eigenvalue iteration block.

    ``lam`` is one (negative) eigenvalue of the negated-Laplacian
    restriction.  The columns are eigenvectors of the block

        [[1, gamma*tau, 0], [rho*lam, rho*lam*gamma*tau + 1/2, -1/2],
         [0, -1/2, 1/2]]

    which the tests verify directly.  On the admissible range the radicand
    is negative and the last two columns are complex conjugates.
    """
    gt = gamma * tau
    product = gamma * lam * rho * tau
    root = np.sqrt(complex(product * (product + 2.0)))
    d12 = -gt + root / (lam * rho)
    d13 = -gt - root / (lam * rho)
    d22 = lam * rho * d12 - 1.0
    d23 = lam * rho * d13 - 1.0
    return np.array(
        [
            [-gt, d12, d13],
            [1.0, d22, d23],
            [1.0, 1.0, 1.0],
        ],
        dtype=complex,
    )


def build_v_hat_inverse_norm(
    spectral: SpectralInfo, rho: float, tau: int, gamma: float
) -> float:
    """Operator norm of the inverse block eigenvector matrix at ``gamma``.

    One 3x3 block is assembled per nonzero Laplacian eigenvalue; its
    off-diagonal entries involve the square root of
    ``p * (p + 2)`` with ``p = -gamma * rho * tau * lambda``, which is
    negative on the admissible range, so the blocks are complex and the norm
    is taken over the complex field.  Orthogonal outer factors do not change
    the norm, so it equals the largest block-inverse norm.

    Raises:
        StepSizePreconditionError: if ``gamma * rho * tau * lambda >= 2`` for
            some eigenvalue.
        IllConditionedBlockError: if a block's condition number exceeds 1e12
            (this happens in the gamma -> 0 limit, where the blocks become
            singular).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    worst = 0.0
    for mu in spectral.nonzero_eigenvalues:
        lam = -float(mu)  # eigenvalue of the negated Laplacian restriction
        product = gamma * lam * rho * tau
        if product <= -2.0:
            raise StepSizePreconditionError(
                f"gamma*rho*tau*{mu:.6g} = {-product:.6g} >= 2; bound 1 is violated"
            )
        block = eigenvector_block(lam, rho, tau, gamma)
        singular_values = np.linalg.svd(block, compute_uv=False)
        smallest = singular_values[-1]
        if smallest == 0.0 or singular_values[0] / smallest > _CONDITION_LIMIT:
            condition = math.inf if smallest == 0.0 else float(singular_values[0] / smallest)
            raise IllConditionedBlockError(float(mu), condition)
        worst = max(worst, 1.0 / float(smallest))
    return worst


@dataclass(frozen=True)
class BoundContext:
    """Everything the bound expressions consume, evaluated for one candidate.

    ``v_inv_norm`` must be the block-inverse norm evaluated at
    ``gamma_candidate`` (see :func:`build_v_hat_inverse_norm`).
    """

    L: float
    rho: float
    tau: int
    gamma_candidate: float
    d_u: int
    lambda_tilde_min_abs: float
    lambda_tilde_max_abs: float
    m_l: int
    m_u: int
    num_agents: int
    v_inv_norm: float

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in astuple(self)):  # NaN too
            raise ValueError("all context quantities must be positive and finite")
        if self.m_l > self.m_u:
            raise ValueError("m_l must not exceed m_u")


@dataclass(frozen=True)
class BoundReport:
    """All seventeen bound values plus the per-regime minima and verdicts."""

    gamma_candidate: float
    gamma_bars: dict[int, float]
    constants: dict[str, float]
    gamma_bar_sgd: float
    gamma_bar_sarah: float
    sgd_satisfied: bool
    sarah_satisfied: bool
    binding_sgd: int
    binding_sarah: int
    notes: tuple[str, ...] = _NOTES


def evaluate_bounds(ctx: BoundContext) -> BoundReport:
    """Evaluate every bound expression at the candidate and take the minima.

    The named constants shared by the expressions are reported with them.
    Bounds that degenerate at ``tau = 1`` (square roots of ``tau - 1``)
    evaluate to infinity and never bind.  Each regime's minimum is the bound
    at its binding index, and satisfaction is a strict comparison of the
    candidate against it.
    """
    L, rho, tau = ctx.L, float(ctx.rho), float(ctx.tau)
    du2 = float(ctx.d_u) ** 2
    lam = ctx.lambda_tilde_max_abs
    ln2 = ctx.lambda_tilde_min_abs**2
    v2 = ctx.v_inv_norm**2
    n = float(ctx.num_agents)
    mu_ratio = ctx.m_u / ctx.m_l

    # the named constants shared by the bound expressions, kept verbatim
    kappa_1 = 72.0 * tau / (lam * rho) + (18.0 + 36.0 * tau * rho**2 * du2 / (lam * rho)) * 16.0 * tau**2
    beta_0 = 4.0 * (1.0 + 2.0 * rho**2 * ln2) * v2 * (L**2 + rho**2 * du2) + 12.0 * L**2 * v2 * rho**2 * du2
    beta_1 = (
        (1.0 + 2.0 * rho**2 * ln2) * v2 * tau * rho * du2 * 72.0 / lam
        + L**2 * v2 * 18.0 * rho * du2 * tau * 216.0 / lam
    )
    kappa_4 = (8.0 / n) * (
        kappa_1 * (L**2 / 2.0 + 2.0 * L * rho**2 * du2 * tau + 2.0 * rho**2 * du2)
        + (2.0 * tau / (lam * rho)) * (18.0 * rho**2 * du2 + 18.0 * rho**2 * du2 * tau * L)
    )
    s0 = 36.0 * ctx.m_u / (lam * rho) + 16.0 * mu_ratio * (18.0 + 36.0 * tau * rho**2 * du2 / (lam * rho))
    s1 = kappa_1 * 4.0 * mu_ratio
    s2 = 64.0 * mu_ratio * tau**2 * n + 16.0 * mu_ratio * n
    beta_t0 = (1.0 + 2.0 * rho**2 * ln2) * v2 * 4.0 * (3.0 * L**2 + rho**2 * du2) + 6.0 * L**2 * v2 * (
        2.0 * rho**2 * du2 + 4.0 * L**2
    )
    beta_t1 = beta_1
    beta_t3 = (1.0 + 2.0 * rho**2 * ln2) * v2 * 8.0 * L**2 + 6.0 * L**2 * v2 * 4.0 * L**2
    alpha_0 = L**2 / (2.0 * n) + (2.0 * L * rho**2 * du2 * tau + 2.0 * rho**2 * du2 + 4.0 * tau * L**3) / n
    alpha_1 = 72.0 * tau**2 / (lam * rho) + (18.0 + 36.0 * tau * rho**2 * du2 / (lam * rho)) * 16.0 * tau**3
    alpha_5 = (36.0 * rho * du2 * tau**2 + 36.0 * rho * du2 * tau**3 * L) / (n * lam)
    mu = 32.0 * (
        alpha_5
        + alpha_0 * alpha_1
        + 2.0 * (48.0 * tau**2 * L**2 * alpha_0 + 4.0 * tau * L**3 / n) * (s0 + s1)
    )
    constants = {
        "beta_0": beta_0,
        "beta_1": beta_1,
        "kappa_1": kappa_1,
        "kappa_4": kappa_4,
        "s_tilde_0": s0,
        "s_tilde_1": s1,
        "s_tilde_2": s2,
        "beta_tilde_0": beta_t0,
        "beta_tilde_1": beta_t1,
        "beta_tilde_3": beta_t3,
        "alpha_0": alpha_0,
        "alpha_1": alpha_1,
        "alpha_5": alpha_5,
        "mu": mu,
    }

    bars: dict[int, float] = {}
    bars[1] = min(1.0, 2.0 / (ctx.lambda_tilde_min_abs * rho * tau))
    bars[2] = (
        1.0 / (4.0 * math.sqrt(tau * (tau - 1.0) * (L**2 + rho**2 * du2)))
        if tau > 1
        else math.inf
    )
    bars[3] = 3.0 / (16.0 * L * tau)
    bars[4] = 1.0 / (8.0 * tau * math.sqrt(L**2 + 4.0 * L * rho**2 * du2 * tau + 4.0 * rho**2 * du2))
    denom_56 = beta_0 * kappa_1 + beta_1
    bars[5] = lam**2 * rho**2 / (4.0 * denom_56)
    bars[6] = lam**2 * rho**2 / (8.0 * denom_56)
    bars[7] = max(
        lam**2 * rho**2 / (256.0 * kappa_4 * tau**2 * n * beta_0),
        lam**2 * rho**2 * tau**2 / (48.0 * L**2 * v2 * n),
    )
    bars[8] = ctx.m_l / (8.0 * L**2 * ctx.m_u)
    bars[9] = min(1.0 / (2.0 * (4.0 * L**2 + 2.0 * rho**2 * du2)), 0.5)
    bars[10] = math.sqrt(ctx.m_l) / (tau * L * math.sqrt(384.0 * ctx.m_u))
    bars[11] = (
        1.0 / (2.0 * math.sqrt(6.0 * tau * (tau - 1.0) * (3.0 * L**2 + rho**2 * du2)))
        if tau > 1
        else math.inf
    )
    bars[12] = 1.0 / (8.0 * math.sqrt(2.0 * alpha_0 * tau**2 * n + (12.0 * alpha_0 * tau * L**2 + L**3 / n) * s2))
    bars[13] = 3.0 / (16.0 * L * tau)
    denom_1415 = beta_t0 * kappa_1 + beta_t1 + (96.0 * tau**2 * L**2 * beta_t0 + 2.0 * beta_t3) * (s0 + s1)
    bars[14] = lam**2 * rho**2 / (4.0 * denom_1415)
    bars[15] = lam**2 * rho**2 / (8.0 * denom_1415)
    bars[16] = (
        24.0 * L**2 * v2 * n / (32.0 * tau**2 * n * beta_t0 + 192.0 * s2 * tau**2 * L**2 * beta_t0 + 4.0 * s2 * beta_t3)
    )
    bars[17] = lam**2 * rho / (48.0 * mu * L**2 * v2 * n)

    binding_sgd = min(_SGD_INDICES, key=bars.__getitem__)
    binding_sarah = min(_SARAH_INDICES, key=bars.__getitem__)
    return BoundReport(
        gamma_candidate=ctx.gamma_candidate,
        gamma_bars=bars,
        constants=constants,
        gamma_bar_sgd=bars[binding_sgd],
        gamma_bar_sarah=bars[binding_sarah],
        sgd_satisfied=ctx.gamma_candidate < bars[binding_sgd],
        sarah_satisfied=ctx.gamma_candidate < bars[binding_sarah],
        binding_sgd=binding_sgd,
        binding_sarah=binding_sarah,
    )


@dataclass(frozen=True)
class CertificationReport:
    """Verdict for one configured run plus the full bound report when available."""

    regime: str
    certified: bool
    binding_bound: int | None
    bound_value: float | None
    findings: tuple[str, ...]
    report: BoundReport | None = None


def make_context(
    instance: ProblemInstance,
    topology: Topology,
    rho: float,
    tau: int,
    gamma: float,
) -> BoundContext:
    """Assemble a bound context from problem, topology, and candidate."""
    spectral = spectral_quantities(topology)
    v_inv = build_v_hat_inverse_norm(spectral, rho, tau, gamma)
    return BoundContext(
        L=smoothness_constant(instance),
        rho=rho,
        tau=tau,
        gamma_candidate=gamma,
        d_u=spectral.max_degree,
        lambda_tilde_min_abs=spectral.lambda_tilde_min_abs,
        lambda_tilde_max_abs=spectral.lambda_tilde_max_abs,
        m_l=instance.min_points,
        m_u=instance.max_points,
        num_agents=instance.num_agents,
        v_inv_norm=v_inv,
    )


def certified_run_check(
    instance: ProblemInstance, topology: Topology, config: RunConfig
) -> CertificationReport:
    """Check whether the configured step size is theoretically certified.

    Errors from the block construction are carried as findings in the report
    (not raised): a candidate outside the admissible domain is simply not
    certified, and neither is a one-agent topology, whose Laplacian has no
    nonzero eigenvalue for the bounds to use.
    """
    regime = "sarah" if config.variant in ("lt_admm_vr", "lt_admm_vr_v2") else "sgd"
    if topology.num_agents == 1:
        finding = "one agent has no disagreement subspace, so the bounds do not apply"
        binding = None
    else:
        try:
            ctx = make_context(instance, topology, config.rho, config.tau, config.gamma)
        except (StepSizePreconditionError, IllConditionedBlockError) as err:
            finding = str(err)
            binding = 1 if isinstance(err, StepSizePreconditionError) else None
        else:
            report = evaluate_bounds(ctx)
            binding = report.binding_sarah if regime == "sarah" else report.binding_sgd
            bound_value = report.gamma_bars[binding]
            return CertificationReport(
                regime=regime,
                certified=report.gamma_candidate < bound_value,
                binding_bound=binding,
                bound_value=bound_value,
                findings=(),
                report=report,
            )
    return CertificationReport(
        regime=regime,
        certified=False,
        binding_bound=binding,
        bound_value=None,
        findings=(finding,),
    )
