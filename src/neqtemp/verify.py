"""Named invariant suites backing ``neqtemp verify`` and the test battery.

Each suite draws deterministic instances from a seeded generator, evaluates
one family of invariants and reports pass/fail counts together with the
worst residual seen. Output is a pure function of (seed, count), so repeated
runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import complete_basis, expand_state, hamiltonian_unit, rotate_tail
from .exceptions import ValidationError
from .linalg import (
    DensityMatrix, HermitianOperator, _dimension, eig_hermitian, matrix_log, tensor_product,
)
from .models import (
    TwoQubitXYParams,
    _gibbs_state,
    build_two_qubit_xy,
    closed_form,
    gue_sample,
    sample_gibbs,
    sample_inverted_pair,
    sample_passive_pair,
    sample_full_rank,
)
from .relation import verify_universal_relation
from .thermometry import (
    generalized_gibbs_decomposition,
    heat_and_work,
    inverse_temperature,
    reconstruct_generalized_gibbs,
    von_neumann_entropy,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_suites", "format_results"]

#: The two-qubit reference grid used by the relation suite and the tests.
GRID = [
    TwoQubitXYParams(omega_S=ws, omega_B=wb, lam=lam, beta=beta)
    for beta in (0.2, 1.0, 5.0)
    for lam in (0.05, 0.2, 1.0)
    for (ws, wb) in ((2.0, 1.0), (1.0, 1.0), (5.0, 0.5))
]


@dataclass
class SuiteResult:
    """Outcome of one suite: check count, failures and worst residuals."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    worst: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, label: str, value: float, bound: float, detail: str = "") -> None:
        self.checks += 1
        if value > self.worst.get(label, -math.inf):
            self.worst[label] = value
        if not (value <= bound):
            self.failures.append(f"{label} = {value:.6e} exceeds {bound:.1e} {detail}".rstrip())

    def require(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)


def suite_gibbs(seed: int, count: int) -> SuiteResult:
    """Gibbs consistency: beta-hat recovers beta on random thermal states."""
    res = SuiteResult("gibbs")
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 5
        beta = 0.0
        while abs(beta) < 0.05:
            beta = rng.uniform(-3.0, 3.0)
        h, rho = sample_gibbs(d, beta, rng)
        err = abs(inverse_temperature(rho, h).beta - beta)
        res.record("|beta_hat - beta|", err, 1e-9, f"(d={d}, beta={beta:.3f})")
    return res


def suite_passivity(seed: int, count: int) -> SuiteResult:
    """Passive states have beta >= 0; inverted states can go negative."""
    res = SuiteResult("passivity")
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 4
        h, rho = sample_passive_pair(d, rng)
        beta = inverse_temperature(rho, h).beta
        res.record("-beta (passive)", -beta, 1e-12, f"(d={d})")
    saw_negative = False
    for i in range(count):
        d = 2 + i % 4
        h, rho = sample_inverted_pair(d, rng)
        if inverse_temperature(rho, h).beta < 0.0:
            saw_negative = True
    res.require(saw_negative, "no population-inverted sample produced beta < 0")
    return res


def suite_basis_invariance(seed: int, count: int) -> SuiteResult:
    """Over a tail-rotated basis the generalized-Gibbs form still rebuilds rho,
    and the Helmholtz tail sum is invariant under the rotation."""
    res = SuiteResult("basis-invariance")
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 3
        h = gue_sample(d, rng)
        rho = sample_full_rank(d, rng)
        basis = complete_basis(d, [hamiltonian_unit(h)[0]])
        n = d * d - 2
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = rotate_tail(basis, q)
        rebuilt = reconstruct_generalized_gibbs(generalized_gibbs_decomposition(rho, h, rotated), h, rotated)
        res.record(
            "|generalized-Gibbs rebuild - rho|",
            float(np.max(np.abs(rebuilt - rho.matrix))),
            1e-10,
            f"(d={d})",
        )
        logr = matrix_log(rho, 1e-12).operator

        def tail_sum(b):
            return float(b.coordinates(logr)[2:] @ expand_state(rho, b).x[2:])

        res.record(
            "|Helmholtz tail shift|",
            abs(tail_sum(basis) - tail_sum(rotated)),
            1e-10,
            f"(d={d})",
        )
    return res


def suite_extension(seed: int, count: int) -> SuiteResult:
    """Trivial extension rho x I/d', H x I leaves beta unchanged."""
    res = SuiteResult("extension")
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 3
        h = gue_sample(d, rng)
        rho = sample_full_rank(d, rng)
        beta = inverse_temperature(rho, h).beta
        for dp in (2, 3):
            rho_ext = DensityMatrix(tensor_product(rho.matrix, np.eye(dp) / dp))
            h_ext = HermitianOperator._of_computed(tensor_product(h, np.eye(dp)))
            err = abs(inverse_temperature(rho_ext, h_ext).beta - beta)
            res.record("|beta extension shift|", err, 1e-10, f"(d={d}, d'={dp})")
    return res


def suite_relation(seed: int, count: int) -> SuiteResult:
    """Two-qubit Gibbs states: relation residual, tilde and chi temperatures, at the first
    ``count`` grid points, then count - 27 seeded points uniform in the grid's parameter box."""
    res = SuiteResult("relation")
    rng = np.random.default_rng(seed)
    span = np.array([[p.omega_S, p.omega_B, p.lam, p.beta] for p in GRID])
    extra = [TwoQubitXYParams(*map(float, rng.uniform(span.min(0), span.max(0))))
             for _ in range(count - len(GRID))]
    for p in GRID[: max(count, 0)] + extra:
        sys = build_two_qubit_xy(p)
        rel = verify_universal_relation(sys)
        bound = 1e-8 * max(abs(rel.K_SB * p.beta), 1.0)
        res.record("|relation residual|", abs(rel.residual), bound, f"(beta={p.beta}, lam={p.lam})")
        res.record("|beta_SB - beta|", abs(rel.beta_SB - p.beta), 1e-9)
        res.record("|beta_tilde_S - beta|", abs(rel.beta_tilde_S - p.beta), 1e-9)
        res.record("|beta_tilde_B - beta|", abs(rel.beta_tilde_B - p.beta), 1e-9)
        res.record("|beta_chi + beta|", abs(rel.beta_chi + p.beta), 1e-9)
        res.record(
            "|K_SB - b_S - b_B - K_chi|",
            abs(rel.K_SB - rel.b_S - rel.b_B - rel.K_chi),
            1e-12,
        )
        cf = closed_form(p)
        res.record("|beta_S closed - numeric|", abs(cf.beta_S - rel.local_S.beta), 1e-10)
    return res


def suite_heat(seed: int, count: int) -> SuiteResult:
    """Entropic-heat route: dS/dQ_ev matches beta at first order in step.

    Paths relax inside the Gibbs family of a fixed random Hamiltonian,
    beta(t) moving linearly between two random values; forward differences
    converge to the closed-form beta with O(step) error, so the error ratio
    between steps 1e-3 and 1e-4 sits near 10.
    """
    res = SuiteResult("heat")
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 3
        h = gue_sample(d, rng)
        spec = eig_hermitian(h)
        b0, b1 = sorted(rng.uniform(0.3, 2.0, size=2))
        if b1 - b0 < 0.2:
            b1 = b0 + 0.2
        t0 = 0.5

        def beta_at(t):
            return b0 + (b1 - b0) * t

        rho0 = _gibbs_state(spec, beta_at(t0))
        beta_hat = inverse_temperature(rho0, h).beta
        errs = []
        for step in (1e-3, 1e-4):
            rho1 = _gibbs_state(spec, beta_at(t0 + step))
            drho = HermitianOperator._of_computed(rho1.matrix - rho0.matrix)
            hw = heat_and_work(rho0, drho, h, HermitianOperator(np.zeros((d, d))))
            ds = von_neumann_entropy(rho1) - von_neumann_entropy(rho0)
            errs.append(abs(ds / hw.entropic_heat - beta_hat))
        ratio = errs[0] / errs[1]
        res.require(
            5.0 <= ratio <= 20.0,
            f"heat-route error ratio {ratio:.3f} outside [5, 20] (d={d}, path {i})",
        )
        res.record("heat-route error at 1e-4", errs[1], 1e-2, f"(d={d})")
    return res


SUITES = {
    "gibbs": (suite_gibbs, 100),
    "passivity": (suite_passivity, 1000),
    "basis-invariance": (suite_basis_invariance, 100),
    "extension": (suite_extension, 100),
    "relation": (suite_relation, 27),
    "heat": (suite_heat, 20),
}


def run_suite(name: str, seed: int, count: int | None = None) -> SuiteResult:
    """Run one named suite at a seed of at least 0; ``count`` (at least 1) defaults per suite."""
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}"
        )
    fn, default_count = SUITES[name]
    seed = _dimension(seed, 0, f"seed must be an integer of at least 0, got {seed!r}")
    if count is not None:
        count = _dimension(count, 1, f"count must be an integer of at least 1, got {count!r}")
    return fn(seed, count or default_count)


def run_suites(name: str, seed: int, count: int | None = None) -> list[SuiteResult]:
    """Run one suite, or all of them for name = 'all'."""
    return [run_suite(n, seed, count) for n in (SUITES if name == "all" else [name])]


def format_results(results: list[SuiteResult]) -> str:
    """Deterministic human-readable summary of suite outcomes."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"suite {r.name}: {status} ({r.checks} checks, {len(r.failures)} failures)")
        for label in sorted(r.worst):
            lines.append(f"  worst {label} = {r.worst[label]:.6e}")
        for msg in r.failures:
            lines.append(f"  FAIL {msg}")
    return "\n".join(lines) + "\n"
