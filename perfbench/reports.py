"""One report per workload, and the independent check of its output.

A report is one unit of user work: one ``neqtemp bipartite`` request, one
bipartite analysis of user matrices, one single-system temperature, or one
generalized-Gibbs analysis. Every library call goes through a module
attribute (``nq.x``, ``cli.main``) at call time, so the traced run can wrap it.

A check returns ``(numeric, flags)``: ``numeric`` holds ``(label, error,
bound)`` triples, ``flags`` holds ``(label, ok)`` pairs. A report is correct
when every error is within its bound and every flag holds. The references
come from :mod:`inputs`, never from the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import neqtemp as nq
from neqtemp import cli

#: accuracy_headroom_dec is capped here; an exact result reads as the cap.
HEADROOM_CAP = 16.0


@dataclass(frozen=True)
class Workload:
    name: str
    report: Callable[[dict], object]
    check: Callable[[dict, object], tuple[list, list]]


def _num(x) -> float:
    """A report number; the strings 'inf'/'-inf' parse, 'undefined' is NaN."""
    try:
        return float(x)
    except (TypeError, ValueError):
        return math.nan


def bipartite_checks(item: dict, r: dict) -> tuple[list, list]:
    beta = float(item["beta"])
    k_sum = abs(r["K_SB"]) + abs(r["b_S"]) + abs(r["b_B"]) + abs(r["K_chi"])
    numeric = [
        ("|beta_SB - beta|", abs(r["beta_SB"] - beta), float(item["beta_SB_bound"])),
        ("|beta_S - ref|", abs(r["beta_S"] - item["beta_S_ref"]), float(item["beta_S_bound"])),
        ("|beta_B - ref|", abs(r["beta_B"] - item["beta_B_ref"]), float(item["beta_B_bound"])),
        ("|K_SB - b_S - b_B - K_chi|",
         abs(r["K_SB"] - r["b_S"] - r["b_B"] - r["K_chi"]), 1e-9 * k_sum),
    ]
    if item["kind"] == "model":
        # Closed-form identities of the two-qubit Gibbs family, at the
        # bounds of the package's relation suite.
        tol = 1e-9 * max(1.0, beta)
        numeric += [
            ("|beta_tilde_S - beta|", abs(r["beta_tilde_S"] - beta), tol),
            ("|beta_tilde_B - beta|", abs(r["beta_tilde_B"] - beta), tol),
            ("|beta_chi + beta|", abs(r["beta_chi"] + beta), tol),
            ("|residual|", abs(r["residual"]), 1e-8 * max(abs(r["K_SB"] * beta), 1.0)),
        ]
    return numeric, []


# --- bipartite-small: the CLI in process --------------------------------------


def report_small(item: dict) -> int:
    return cli.main(["bipartite", str(item["doc_path"]), "--out", str(item["out_path"])])


def check_small(item: dict, code: int) -> tuple[list, list]:
    if code != 0:
        return [], [(f"exit code {code}", False)]
    with open(str(item["out_path"]), encoding="utf-8") as fh:
        body = json.load(fh)["report"]
    rel = body["relation"]
    r = {k: _num(rel[k]) for k in (
        "beta_SB", "beta_tilde_S", "beta_tilde_B", "beta_chi", "residual",
        "K_SB", "b_S", "b_B", "K_chi")}
    r["beta_S"] = _num(body["local_S"]["beta"])
    r["beta_B"] = _num(body["local_B"]["beta"])
    return bipartite_checks(item, r)


# --- bipartite-large: the library path on user matrices --------------------------


def report_large(item: dict) -> dict:
    system = nq.BipartiteSystem(
        int(item["d_S"]), int(item["d_B"]),
        nq.HermitianOperator(item["H_S"]),
        nq.HermitianOperator(item["H_B"]),
        nq.HermitianOperator(item["H_I"]),
        nq.DensityMatrix(item["rho_SB"]),
    )
    corr = nq.correlation_inverse_temperature(system)
    rel = nq.verify_universal_relation(system)
    local_s = nq.inverse_temperature(system.rho_S, system.effective.H_S_eff)
    local_b = nq.inverse_temperature(system.rho_B, system.effective.H_B_eff)
    return {
        "beta_SB": rel.beta_SB, "beta_tilde_S": rel.beta_tilde_S,
        "beta_tilde_B": rel.beta_tilde_B, "beta_chi": corr.beta_chi,
        "residual": rel.residual, "K_SB": rel.K_SB, "b_S": rel.b_S,
        "b_B": rel.b_B, "K_chi": rel.K_chi,
        "beta_S": local_s.beta, "beta_B": local_b.beta,
    }


# --- thermo-batch ------------------------------------------------------------------


def report_thermo(item: dict) -> tuple[float, float, bool | None]:
    H = nq.HermitianOperator(item["H"])
    rho = nq.DensityMatrix(item["rho"])
    r = nq.inverse_temperature(rho, H)
    passive = nq.is_passive(rho, H) if item["kind"] != "pure" else None
    return r.beta, r.temperature, passive


def check_thermo(item: dict, out) -> tuple[list, list]:
    beta, temperature, passive = out
    kind = item["kind"]
    if kind == "pure":
        return [], [("pure state T == 0", temperature == 0.0)]
    numeric = [("|beta - Cov/Var|", abs(beta - item["beta_ref"]), float(item["beta_bound"]))]
    if kind == "inverted":
        return numeric, [("inverted pair not passive", passive is False)]
    if kind == "mixed":
        return numeric, [("maximally mixed T == inf", temperature == math.inf),
                         ("maximally mixed pair passive", passive is True)]
    return numeric, [(f"{kind} pair passive", passive is True), (f"{kind} beta >= 0", beta >= 0.0)]


# --- basis-gibbs ----------------------------------------------------------------------


def report_basis(item: dict) -> tuple[float, np.ndarray, float]:
    H = nq.HermitianOperator(item["H"])
    rho = nq.DensityMatrix(item["rho"])
    o1, _h = nq.hamiltonian_unit(H)
    basis = nq.complete_basis(int(item["d"]), [o1])
    form = nq.generalized_gibbs_decomposition(rho, H, basis)
    recon = nq.reconstruct_generalized_gibbs(form, H, basis)
    free = nq.helmholtz_free_energy(rho, H, basis)
    return form.beta, recon, free


def check_basis(item: dict, out) -> tuple[list, list]:
    beta, recon, free = out
    return [
        ("|beta - Cov/Var|", abs(beta - item["beta_ref"]), float(item["beta_bound"])),
        ("max|recon - rho|", float(np.max(np.abs(recon - item["rho"]))), float(item["recon_bound"])),
        ("|F - (U - T S)|", abs(free - item["F_ref"]), float(item["F_bound"])),
    ], []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bipartite-small", report_small, check_small),
        Workload("bipartite-large", report_large, bipartite_checks),
        Workload("thermo-batch", report_thermo, check_thermo),
        Workload("basis-gibbs", report_basis, check_basis),
    )
}


def headroom_dec(err: float, bound: float) -> float:
    """log10(bound / err), capped at HEADROOM_CAP; a non-finite error is the floor."""
    if not math.isfinite(err):
        return -HEADROOM_CAP
    if err == 0.0:
        return HEADROOM_CAP
    return max(-HEADROOM_CAP, min(HEADROOM_CAP, math.log10(bound / err)))


def judge(numeric: list, flags: list) -> tuple[list[str], float | None]:
    """Failure messages and the smallest headroom of one report's checks.

    The headroom is None for a report with flag checks only.
    """
    fails = [f"{label} = {err:.3e} > {bound:.3e}" for label, err, bound in numeric if not err <= bound]
    fails += [label for label, ok in flags if not ok]
    headroom = min((headroom_dec(err, bound) for _l, err, bound in numeric), default=None)
    return fails, headroom
