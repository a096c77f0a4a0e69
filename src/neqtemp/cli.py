"""Command-line front end.

Subcommands:

* ``temp`` — single-system temperature report from a JSON input document;
* ``bipartite`` — full bipartite report (local, global, correlation and
  tilde temperatures, relation coefficients and residual);
* ``sweep`` — two-qubit model parameter sweep to CSV, one row per point; a
  point whose computation fails numerically has ``undefined`` columns and is
  named on stderr, and the sweep then exits 2;
* ``verify`` — run a named invariant suite.

Exit codes: 0 ok, 1 input/validation error, 2 numerical failure,
3 verification-suite failure. All outputs are deterministic functions of the
input document, flags and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from operator import attrgetter

from .exceptions import NumericalError, ValidationError
from .io import (
    build_bipartite_system,
    correlation_report_dict,
    extended_real,
    load_input_document,
    relation_dict,
    report_document,
    temperature_report_dict,
)
from .linalg import DensityMatrix, HermitianOperator
from .models import TwoQubitXYParams, build_two_qubit_xy
from .relation import verify_universal_relation
from .thermometry import DEFAULT_CLIP, inverse_temperature

#: Each sweep CSV column after ``param`` and the BipartiteReport attribute it reads.
_SWEEP_FIELDS = {
    "beta_S": "local_S.beta", "beta_B": "local_B.beta",
    **{name: name for name in ("beta_SB", "beta_chi", "beta_tilde_S", "beta_tilde_B", "K_SB", "b_S", "b_B",
                               "K_chi", "residual")},
}
SWEEP_HEADER = ",".join(["param", *_SWEEP_FIELDS])

#: Each sweep axis and the TwoQubitXYParams field it sets.
SWEEP_AXES = {"beta": "beta", "lambda": "lam", "omega_S": "omega_S", "omega_B": "omega_B"}


def _csv_num(x: float) -> str:
    v = extended_real(x)
    return v if isinstance(v, str) else f"{v:.17g}"


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose malformed flag is an input error (exit 1), not argparse's exit 2 with usage."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _document(args, *kinds: str):
    """The input document, once its kind is one of ``kinds``, and the clip: ``--clip`` if given, else the document's."""
    doc = load_input_document(args.input)
    if doc.kind not in kinds:
        raise ValidationError(f"{args.command} expects kind = {' or '.join(kinds)}, got {doc.kind!r}")
    return doc, args.clip if args.clip is not None else doc.clip


def cmd_temp(args) -> int:
    doc, clip = _document(args, "single")
    rho = DensityMatrix(HermitianOperator(doc.matrices["rho"], tol_herm=doc.tol))
    h = HermitianOperator(doc.matrices["H"], tol_herm=doc.tol)
    report = inverse_temperature(rho, h, clip)
    if args.strict and (report.rank_deficient or report.clipped):
        raise NumericalError("strict mode: state is rank deficient or the log was clipped")
    _write_out(report_document(doc, {"temperature_report": temperature_report_dict(report)}), args.out)
    return 0


def cmd_bipartite(args) -> int:
    doc, clip = _document(args, "bipartite", "model")
    sys_ = build_bipartite_system(doc)
    rep = verify_universal_relation(sys_, clip)
    if args.strict and (
        rep.clipped or rep.local_S.rank_deficient or rep.local_B.rank_deficient
        or sys_.rho_SB.rank < sys_.rho_SB.dim
    ):
        raise NumericalError("strict mode: a state is rank deficient or a logarithm was clipped")
    body = {
        "local_S": temperature_report_dict(rep.local_S),
        "local_B": temperature_report_dict(rep.local_B),
        "correlation": correlation_report_dict(rep),
        "relation": relation_dict(rep),
    }
    _write_out(report_document(doc, body), args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {', '.join(SWEEP_AXES)}, got {args.axis!r}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad sweep values: {exc}") from exc
    if not values:
        raise ValidationError("no sweep values given")
    base = dict(omega_S=args.omega_s, omega_B=args.omega_b, lam=args.lam, beta=args.beta)
    rows, failed, columns = [SWEEP_HEADER], False, attrgetter(*_SWEEP_FIELDS.values())
    for v in values:
        p = TwoQubitXYParams(**{**base, SWEEP_AXES[args.axis]: v})
        try:
            cols = columns(verify_universal_relation(build_two_qubit_xy(p), args.clip))
        except NumericalError as exc:
            print(f"numerical failure at {args.axis}={_csv_num(v)}: {exc}", file=sys.stderr)
            failed, cols = True, [math.nan] * len(_SWEEP_FIELDS)
        rows.append(",".join(_csv_num(c) for c in [v, *cols]))
    _write_out("\n".join(rows) + "\n", args.out)
    return 2 if failed else 0


def cmd_verify(args) -> int:
    from .verify import format_results, run_suites  # lazy: only verify reads it, and it takes ~5 ms to import

    results = run_suites(args.suite, args.seed, args.count)
    _write_out(format_results(results), args.out)
    return 0 if all(r.passed for r in results) else 3


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="neqtemp",
        description="Nonequilibrium temperatures of finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, clip_default="from input document"):
        p.add_argument("--clip", type=float, default=None,
                       help=f"eigenvalue clip for matrix logarithms (default {clip_default})")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p_temp = sub.add_parser("temp", help="single-system temperature report")
    p_temp.add_argument("input", help="JSON input document ('-' for stdin)")
    p_temp.add_argument("--strict", action="store_true",
                        help="treat rank deficiency / clipping as an error (exit 2)")
    add_common(p_temp)
    p_temp.set_defaults(fn=cmd_temp)

    p_bi = sub.add_parser("bipartite", help="bipartite temperature and relation report")
    p_bi.add_argument("input", help="JSON input document ('-' for stdin)")
    p_bi.add_argument("--strict", action="store_true",
                      help="treat rank deficiency / clipping of rho_SB, rho_S or rho_B as an error (exit 2)")
    add_common(p_bi)
    p_bi.set_defaults(fn=cmd_bipartite)

    p_sw = sub.add_parser("sweep", help="two-qubit model parameter sweep to CSV")
    p_sw.add_argument("--axis", required=True, help="parameter to sweep: beta, lambda, omega_S, omega_B")
    p_sw.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sw.add_argument("--omega-s", dest="omega_s", type=float, default=2.0)
    p_sw.add_argument("--omega-b", dest="omega_b", type=float, default=1.0)
    p_sw.add_argument("--lam", type=float, default=0.1, help="coupling strength lambda")
    p_sw.add_argument("--beta", type=float, default=1.0)
    add_common(p_sw, f"{DEFAULT_CLIP:g}")
    p_sw.set_defaults(fn=cmd_sweep, clip=DEFAULT_CLIP)

    p_vf = sub.add_parser("verify", help="run a named invariant suite")
    p_vf.add_argument("suite", help="gibbs, passivity, basis-invariance, extension, relation, heat, all")
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--count", type=int, default=None)
    p_vf.add_argument("--out", default=None)
    p_vf.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
