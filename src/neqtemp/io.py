"""Structured input documents and report serialization for the CLI.

Input documents are JSON with every complex entry written as a two-element
``[re, im]`` pair. Extended-real report fields serialize as a finite number
or one of the strings ``"inf"``, ``"-inf"``, ``"undefined"``; undefined
fields carry a companion ``<field>_reason`` entry. Numbers round-trip at
full double precision (shortest-repr JSON floats).

A report is one line of JSON, in the C encoder's default layout, with the
top-level keys ``input``, ``report``, ``tool_version`` and ``convention``;
``python -m json.tool`` pretty-prints it.

``input`` is the input's JSON text as read, not the parsed document encoded
again: stripped of leading and trailing whitespace, with every line break and
tab turned into a space and every non-ASCII character written as its
``\\uXXXX`` escape (a surrogate pair above U+FFFF). It keeps the input's number
spelling, spacing and repeated keys, and it parses to the value the report
was computed from (the parser keeps the last of a repeated key). A document
written by ``json.dump`` with default settings is its own echo, byte for byte
the parsed document encoded again.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import __version__
from .correlation import BipartiteReport, BipartiteSystem
from .exceptions import ValidationError
from .linalg import HERM_TOL, DensityMatrix, HermitianOperator, _dimension, _number
from .models import TwoQubitXYParams, build_two_qubit_xy
from .thermometry import DEFAULT_CLIP, TemperatureReport

__all__ = [
    "CONVENTION_NOTE",
    "InputDocument",
    "load_input_document",
    "matrix_from_pairs",
    "matrix_to_pairs",
    "extended_real",
    "temperature_report_dict",
    "correlation_report_dict",
    "relation_dict",
    "report_document",
]

CONVENTION_NOTE = (
    "S is the left tensor factor; sigma_pm = (sigma_x +/- i sigma_y)/2; "
    "natural log, k_B = 1"
)


def matrix_from_pairs(rows: Any) -> np.ndarray:
    """Build a complex matrix from nested lists of [re, im] pairs."""
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix entries: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(
            "matrix entries must be two-element [re, im] pairs in nested rows"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_pairs(m: np.ndarray) -> list:
    """Inverse of matrix_from_pairs."""
    a = np.asarray(m)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


@dataclass(frozen=True)
class InputDocument:
    """Parsed CLI input: kind, dims, named matrices, options, and the JSON text a report echoes."""

    kind: str
    dims: tuple[int, ...]
    matrices: dict[str, np.ndarray]
    model_params: TwoQubitXYParams | None
    clip: float
    tol: float
    text: str


def _validated_fields(doc) -> dict:
    """Every InputDocument field but ``text``, from a validated document."""
    if not isinstance(doc, dict):
        raise ValidationError("input document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("single", "bipartite", "model"):
        raise ValidationError(f"kind must be one of single/bipartite/model, got {kind!r}")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object")
    given = doc.get("matrices", {})
    if not isinstance(given, dict):
        raise ValidationError("matrices must be an object")
    clip = _number(options.get("clip", DEFAULT_CLIP), "options.clip must be a finite number")
    tol = _number(options.get("tol", HERM_TOL), "options.tol must be a finite number")
    if clip <= 0 or tol <= 0:
        raise ValidationError("clip and tol must be positive")

    shapes: dict[str, int] = {}  # matrix name -> dimension; the model kind reads none
    model_params = None
    if kind == "model":
        params = doc.get("model_params")
        if not isinstance(params, dict):
            raise ValidationError("model kind requires model_params")
        try:
            values = {key: params[key] for key in ("omega_S", "omega_B", "lam", "beta")}
        except KeyError as exc:
            raise ValidationError(f"model_params missing key {exc}") from exc
        model_params = TwoQubitXYParams(**values)
        dims = (2, 2)
    elif kind == "single":
        d = _dimension(doc.get("dims"), 1, "single kind requires integer dims")
        dims, shapes = (d,), {"H": d, "rho": d}
    else:
        dims_raw, bad = doc.get("dims"), "bipartite kind requires integer dims = [d_S, d_B]"
        if not (isinstance(dims_raw, (list, tuple)) and len(dims_raw) == 2):
            raise ValidationError(bad)
        dims = d_s, d_b = _dimension(dims_raw[0], 1, bad), _dimension(dims_raw[1], 1, bad)
        shapes = {"H_S": d_s, "H_B": d_b, "H_I": d_s * d_b, "rho_SB": d_s * d_b}
    matrices: dict[str, np.ndarray] = {}
    for name, d in shapes.items():
        if name not in given:
            raise ValidationError(f"{kind} kind requires matrix {name!r}")
        m = matrices[name] = matrix_from_pairs(given[name])
        if m.shape != (d, d):
            shown = dims[0] if kind == "single" else dims
            raise ValidationError(f"matrix {name!r} shape {m.shape} does not match dims {shown}")
    return dict(kind=kind, dims=dims, matrices=matrices, model_params=model_params, clip=clip, tol=tol)


def load_input_document(path: str) -> InputDocument:
    """Read a UTF-8 JSON input document from a file ('-' for stdin's bytes); a report echoes its text as read."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
        doc = json.loads(text)
    except OSError as exc:
        raise ValidationError(f"cannot read input: {exc}") from exc
    except UnicodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc
    return InputDocument(**_validated_fields(doc), text=_echo_form(text))


def _echo_form(text: str) -> str:
    """Valid JSON text as one ASCII line holding the same value.

    Strict JSON holds a raw control character only as whitespace between
    tokens, and a non-ASCII character only inside a string, so neither
    rewrite changes the value.
    """
    line = text.strip().replace("\r", " ").replace("\n", " ").replace("\t", " ")
    if line.isascii():
        return line
    return "".join(ch if ch.isascii() else json.dumps(ch)[1:-1] for ch in line)


def build_bipartite_system(doc: InputDocument) -> BipartiteSystem:
    """Assemble a BipartiteSystem from a parsed bipartite or model document."""
    if doc.kind == "model":
        return build_two_qubit_xy(doc.model_params)
    names = ("H_S", "H_B", "H_I", "rho_SB")
    h_s, h_b, h_i, rho = (HermitianOperator(doc.matrices[n], tol_herm=doc.tol) for n in names)
    return BipartiteSystem(*doc.dims, h_s, h_b, h_i, DensityMatrix(rho))


def extended_real(x: float):
    """Serialize an extended real: finite float, 'inf', '-inf' or 'undefined'."""
    if math.isnan(x):
        return "undefined"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _put_extended(out: dict, name: str, value: float, undefined_reason: str) -> None:
    out[name] = extended_real(value)
    if isinstance(out[name], str) and out[name] == "undefined":
        out[name + "_reason"] = undefined_reason


def temperature_report_dict(r: TemperatureReport) -> dict:
    out: dict = {}
    _put_extended(out, "beta", r.beta, "Cov/Var is not a number (non-finite moments)")
    _put_extended(out, "temperature", r.temperature, "beta is undefined")
    out.update((k, getattr(r, k)) for k in ("h", "covariance", "variance", "entropy", "internal_energy"))
    _put_extended(out, "free_energy", r.free_energy,
                  "free energy undefined at beta = 0 or T = 0")
    out.update(rank_deficient=r.rank_deficient, clipped=r.clipped)
    return out


#: A report holds beta_chi as NaN exactly when no interaction direction exists.
_NO_CHI_DIRECTION = "correlation direction undefined without interaction"


def correlation_report_dict(r: BipartiteReport) -> dict:
    out: dict = {
        "U_chi": r.U_chi,
        "S_chi": r.S_chi,
        "h_I": r.h_I,
        "h_chi": r.h_chi,
        "clipped": r.clipped,
    }
    _put_extended(out, "beta_chi", r.beta_chi, _NO_CHI_DIRECTION)
    return out


def relation_dict(r: BipartiteReport) -> dict:
    out: dict = {
        "C_S": r.C_S, "C_B": r.C_B, "C_chi": r.C_chi,
        "K_SB": r.K_SB, "b_S": r.b_S, "b_B": r.b_B, "K_chi": r.K_chi,
        "h_SB": r.h_SB,
        "interaction_degenerate": r.interaction_degenerate,
    }
    for name in ("beta_SB", "beta_tilde_S", "beta_tilde_B", "beta_chi", "residual"):
        why = _NO_CHI_DIRECTION if name == "beta_chi" else "infinite terms of opposite sign"
        _put_extended(out, name, getattr(r, name), why)
    return out


def report_document(doc: InputDocument, body: dict) -> str:
    """Assemble the final JSON report: the input's text spliced in as read, body, version, note."""
    rest = json.dumps({"report": body, "tool_version": __version__, "convention": CONVENTION_NOTE})
    return '{"input": ' + doc.text + ", " + rest[1:] + "\n"
