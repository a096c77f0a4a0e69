"""CLI and input-document tests: run main() in process, check exits and output."""

import json
import math

import numpy as np
import pytest

from neqtemp import verify
from neqtemp.cli import SWEEP_HEADER, build_parser, main
from neqtemp.exceptions import ValidationError
from neqtemp.io import (
    correlation_report_dict,
    extended_real,
    load_input_document,
    matrix_from_pairs,
    matrix_to_pairs,
    temperature_report_dict,
)
from neqtemp.linalg import DensityMatrix, HermitianOperator
from neqtemp.models import TwoQubitXYParams, build_two_qubit_xy, closed_form
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import DEFAULT_CLIP, inverse_temperature


def pairs(m):
    return matrix_to_pairs(np.asarray(m, dtype=complex))


def gibbs_qubit_doc(beta=2.0):
    e = np.array([-0.5, 0.5])
    p = np.exp(-beta * e)
    p /= p.sum()
    return {
        "kind": "single",
        "dims": 2,
        "matrices": {"H": pairs(np.diag(e)), "rho": pairs(np.diag(p))},
    }


def coupled_qubits_doc(rho_sb):
    """Bipartite document: two qubits with an exchange coupling in state rho_sb."""
    sz = np.diag([0.5, -0.5])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return {
        "kind": "bipartite",
        "dims": [2, 2],
        "matrices": {
            "H_S": pairs(sz),
            "H_B": pairs(0.5 * sz),
            "H_I": pairs(0.1 * np.kron(sx, sx)),
            "rho_SB": pairs(rho_sb),
        },
    }


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestTemp:
    def test_gibbs_qubit(self, tmp_path, capsys):
        path = write_doc(tmp_path, gibbs_qubit_doc(beta=2.0))
        assert main(["temp", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]["temperature_report"]
        assert report["beta"] == pytest.approx(2.0, abs=1e-12)
        assert report["temperature"] == pytest.approx(0.5, abs=1e-12)
        assert not report["rank_deficient"]

    def test_maximally_mixed_reports_inf(self, tmp_path, capsys):
        doc = gibbs_qubit_doc()
        doc["matrices"]["rho"] = pairs(np.eye(2) / 2.0)
        assert main(["temp", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]["temperature_report"]
        assert report["temperature"] == "inf"
        assert report["free_energy"] == "undefined"

    def test_identity_hamiltonian_is_numerical_failure(self, tmp_path, capsys):
        doc = gibbs_qubit_doc()
        doc["matrices"]["H"] = pairs(np.eye(2))
        assert main(["temp", write_doc(tmp_path, doc)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_strict_rejects_pure_state(self, tmp_path, capsys):
        doc = gibbs_qubit_doc()
        doc["matrices"]["rho"] = pairs(np.diag([1.0, 0.0]))
        path = write_doc(tmp_path, doc)
        assert main(["temp", path, "--strict"]) == 2
        capsys.readouterr()
        assert main(["temp", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]["temperature_report"]
        assert report["temperature"] == 0.0
        assert report["rank_deficient"]

    def test_document_tol_applies_to_the_state(self, tmp_path, capsys):
        doc = gibbs_qubit_doc()
        rho = np.array([[0.6, 0.1 + 1e-8], [0.1, 0.4]], dtype=complex)
        doc["matrices"]["rho"] = pairs(rho)
        assert main(["temp", write_doc(tmp_path, doc)]) == 1
        assert "not Hermitian" in capsys.readouterr().err
        doc["options"] = {"tol": 1e-6}
        assert main(["temp", write_doc(tmp_path, doc, "tol.json")]) == 0
        report = json.loads(capsys.readouterr().out)["report"]["temperature_report"]
        assert math.isfinite(report["beta"])

    def test_stdin_and_out_file(self, tmp_path, monkeypatch, capsys):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(json.dumps(gibbs_qubit_doc()).encode())))
        out = tmp_path / "report.json"
        assert main(["temp", "-", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["report"]["temperature_report"]["beta"] == pytest.approx(2.0)

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["temp", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_infinite_clip_exits_1(self, tmp_path, capsys):
        # A document's clip must be finite; so must the flag's.
        assert main(["temp", write_doc(tmp_path, gibbs_qubit_doc()), "--clip", "inf"]) == 1
        assert capsys.readouterr().err == "error: clip must be finite and positive, got inf\n"

    def test_wrong_kind_exits_1(self, tmp_path, capsys):
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.7, 0.3]))
        assert main(["temp", write_doc(tmp_path, coupled_qubits_doc(rho))]) == 1
        assert capsys.readouterr().err == "error: temp expects kind = single, got 'bipartite'\n"


class TestBipartite:
    def test_model_document(self, tmp_path, capsys):
        doc = {
            "kind": "model",
            "model_params": {"omega_S": 2.0, "omega_B": 1.0, "lam": 0.2, "beta": 1.0},
        }
        assert main(["bipartite", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["correlation"]["beta_chi"] == pytest.approx(-1.0, abs=1e-9)
        assert report["relation"]["beta_SB"] == pytest.approx(1.0, abs=1e-9)
        assert abs(report["relation"]["residual"]) < 1e-9

    def test_explicit_matrices(self, tmp_path, capsys):
        from neqtemp.models import TwoQubitXYParams, build_two_qubit_xy, closed_form

        sys_ = build_two_qubit_xy(
            TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=1.0)
        )
        doc = {
            "kind": "bipartite",
            "dims": [2, 2],
            "matrices": {
                "H_S": pairs(sys_.H_S.matrix),
                "H_B": pairs(sys_.H_B.matrix),
                "H_I": pairs(sys_.H_I.matrix),
                "rho_SB": pairs(sys_.rho_SB.matrix),
            },
        }
        assert main(["bipartite", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        # Matrix-document route must agree exactly with the model route.
        assert report["correlation"]["beta_chi"] == pytest.approx(-1.0, abs=1e-9)
        assert report["relation"]["beta_tilde_S"] == pytest.approx(1.0, abs=1e-9)
        assert report["relation"]["beta_tilde_B"] == pytest.approx(1.0, abs=1e-9)

    def test_document_tol_applies_to_the_state(self, tmp_path, capsys):
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.7, 0.3])).astype(complex)
        doc = coupled_qubits_doc(rho)
        rho[0, 1] += 1e-8
        doc["matrices"]["rho_SB"] = pairs(rho)
        assert main(["bipartite", write_doc(tmp_path, doc)]) == 1
        assert "not Hermitian" in capsys.readouterr().err
        doc["options"] = {"tol": 1e-6}
        assert main(["bipartite", write_doc(tmp_path, doc, "tol.json")]) == 0

    @pytest.mark.parametrize(
        "rho_sb",
        [
            # only the joint state is rank deficient
            np.diag([0.4, 0.3, 0.3 - 1e-14, 1e-14]),
            # the local S state is rank deficient too
            np.kron(np.diag([1.0 - 1e-14, 1e-14]), np.diag([0.7, 0.3])),
        ],
    )
    def test_strict_rejects_rank_deficient_states(self, tmp_path, capsys, rho_sb):
        # Populations of 1e-14 sit below the rank tolerance but far above the
        # default clip, so no logarithm is clipped.
        path = write_doc(tmp_path, coupled_qubits_doc(rho_sb))
        assert main(["bipartite", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert not report["correlation"]["clipped"]
        assert main(["bipartite", path, "--strict"]) == 2
        assert "strict mode" in capsys.readouterr().err

    def test_strict_accepts_full_rank_states(self, tmp_path, capsys):
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.7, 0.3]))
        path = write_doc(tmp_path, coupled_qubits_doc(rho))
        assert main(["bipartite", path, "--strict"]) == 0

    def test_wrong_kind_exits_1(self, tmp_path, capsys):
        assert main(["bipartite", write_doc(tmp_path, gibbs_qubit_doc())]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_interaction_reports_undefined_beta_chi(self, tmp_path, capsys):
        # H_I = 0 leaves no correlation direction: the full report, with beta_chi undefined
        # for the same reason in both sections and the no-interaction relation (K_chi = 0).
        beta, energies = 0.8, (np.array([0.5, -0.5]), np.array([0.25, -0.25]))  # of H_S and H_B
        local = [np.exp(-beta * e) / np.sum(np.exp(-beta * e)) for e in energies]
        doc = coupled_qubits_doc(np.kron(np.diag(local[0]), np.diag(local[1])))
        doc["matrices"]["H_I"] = pairs(np.zeros((4, 4)))
        assert main(["bipartite", write_doc(tmp_path, doc)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)["report"]
        why = "correlation direction undefined without interaction"
        corr, rel = report["correlation"], report["relation"]
        assert corr == {"U_chi": 0.0, "S_chi": pytest.approx(0.0, abs=1e-12), "h_I": 0.0, "h_chi": 1.0,
                        "clipped": False, "beta_chi": "undefined", "beta_chi_reason": why}
        assert (rel["interaction_degenerate"], rel["C_chi"], rel["K_chi"]) == (True, 0.0, 0.0)
        assert (rel["beta_chi"], rel["beta_chi_reason"]) == ("undefined", why)
        for name in ("beta_SB", "beta_tilde_S", "beta_tilde_B"):
            assert rel[name] == pytest.approx(beta, abs=1e-10)
        assert report["local_S"]["beta"] == pytest.approx(beta, abs=1e-10)
        assert abs(rel["residual"]) < 1e-12
        assert not any(key.endswith("_reason") and key != "beta_chi_reason" for key in rel)

    def test_infinite_temperatures_leave_the_residual_undefined(self, tmp_path, capsys):
        # A pure product state: every temperature but beta_chi is infinite and K_SB beta_SB
        # meets b_S beta_tilde_S with the opposite sign, so the residual is inf - inf.
        assert main(["bipartite", write_doc(tmp_path, coupled_qubits_doc(np.diag([1.0, 0.0, 0.0, 0.0])))]) == 0
        rel = json.loads(capsys.readouterr().out)["report"]["relation"]
        assert [rel[k] for k in ("beta_SB", "beta_tilde_S", "beta_tilde_B")] == ["-inf"] * 3
        assert (rel["residual"], rel["residual_reason"]) == ("undefined", "infinite terms of opposite sign")


MODEL_PARAMS = {"omega_S": 2.0, "omega_B": 1.0, "lam": 0.2, "beta": 1.0}


def library_betas_temp(doc):
    rho, h = (matrix_from_pairs(doc["matrices"][k]) for k in ("rho", "H"))
    return {"temperature_report": inverse_temperature(DensityMatrix(rho), HermitianOperator(h)).beta}


def library_betas_bipartite(doc):
    from neqtemp.correlation import correlation_inverse_temperature
    from neqtemp.relation import verify_universal_relation

    sys_ = build_two_qubit_xy(TwoQubitXYParams(**doc["model_params"]))
    rel = verify_universal_relation(sys_)
    return {
        "local_S": rel.local_S.beta,
        "local_B": rel.local_B.beta,
        "correlation": correlation_inverse_temperature(sys_).beta_chi,
        "relation": (rel.beta_SB, rel.beta_tilde_S, rel.beta_tilde_B, rel.beta_chi),
    }


def reported_betas(report):
    out = {}
    for section, fields in report.items():
        betas = tuple(v for k, v in fields.items() if k.startswith("beta") and not k.endswith("_reason"))
        out[section] = betas[0] if len(betas) == 1 else betas
    return out


class TestReportLayout:
    """A report is one line of JSON in the C encoder's default layout."""

    @pytest.mark.parametrize(
        "command, doc, library_betas",
        [
            ("temp", gibbs_qubit_doc(beta=2.0), library_betas_temp),
            ("bipartite", {"kind": "model", "model_params": MODEL_PARAMS}, library_betas_bipartite),
        ],
        ids=["temp", "bipartite"],
    )
    def test_one_line_report(self, tmp_path, command, doc, library_betas):
        path = write_doc(tmp_path, doc)
        outs = [tmp_path / f"out{i}.json" for i in range(2)]
        for out in outs:
            assert main([command, path, "--out", str(out)]) == 0
        raw = [out.read_bytes() for out in outs]
        assert raw[0] == raw[1]
        text = raw[0].decode("utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        payload = json.loads(text)
        assert text == json.dumps(payload) + "\n"
        assert list(payload) == ["input", "report", "tool_version", "convention"]
        assert payload["input"] == doc
        assert reported_betas(payload["report"]) == library_betas(doc)


NOTE, NOTE_ESCAPED = "\u03b2 \u2248 \u00bd \u2014 \U0001f321", r"\u03b2 \u2248 \u00bd \u2014 \ud83c\udf21"

#: Documents no json.dump default writes: indent=2 with CRLF line ends and a
#: tab, numbers spelled 1.0E0, -0.0 and 5e-1, a repeated key (the parser keeps
#: the last) and a non-ASCII note with a character above U+FFFF.
NONCANONICAL = {
    "temp": [
        "{",
        '  "kind": "single",',
        '  "dims": 3,',
        '\t"dims": 2,',
        '  "matrices": {',
        '    "H": [[[1.0E0, -0.0], [0, 0]], [[0, 0], [5e-1, 0]]],',
        '    "rho": [[[0.25, 0], [0, 0]], [[0, 0], [0.75, 0]]]',
        "  },",
        f'  "note": "{NOTE}"',
        "}",
    ],
    "bipartite": [
        "{",
        '  "kind": "model",',
        '  "model_params": {',
        '    "omega_S": 2.0,',
        '    "omega_B": 1.0E0,',
        '    "lam": -0.0,',
        '\t"lam": 0.2,',
        '    "beta": 5e-1',
        "  },",
        f'  "note": "{NOTE}"',
        "}",
    ],
}


class TestInputEcho:
    """``input`` is the input's text as read: one ASCII line holding the same JSON value."""

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["temp", "bipartite"])
    def test_noncanonical_document_is_echoed_as_read(self, tmp_path, monkeypatch, capsys, command, source):
        import io as _io

        text = "\r\n".join(NONCANONICAL[command]) + "\r\n"
        if source == "file":
            path = tmp_path / "in.json"
            path.write_bytes(text.encode("utf-8"))
            assert main([command, str(path)]) == 0
        else:
            monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(text.encode("utf-8"))))
            assert main([command, "-"]) == 0
        report = capsys.readouterr().out
        assert report.endswith("\n") and report.count("\n") == 1 and report.isascii()
        assert json.loads(report)["input"] == json.loads(text)
        echo = text.strip().replace("\r", " ").replace("\n", " ").replace("\t", " ").replace(NOTE, NOTE_ESCAPED)
        assert report.startswith('{"input": ' + echo + ', "report": ')

    def test_parsed_dict_echoes_as_its_encoding(self, tmp_path):
        # A document written by json.dump is its own echo.
        doc = gibbs_qubit_doc()
        with open(tmp_path / "in.json", "w") as fh:
            json.dump(doc, fh)
        assert load_input_document(str(tmp_path / "in.json")).text == json.dumps(doc)

    BAD_UTF8 = b'{"kind": "single", "note": "\xff\xfe"}'

    def test_invalid_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(self.BAD_UTF8)
        assert main(["temp", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text: ")

    @pytest.mark.parametrize(
        "encoding, errors",
        [("utf-8", "strict"), ("utf-8", "surrogateescape"), ("latin-1", "strict")],
        ids=["strict", "surrogateescape", "latin-1"],
    )
    def test_invalid_utf8_stdin_is_input_error(self, monkeypatch, capsys, encoding, errors):
        # Stdin's bytes are decoded as UTF-8, as a file's are, whatever the stream's own encoding.
        import io as _io

        stdin = _io.TextIOWrapper(_io.BytesIO(self.BAD_UTF8), encoding=encoding, errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["temp", "-"]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8 text: ")


class TestParserReuse:
    """main() reuses one parser, so no option may carry over to the next call."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_strict_does_not_carry_over(self, tmp_path, capsys):
        path = write_doc(tmp_path, coupled_qubits_doc(np.diag([0.4, 0.3, 0.3 - 1e-14, 1e-14])))
        assert main(["bipartite", path, "--strict"]) == 2
        assert "strict mode" in capsys.readouterr().err
        assert main(["bipartite", path]) == 0
        assert capsys.readouterr().err == ""

    def test_clip_does_not_carry_over(self, tmp_path, capsys):
        path = write_doc(tmp_path, gibbs_qubit_doc())
        assert main(["temp", path]) == 0
        default = capsys.readouterr().out
        assert main(["temp", path, "--clip", "0.3"]) == 0
        assert capsys.readouterr().out != default
        assert main(["temp", path]) == 0
        assert capsys.readouterr().out == default


class TestSweep:
    ARGS = ["sweep", "--axis", "lambda", "--values", "0.05,0.2,1.0",
            "--omega-s", "2.0", "--omega-b", "1.0", "--beta", "1.0"]

    def test_header_and_rows(self, capsys):
        assert main(self.ARGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.05
        assert float(first[3]) == pytest.approx(1.0, abs=1e-9)  # beta_SB
        assert float(first[4]) == pytest.approx(-1.0, abs=1e-9)  # beta_chi

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_clip_reaches_local_columns(self, capsys):
        assert main(["sweep", "--axis", "beta", "--values", "5.0", "--omega-s", "2.0",
                     "--omega-b", "1.0", "--lam", "0.1", "--clip", "0.05"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        sys_ = build_two_qubit_xy(TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.1, beta=5.0))
        assert float(row[1]) == inverse_temperature(sys_.rho_S, sys_.effective.H_S_eff, 0.05).beta
        assert float(row[2]) == inverse_temperature(sys_.rho_B, sys_.effective.H_B_eff, 0.05).beta

    def test_large_beta_marginals_are_resolved(self, capsys):
        # At beta = 35 the marginals are exactly diagonal with populations
        # near 1e-17, below the eigensolver noise floor of a generic matrix;
        # they are resolved, so every column is finite.
        assert main(["sweep", "--axis", "beta", "--values", "35", "--omega-s", "2.0",
                     "--omega-b", "1.0", "--lam", "0.1"]) == 0
        row = [float(x) for x in capsys.readouterr().out.splitlines()[1].split(",")]
        cf = closed_form(TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.1, beta=35.0))
        assert row[1] == pytest.approx(cf.beta_S, rel=1e-9)
        assert row[2] == pytest.approx(cf.beta_B, rel=1e-9)
        assert all(math.isfinite(x) for x in row)

    @pytest.mark.parametrize("axis,field,values", [
        ("beta", "beta", "0.1,5"), ("lambda", "lam", "0.05,1.0"),
        ("omega_S", "omega_S", "1.5,3"), ("omega_B", "omega_B", "0.5,1.5"),
    ])
    def test_each_axis_sets_its_parameter(self, capsys, axis, field, values):
        # Each row is the report of the model with the swept parameter replaced, all others at their defaults.
        assert main(["sweep", "--axis", axis, "--values", values]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + len(values.split(","))
        base = dict(omega_S=2.0, omega_B=1.0, lam=0.1, beta=1.0)
        for line, v in zip(lines[1:], values.split(",")):
            rel = verify_universal_relation(build_two_qubit_xy(TwoQubitXYParams(**{**base, field: float(v)})))
            cols = [float(v), rel.local_S.beta, rel.local_B.beta, rel.beta_SB, rel.beta_chi, rel.beta_tilde_S,
                    rel.beta_tilde_B, rel.K_SB, rel.b_S, rel.b_B, rel.K_chi, rel.residual]
            assert line == ",".join(f"{c:.17g}" for c in cols)

    def test_bad_axis_exits_1(self, capsys):
        assert main(["sweep", "--axis", "mass", "--values", "1.0"]) == 1
        assert "axis" in capsys.readouterr().err

    def test_unknown_model_exits_1(self, capsys):
        assert main(["sweep", "--model", "spin-chain", "--axis", "beta",
                     "--values", "1.0"]) == 1
        capsys.readouterr()

    def test_bad_values_exit_1(self, capsys):
        assert main(["sweep", "--axis", "beta", "--values", "1.0,zap"]) == 1
        capsys.readouterr()

    def test_empty_values_exit_1(self, capsys):
        assert main(["sweep", "--axis", "beta", "--values", ","]) == 1
        assert capsys.readouterr().err == "error: no sweep values given\n"

    def test_undefined_point_keeps_every_row(self, capsys):
        # omega_B = 0 leaves H_B proportional to the identity: that row is undefined after
        # param, the other rows are as in a sweep of their own, and the sweep exits 2.
        assert main(["sweep", "--axis", "omega_B", "--values", "1.0,0.0,0.5"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == SWEEP_HEADER and len(lines) == 4
        assert lines[2] == "0" + ",undefined" * (len(lines[0].split(",")) - 1)
        for line, value in ((lines[1], "1.0"), (lines[3], "0.5")):
            assert main(["sweep", "--axis", "omega_B", "--values", value]) == 0
            assert capsys.readouterr().out.splitlines()[1] == line
        assert captured.err == (
            "numerical failure at omega_B=0: Hamiltonian is proportional to the identity; "
            "its traceless direction (and hence the temperature) is undefined\n"
        )

    def test_invalid_point_exits_1_without_rows(self, capsys):
        assert main(["sweep", "--axis", "lambda", "--values", "1.0,0.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coupling must be positive, got 0.0\n"


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        assert main(["verify", "gibbs", "--seed", "3", "--count", "10"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_suite_exits_3(self, monkeypatch, capsys):
        def failing(seed, count):
            res = verify.SuiteResult("failing")
            res.record("residual", 2.0, 1.0, "(synthetic)")
            res.require(False, "condition broken")
            res.require(True, "condition held")
            return res

        monkeypatch.setattr(verify, "SUITES", {"failing": (failing, 1)})
        assert main(["verify", "failing"]) == 3
        assert capsys.readouterr().out == (
            "suite failing: FAIL (3 checks, 2 failures)\n"
            "  worst residual = 2.000000e+00\n"
            "  FAIL residual = 2.000000e+00 exceeds 1.0e+00 (synthetic)\n"
            "  FAIL condition broken\n"
        )

    @pytest.mark.parametrize("flag,value,least", [
        pytest.param("--seed", "-1", 0, id="negative-seed"),
        pytest.param("--count", "0", 1, id="zero-count"),
        pytest.param("--count", "-3", 1, id="negative-count"),
    ])
    def test_seed_and_count_below_their_least_exit_1(self, capsys, flag, value, least):
        assert main(["verify", "gibbs", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag[2:]} must be an integer of at least {least}, got {value}\n"

    def test_unknown_suite_exits_1(self, capsys):
        assert main(["verify", "nosuch"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown suite 'nosuch'; choose from gibbs, passivity, basis-invariance, "
            "extension, relation, heat, all\n"
        )


class TestMalformedFlags:
    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep"], id="missing-required"),
        pytest.param(["sweep", "--axis", "beta", "--values", "1", "--clip", "x"], id="non-float-clip"),
        pytest.param(["verify", "gibbs", "--seed", "x"], id="non-int-seed"),
        pytest.param(["temp"], id="missing-input"),
    ])
    def test_malformed_flag_is_an_input_error(self, capsys, argv):
        # One error line naming the subcommand, exit 1: not argparse's usage text and exit 2.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: neqtemp {argv[0]}: ") and captured.err.count("\n") == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: neqtemp sweep")

    def test_sweep_help_names_its_clip_default(self, capsys):
        # sweep reads no input document: its clip defaults to DEFAULT_CLIP, and its help says so.
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"eigenvalue clip for matrix logarithms (default {DEFAULT_CLIP:g})" in help_text
        assert "input document" not in help_text
        assert build_parser().parse_args(["sweep", "--axis", "beta", "--values", "1"]).clip == DEFAULT_CLIP


def seeded_bipartite_doc(case):
    """A seeded 2x3 document: a Gibbs state of H_S + H_B + H_I ("clean"), the same without H_I
    ("no-interaction"), or a pure product state under H_I ("pure-product")."""
    rng = np.random.default_rng(5)

    def herm(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (g + g.conj().T) / 2

    h_s, h_b = herm(2), herm(3)
    h_i = np.zeros((6, 6)) if case == "no-interaction" else 0.3 * herm(6)
    if case == "pure-product":
        a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for d in (2, 3))
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho = np.outer(psi, psi.conj())
    else:
        w, v = np.linalg.eigh(np.kron(h_s, np.eye(3)) + np.kron(np.eye(2), h_b) + h_i)
        p = np.exp(-(w - w[0]))
        rho = (v * (p / p.sum())) @ v.conj().T
    matrices = {"H_S": pairs(h_s), "H_B": pairs(h_b), "H_I": pairs(h_i), "rho_SB": pairs(rho)}
    return {"kind": "bipartite", "dims": [2, 3], "matrices": matrices}


#: The key sequence of each report section, before any ``<field>_reason`` key.
SECTION_KEYS = {
    "temperature": ["beta", "temperature", "h", "covariance", "variance", "entropy", "internal_energy",
                    "free_energy", "rank_deficient", "clipped"],
    "correlation": ["U_chi", "S_chi", "h_I", "h_chi", "clipped", "beta_chi"],
    "relation": ["C_S", "C_B", "C_chi", "K_SB", "b_S", "b_B", "K_chi", "h_SB", "interaction_degenerate",
                 "beta_SB", "beta_tilde_S", "beta_tilde_B", "beta_chi", "residual"],
}


def with_reasons(section, undefined):
    """SECTION_KEYS[section] with ``<field>_reason`` right after each field in ``undefined``."""
    keys = []
    for name in SECTION_KEYS[section]:
        keys += [name, name + "_reason"] if name in undefined else [name]
    return keys


class TestReportKeyOrder:
    """The key order of each section is part of the byte-for-byte report."""

    @pytest.mark.parametrize("case,undefined", [
        ("clean", {}),
        ("no-interaction", {"correlation": {"beta_chi"}, "relation": {"beta_chi"}}),
        ("pure-product", {"local_S": {"free_energy"}, "local_B": {"free_energy"}, "relation": {"residual"}}),
    ])
    def test_bipartite_sections(self, tmp_path, capsys, case, undefined):
        assert main(["bipartite", write_doc(tmp_path, seeded_bipartite_doc(case))]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert list(report) == ["local_S", "local_B", "correlation", "relation"]
        for name, section in (("local_S", "temperature"), ("local_B", "temperature"),
                              ("correlation", "correlation"), ("relation", "relation")):
            assert list(report[name]) == with_reasons(section, undefined.get(name, ()))

    @pytest.mark.parametrize("p,undefined", [([0.3, 0.7], ()), ([0.0, 1.0], {"free_energy"})])
    def test_temperature_report(self, tmp_path, capsys, p, undefined):
        doc = {"kind": "single", "dims": 2, "matrices": {"H": pairs(np.diag([0.5, -0.5])), "rho": pairs(np.diag(p))}}
        assert main(["temp", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert list(report) == ["temperature_report"]
        assert list(report["temperature_report"]) == with_reasons("temperature", undefined)


class TestDocumentParsing:
    def test_pairs_round_trip(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_array_equal(matrix_from_pairs(matrix_to_pairs(m)), m)

    def test_rejects_bare_numbers(self):
        with pytest.raises(ValidationError):
            matrix_from_pairs([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValidationError):
            load_input_document(write_doc(tmp_path, {"kind": "tripartite"}))

    def test_rejects_missing_matrix(self, tmp_path):
        doc = gibbs_qubit_doc()
        del doc["matrices"]["rho"]
        with pytest.raises(ValidationError):
            load_input_document(write_doc(tmp_path, doc))

    def test_rejects_shape_mismatch(self, tmp_path):
        doc = gibbs_qubit_doc()
        doc["dims"] = 3
        with pytest.raises(ValidationError):
            load_input_document(write_doc(tmp_path, doc))

    def test_rejects_bad_options(self, tmp_path):
        doc = gibbs_qubit_doc()
        doc["options"] = {"clip": 0.0}
        with pytest.raises(ValidationError):
            load_input_document(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("command,path,value", [
        pytest.param("bipartite", ("dims",), ["a", 2], id="dims-string"),
        pytest.param("bipartite", ("dims",), [2.5, 2], id="dims-fraction"),
        pytest.param("bipartite", ("dims",), [True, 2], id="dims-bool"),
        pytest.param("temp", ("dims",), True, id="single-dims-bool"),
        pytest.param("temp", ("options", "clip"), "x", id="clip-string"),
        pytest.param("temp", ("options", "clip"), None, id="clip-null"),
        pytest.param("temp", ("options", "tol"), "x", id="tol-string"),
        pytest.param("temp", ("options", "tol"), None, id="tol-null"),
        # Written as a bare JSON number, which the parser reads as inf.
        pytest.param("temp", ("options", "clip"), "1e400", id="clip-overflow"),
        pytest.param("bipartite", ("model_params", "omega_S"), "a", id="model-string"),
        pytest.param("bipartite", ("model_params", "lam"), [1], id="model-list"),
        pytest.param("temp", ("matrices",), "H rho", id="matrices-string"),
        pytest.param("temp", ("matrices",), None, id="matrices-null"),
        pytest.param("temp", ("matrices",), 5, id="matrices-number"),
    ])
    def test_malformed_fields_are_input_errors(self, tmp_path, capsys, command, path, value):
        if command == "temp":
            doc = gibbs_qubit_doc()
        elif path[0] == "dims":
            doc = coupled_qubits_doc(np.eye(4) / 4.0)
        else:
            doc = {"kind": "model", "model_params": {"omega_S": 2.0, "omega_B": 1.0, "lam": 0.2, "beta": 1.0}}
        *outer, key = path
        target = doc
        for name in outer:
            target = target.setdefault(name, {})
        target[key] = "VALUE"
        text = json.dumps(doc).replace('"VALUE"', value if value == "1e400" else json.dumps(value))
        (tmp_path / "in.json").write_text(text)
        assert main([command, str(tmp_path / "in.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command,text,message", [
        pytest.param("temp", "[1, 2]", "input document must be a JSON object", id="array-document"),
        pytest.param("temp", '{"kind": "single", "dims": 2, "options": [1], "matrices": {}}',
                     "options must be an object", id="options-list"),
        pytest.param("bipartite", '{"kind": "model"}', "model kind requires model_params", id="no-model-params"),
        pytest.param("bipartite", '{"kind": "model", "model_params": {"omega_S": 2.0, "omega_B": 1.0, "lam": 0.2}}',
                     "model_params missing key 'beta'", id="model-params-key"),
        pytest.param("temp", '{"kind": "single", "dims": 1, "matrices": {"H": [[["a", 0]]], "rho": [[[1, 0]]]}}',
                     "malformed matrix entries: ", id="non-numeric-pair"),
        *(pytest.param("bipartite", f'{{"kind": "bipartite", "dims": {dims}, "matrices": {{}}}}',
                       "bipartite kind requires integer dims = [d_S, d_B]", id=f"bipartite-dims-{dims}")
          for dims in ("4", "[2]", "[2, 2, 2]")),
    ])
    def test_refused_documents_name_the_fault(self, tmp_path, capsys, command, text, message):
        (tmp_path / "in.json").write_text(text)
        assert main([command, str(tmp_path / "in.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1

    def test_unreadable_path_is_input_error(self, tmp_path, capsys):
        assert main(["temp", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input: ") and str(tmp_path) in err

    def test_extended_real_values(self):
        assert extended_real(1.5) == 1.5
        assert extended_real(math.inf) == "inf"
        assert extended_real(-math.inf) == "-inf"
        assert extended_real(math.nan) == "undefined"

    def test_undefined_fields_carry_reasons(self):
        import dataclasses

        from neqtemp.correlation import correlation_inverse_temperature
        from neqtemp.models import TwoQubitXYParams, build_two_qubit_xy, closed_form
        from neqtemp.thermometry import inverse_temperature

        sys_ = build_two_qubit_xy(TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=1.0))
        local = inverse_temperature(sys_.rho_S, sys_.effective.H_S_eff)
        temp = temperature_report_dict(
            dataclasses.replace(local, beta=math.nan, temperature=math.nan)
        )
        corr = correlation_report_dict(
            dataclasses.replace(correlation_inverse_temperature(sys_), beta_chi=math.nan)
        )
        for out, name in ((temp, "beta"), (temp, "temperature"), (corr, "beta_chi")):
            assert out[name] == "undefined"
            assert isinstance(out[name + "_reason"], str) and out[name + "_reason"]
