"""End-to-end command-line checks: exit codes, canonical JSON, determinism.

The certify exit code encodes the verdict (0 symmetric, 2 obstructed,
3 inconclusive); malformed input is 64, other toolkit failures are 65,
and verify-paper signals any failed suite entry with exit 1.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from csokit import serialize
from csokit.cli import build_parser
from csokit.indestructible import witness_matrix
from csokit.linalg import direct_sum

J2 = {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "csokit", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def matrix_arg(M):
    return serialize.dumps(serialize.matrix_to_json(np.asarray(M, dtype=complex)))


def test_serialize_matrix_roundtrip():
    M = np.array([[1.0 + 2j, 0.0], [-1j, 3.0]])
    back = serialize.matrix_from_json(json.loads(serialize.dumps(serialize.matrix_to_json(M))))
    assert np.array_equal(back, M)


def test_serialize_rejects_nan():
    with pytest.raises(ValueError):
        serialize.dumps({"x": float("nan")})


def test_certify_symmetric_exit_0():
    p = run_cli("certify", "--matrix", matrix_arg([[0.0, 0.0], [1.0, 0.0]]))
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["verdict"] == "c_symmetric"
    assert out["residual"] <= 1e-9
    G = serialize.matrix_from_json(out["G"])
    assert np.allclose(G, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_certify_obstructed_exit_2():
    p = run_cli("certify", "--matrix", matrix_arg(witness_matrix(1.0, 2.0)))
    assert p.returncode == 2
    out = json.loads(p.stdout)
    assert out["verdict"] == "obstructed"
    assert out["word"] == "xxy"
    assert out["gap"] == pytest.approx(2.0)


def test_certify_inconclusive_exit_3_with_null_residual():
    big = np.zeros((3, 3), dtype=complex)
    big[0, 1] = 10.0
    big[1, 2] = 10.0
    T = direct_sum(big, witness_matrix(1.0, 2.0))
    p = run_cli("certify", "--matrix", matrix_arg(T))
    assert p.returncode == 3
    out = json.loads(p.stdout)
    assert out["verdict"] == "inconclusive"
    assert out["residual"] is None


def test_malformed_input_exit_64():
    p = run_cli("certify", "--matrix", '{"rows": 2}')
    assert p.returncode == 64
    p = run_cli("certify", "--matrix", "/no/such/file.json")
    assert p.returncode == 64
    p = run_cli("certify", "--matrix", '{"rows": 2, "cols": 3, "data": []}')
    assert p.returncode == 64


def test_invalid_symbol_and_quadrature_exit_64():
    p = run_cli(
        "tto",
        "--u",
        '{"zeros": [[0.0, 0.0], [0.0, 0.0]]}',
        "--phi",
        '{"rational": {"num": [1.0], "den": [1.0, -1.0]}}',
    )
    assert p.returncode == 64  # boundary pole is rejected as input
    p = run_cli(
        "tto",
        "--u",
        serialize.dumps({"zeros": [[0.0, 0.0]] * 4}),
        "--phi",
        serialize.dumps({"poly": [[0.0, 0.0]] * 12 + [[1.0, 0.0]]}),
        "--quad",
        "64",
    )
    assert p.returncode == 64  # quadrature floor violation


def test_precondition_failure_exit_65():
    J3 = np.zeros((3, 3))
    J3[1, 0] = 1.0
    J3[2, 1] = 1.0
    p = run_cli("synthesize", "--matrix", matrix_arg(J3))
    assert p.returncode == 65
    assert "error" in p.stderr


def test_tto_subcommand_monomial_oracle(tmp_path):
    out_file = tmp_path / "tto.json"
    p = run_cli(
        "tto",
        "--u",
        '{"zeros": [[0.0, 0.0], [0.0, 0.0]]}',
        "--phi",
        '{"poly": [[0.0, 0.0], [1.0, 0.0]]}',
        "--out",
        str(out_file),
    )
    assert p.returncode == 0, p.stderr
    M = serialize.matrix_from_json(json.loads(out_file.read_text()))
    assert np.allclose(M, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_destructor_subcommand():
    p = run_cli("destructor", "--matrix", matrix_arg(np.eye(2)))
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert out["conclusion"] == "destroyed"
    assert out["norm_wB"] == pytest.approx(2.0)
    assert out["norm_wB_rev"] == pytest.approx(4.0)
    p = run_cli("destructor", "--matrix", matrix_arg(J2_mat()))
    assert json.loads(p.stdout)["conclusion"] == "indestructible_sampled"


def J2_mat():
    return np.array([[0.0, 0.0], [1.0, 0.0]])


def test_synthesize_subcommand():
    p = run_cli("synthesize", "--matrix", matrix_arg([[0.0, 0.0], [2.0, 0.0]]))
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["converged"] is True
    assert out["equivalence_residual"] <= 1e-10
    assert out["u_total"]["zeros"] == [[0.0, 0.0], [0.0, 0.0]]


def test_synthesize_output_is_byte_deterministic():
    args = ("synthesize", "--matrix", matrix_arg([[0.0, 0.0], [1.5, 0.0]]), "--seed", "7")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_question1_search_reports_both_routes():
    p = run_cli(
        "question1-search",
        "--matrix",
        matrix_arg(witness_matrix(1.0, 2.0)),
        "--samples",
        "32",
    )
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert out["word_search"]["word"] == "xxy"
    assert out["polynomial_search"]["violations"] > 0
    assert "resolves nothing" in out["note"]


def test_question2_compare_runs_both_syntheses():
    p = run_cli("question2-compare", "--matrix", matrix_arg([[0.0, 0.0], [1.0, 0.0]]))
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert out["base"]["converged"] is True
    assert out["padded"]["converged"] is True
    assert len(out["padded"]["W"]["data"]) == 9  # padded problem is 3x3


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "--matrix", "N.json", "--tol", "1e-6"],
        ["synthesize", "--matrix", "N.json", "--budget", "10"],
        ["question2-compare", "--matrix", "N.json", "--budget", "10"],
        ["verify-paper", "--budget", "10"],
        ["tto", "--u", "u.json", "--phi", "phi.json", "--seed", "1"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_verify_paper_passes_and_prints_entry_lines():
    p = run_cli("verify-paper", timeout=900)
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout)
    assert report["all_pass"] is True
    names = [e["name"] for e in report["entries"]]
    assert "determinism" in names
    for name in names:
        assert f"[PASS] {name}" in p.stderr
