"""End-to-end command-line checks: exit codes, canonical JSON, determinism.

The certify exit code encodes the verdict (0 symmetric, 2 obstructed,
3 inconclusive); malformed input is 64, other toolkit failures are 65,
and verify-paper signals any failed suite entry with exit 1.
"""

import contextlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csokit import serialize, verify
from csokit.cli import build_parser, main
from csokit.ensembles import random_unitary, stream
from csokit.errors import AccuracyError, InputError
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


def run_main(*args):
    """Exit code of the CLI run in this process (usage errors exit 64 through SystemExit)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(args))
        except SystemExit as exc:
            return exc.code


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
    assert sorted(out) == ["G", "residual", "verdict"]
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


@pytest.mark.parametrize("rows, cols", [(-1, -1), (-2, -3), (-1, 0), (0, -4)])
@pytest.mark.parametrize("command", ["certify", "destructor", "synthesize"])
def test_negative_matrix_dimensions_exit_64(command, rows, cols):
    # rows = cols = -1 with one entry passed the length check (-1 * -1 = 1)
    # and exited 1, the code of a failed verify-paper entry, with a raw
    # reshape ValueError
    data = [[1.0, 0.0]] * (rows * cols)
    M = json.dumps({"rows": rows, "cols": cols, "data": data})
    code, _, err = run_main_output(command, "--matrix", M)
    assert code == 64 and "non-negative" in err
    with pytest.raises(InputError, match="non-negative"):
        serialize.matrix_from_json({"rows": rows, "cols": cols, "data": data})


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_exit_64(tmp_path, target):
    # a missing directory or a directory as --out used to leak a raw
    # FileNotFoundError or IsADirectoryError, exit 1
    out = tmp_path / target
    code, stdout, err = run_main_output(
        "tto", "--u", '{"zeros": [[0.5, 0]]}', "--phi", '{"poly": [[1, 0]]}', "--out", str(out)
    )
    assert code == 64 and "cannot write" in err and stdout == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "-1e-9", "-inf"])
@pytest.mark.parametrize("command", ["certify", "question1-search"])
def test_non_positive_or_non_finite_tol_exit_64(command, tol):
    # a tol <= 0 used to turn the symmetric matrix's "x" into an obstruction;
    # "-1e-9" and "-inf" are separate arguments that argparse alone reads as options
    S = matrix_arg([[1.0, 2j], [2j, 3.0]])
    assert run_main(command, "--matrix", S, "--tol", tol) == 64


@pytest.mark.parametrize(
    "command",
    [
        ["question1-search", "--matrix", "J2", "--samples", "4"],
        ["verify-paper"],
    ],
    ids=lambda command: command[0],
)
def test_negative_seed_exit_64(command):
    # numpy's SeedSequence used to raise a bare ValueError here (exit 1, the
    # code of a failed verify-paper entry)
    argv = [json.dumps(J2) if arg == "J2" else arg for arg in command]
    assert run_main(*argv, "--seed", "-1") == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["question1-search", "--matrix", "J2", "--max-len", "0"],
        ["question1-search", "--matrix", "J2", "--max-len", "-2"],
        ["question1-search", "--matrix", "J2", "--samples", "-1"],
        ["question1-search", "--matrix", "J2", "--samples", "0"],
    ],
)
def test_out_of_range_counts_exit_64(argv):
    # --max-len 0 used to exit 1 with a raw ValueError, and --samples -1 was
    # echoed back as "samples": -1
    assert run_main(*[json.dumps(J2) if arg == "J2" else arg for arg in argv]) == 64


def run_main_output(*args):
    """(exit code, stdout, stderr) of the CLI run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("eps", [1e-8, 1e-5])
def test_one_order_two_decision_for_certify_destructor_and_synthesize(eps):
    # J2 (+) [eps] has ||T^2|| = eps^2 ||T||^2 but rank 2 in C^3 at tol 1e-9,
    # so it is not of order two.  certify used to exit 3, destructor 0
    # (indestructible_sampled) and synthesize 65.
    T = direct_sum(J2_mat(), eps)
    code, out, _ = run_main_output("certify", "--matrix", matrix_arg(T))
    assert code == 0
    reply = json.loads(out)
    G = serialize.matrix_from_json(reply["G"])
    assert reply["verdict"] == "c_symmetric" and reply["residual"] <= 1e-9
    assert np.linalg.norm(G @ G.conj().T - np.eye(3), 2) <= 1e-9
    assert np.linalg.norm(G - G.T, 2) <= 1e-9
    assert np.linalg.norm(T @ G - G @ T.T, 2) <= 1e-9 * np.linalg.norm(T, 2)
    code, _, err = run_main_output("destructor", "--matrix", matrix_arg(T))
    assert code == 65 and "rank 2 exceeds half the dimension 3" in err
    code, _, err = run_main_output("synthesize", "--matrix", matrix_arg(T))
    assert code == 65 and "not nilpotent of order two" in err


def fuzzed_matrix(kind, seed, n, log_scale):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "empty":
        M = np.zeros((0, 0))
    elif kind == "scalar":
        M = Z[:1, :1]
    elif kind == "zero":
        M = np.zeros((n, n))
    elif kind == "non_square":
        M = Z[:, : n - 1]
    elif kind == "repeated_eigenvalue":
        Q, _ = np.linalg.qr(Z)
        M = Q @ (np.eye(n) + np.diag(rng.integers(0, 2, n - 1).astype(float), -1)) @ Q.conj().T
    elif kind == "near_nilpotent":
        N = np.zeros((n, n), dtype=complex)
        N[n - n // 2 :, : n // 2] = Z[: n // 2, : n // 2]
        M = N + 10.0 ** rng.uniform(-12, -6) * Z
    else:
        M = Z
    M = 10.0**log_scale * np.asarray(M, dtype=complex)
    data = [[z.real, z.imag] for z in M.ravel()]
    if kind == "non_finite":
        data[int(rng.integers(len(data)))][int(rng.integers(2))] = float(rng.choice([np.nan, np.inf]))
    return json.dumps({"rows": M.shape[0], "cols": M.shape[1], "data": data})


FUZZED_MATRICES = dict(
    kind=st.sampled_from(
        ["empty", "scalar", "zero", "non_square", "non_finite", "repeated_eigenvalue",
         "near_nilpotent", "generic"]
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    log_scale=st.floats(-8.0, 8.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    **FUZZED_MATRICES,
    sign=st.sampled_from([1.0, 1.0, 1.0, -1.0, 0.0]),
    log_tol=st.floats(-15.0, -1.0),
)
def test_certify_exit_code_contract(kind, seed, n, log_scale, sign, log_tol):
    tol = sign * 10.0**log_tol
    code = run_main("certify", "--matrix", fuzzed_matrix(kind, seed, n, log_scale), f"--tol={tol!r}")
    assert code in (0, 2, 3, 64, 65)
    if tol <= 0 or kind in ("non_square", "non_finite"):
        assert code == 64


@pytest.mark.parametrize(
    "command",
    [
        ["destructor"],
        ["synthesize"],
        ["question1-search", "--samples", "16"],
    ],
    ids=lambda command: command[0],
)
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(**FUZZED_MATRICES)
def test_matrix_subcommands_exit_code_contract(command, kind, seed, n, log_scale):
    # every --matrix subcommand returns a verdict or a toolkit error code;
    # a raw exception escaping main fails the test
    code = run_main(*command, "--matrix", fuzzed_matrix(kind, seed, n, log_scale))
    assert code in (0, 2, 3, 64, 65)
    if kind in ("non_square", "non_finite"):
        assert code == 64


def test_invalid_symbol_and_quadrature_exit_64():
    p = run_cli(
        "tto",
        "--u",
        '{"zeros": [[0.0, 0.0], [0.0, 0.0]]}',
        "--phi",
        '{"rational": {"num": [1.0], "den": [1.0, -1.0]}}',
    )
    assert p.returncode == 64  # boundary pole is rejected as input
    p = run_cli("verify-paper", "--quad", "32")
    assert p.returncode == 64  # below the 64-node quadrature floor
    # far above the node cap: refused before any allocation or fork; it used
    # to exit 1, the code of a failed entry, with numpy's memory error
    assert run_main("verify-paper", "--quad", "100000000000") == 65


@pytest.mark.parametrize(
    "phi",
    [
        '{"poly": [[NaN, 0], [1, 0]]}',
        '{"rational": {"num": [[1, 0]], "den": [[1, 0], [1e-320, 0]]}}',
        '{"rational": {"num": [[1e300, 0]], "den": [[1e-300, 0], [1e-301, 0]]}}',
    ],
    ids=["nan", "subnormal-lead", "overflow"],
)
def test_non_finite_or_badly_scaled_symbol_exit_64(phi):
    # these exited 1 with a raw ValueError (NaN is out of JSON's range, and
    # so is the overflowed matrix) or a LinAlgError from np.roots
    assert run_main("tto", "--u", '{"zeros": [[0.5, 0], [0.1, 0.2]]}', "--phi", phi) == 64


def test_precondition_failure_exit_65():
    J3 = np.zeros((3, 3))
    J3[1, 0] = 1.0
    J3[2, 1] = 1.0
    p = run_cli("synthesize", "--matrix", matrix_arg(J3))
    assert p.returncode == 65
    assert "error" in p.stderr


def test_past_the_capacity_caps_exit_65():
    # 4097 zeros would have built a 4097 x 4097 compressed shift (1e5 zeros,
    # 160 GB), and a rotated 2 I_60 (+) A (+) A^T, whose phase conjugation
    # fails, an 8712 x 3612 system for its intertwiner space
    u = json.dumps({"zeros": [[0.0, 0.0]] * 4097})
    code, _, err = run_main_output("tto", "--u", u, "--phi", '{"poly": [[0.0, 0.0], [1.0, 0.0]]}')
    assert code == 65 and "exceeds the dimension cap" in err
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Q = random_unitary(stream(11, 66), 66)
    T = Q @ direct_sum(2 * np.eye(60), A, A.T) @ Q.conj().T
    code, _, err = run_main_output("certify", "--matrix", matrix_arg(T))
    assert code == 65 and "exceeds the dimension cap" in err


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


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--alpha", "nan", "alpha"),
        ("--beta", "inf", "beta"),
        ("--alpha", "1e200", "alpha^2 beta"),
        ("--alpha", "1e104", "max(alpha, beta)"),
    ],
)
def test_destructor_witness_out_of_range_exits_64(flag, value, named):
    code, out, err = run_main_output("destructor", "--matrix", matrix_arg(np.eye(2)), flag, value)
    assert code == 64 and out == ""
    assert f"witness parameter {named} = " in err and "non-finite entries" not in err


def test_destructor_subcommand():
    p = run_cli("destructor", "--matrix", matrix_arg(np.eye(2)))
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert out["conclusion"] == "destroyed"
    assert out["norm_wB"] == pytest.approx(2.0)
    assert out["norm_wB_rev"] == pytest.approx(4.0)
    assert out["norm_wA"] == out["norm_wA_rev"] == pytest.approx(1.0)
    p = run_cli("destructor", "--matrix", matrix_arg(J2_mat()))
    assert json.loads(p.stdout)["conclusion"] == "indestructible_sampled"


@pytest.mark.parametrize("scale", [1.0, 1e120, 1e-120])
def test_witness_at_extreme_scales_is_obstructed_or_refused(scale, tmp_path):
    # the word products of 1e120 B overflow and those of 1e-120 B underflow;
    # both subcommands then exit 65 naming ||B|| = 2 scale, where they used to
    # call the finite input non-finite (exit 64) or end inconclusive (exit 3)
    M = matrix_arg(scale * witness_matrix(1.0, 2.0))
    expected = {"certify": ("word", "xxy", 2), "destructor": ("conclusion", "destroyed", 0)}
    for command, (key, value, code) in expected.items():
        out = tmp_path / f"{command}.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            exit_code = main([command, "--matrix", M, "--out", str(out)])
        if scale == 1.0:
            assert exit_code == code
            assert json.loads(out.read_text())[key] == value
        else:
            assert exit_code == 65
            assert f"{2 * scale:.3e}" in err.getvalue()


@pytest.mark.parametrize("scale", [1e120, 1e-120])
def test_question1_search_refuses_a_norm_out_of_range(scale):
    # the word search finds nothing on a symmetric matrix, so the polynomial
    # search decides; at 1e120 it used to exit 64 ("non-finite entries")
    S = scale * np.array([[1.0, 2j, 0.5], [2j, 3.0, 1.0], [0.5, 1.0, -1.0]])
    code, out, err = run_main_output("question1-search", "--matrix", matrix_arg(S))
    assert (code, out) == (65, "")
    assert "out of range for the polynomial search" in err and "rescale T" in err


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
    args = ("synthesize", "--matrix", matrix_arg([[0.0, 0.0], [1.5, 0.0]]))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "--matrix", "N.json", "--tol", "1e-6"],
        ["synthesize", "--matrix", "N.json", "--budget", "10"],
        ["verify-paper", "--budget", "10"],
        ["verify-paper", "--tol", "1e-6"],
        ["tto", "--u", "u.json", "--phi", "phi.json", "--seed", "1"],
        ["tto", "--u", "u.json", "--phi", "phi.json", "--quad", "256"],
        ["synthesize", "--matrix", "N.json", "--quad", "256"],
        ["destructor", "--matrix", "A.json", "--budget", "10"],
        ["certify", "--matrix", "T.json", "--seed", "1"],
        ["certify", "--matrix", "T.json", "--budget", "10"],
        ["synthesize", "--matrix", "N.json", "--seed", "7"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["certify"],
        ["certify", "--matrix", "J2", "--bogus", "1"],
        ["certify", "--matrix", "J2", "--tol", "-1e-9"],
        ["question1-search", "--matrix", "J2", "--samples", "two"],
        [],
    ],
    ids=["missing-matrix", "unknown-flag", "dash-led-value", "non-integer", "no-subcommand"],
)
def test_usage_errors_exit_64(argv):
    # argparse exits 2 on a usage error, which is certify's "obstructed"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([json.dumps(J2) if arg == "J2" else arg for arg in argv])
    assert exc.value.code == 64
    assert "error:" in err.getvalue()


def test_verify_paper_passes_and_prints_entry_lines():
    p = run_cli("verify-paper", timeout=900)
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout)
    assert report["all_pass"] is True
    names = [e["name"] for e in report["entries"]]
    assert "determinism" in names
    for name in names:
        assert f"[PASS] {name}" in p.stderr


# With two usable CPUs the determinism rerun runs in a forked worker, which
# inherits a patched verify.ENTRIES; these entries behave differently there.
forked_worker = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker inherits the patched entries only when forked",
)


def verify_paper_with(monkeypatch, tmp_path, entry, cpus=None):
    """(exit code, stderr, report or None) of verify-paper over ``entry`` alone.

    ``cpus`` stands in for the usable CPU count when given.
    """
    monkeypatch.setattr(verify, "ENTRIES", (entry,))
    if cpus is not None:
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    out = tmp_path / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify-paper", "--out", str(out)])
    assert not multiprocessing.active_children()  # the pool is shut down
    return code, err.getvalue(), json.loads(out.read_text()) if out.exists() else None


@forked_worker
@pytest.mark.parametrize("draw", [np.random.random, random.random])
def test_a_pass_reading_a_global_rng_fails_determinism(monkeypatch, tmp_path, draw):
    def global_rng_entry(cfg):
        return verify._entry("global_rng", "reads a global RNG", True, {"draw": draw()})

    code, _, report = verify_paper_with(monkeypatch, tmp_path, global_rng_entry)
    assert code == 1
    status = {e["name"]: e["status"] for e in report["entries"]}
    assert status == {"global_rng": "pass", "determinism": "fail"}


@forked_worker
@pytest.mark.parametrize("cpus, exit_code", [(1, 0), (2, 65)])
def test_a_toolkit_error_in_the_worker_exits_65(monkeypatch, tmp_path, cpus, exit_code):
    parent = os.getpid()

    def entry(cfg):
        if os.getpid() != parent:
            raise AccuracyError("guard failed in the worker")
        return verify._entry("parent_only", "passes in the parent", True, {})

    # on one CPU both passes run in this process, so no worker fails
    code, err, report = verify_paper_with(monkeypatch, tmp_path, entry, cpus)
    assert code == exit_code
    assert ("guard failed in the worker" in err) == (exit_code == 65)


@forked_worker
def test_a_worker_that_dies_exits_65_without_a_traceback(monkeypatch, tmp_path):
    parent = os.getpid()

    def entry(cfg):
        if os.getpid() != parent:
            os._exit(3)
        return verify._entry("parent_only", "passes in the parent", True, {})

    code, err, report = verify_paper_with(monkeypatch, tmp_path, entry, cpus=2)
    assert code == 65 and report is None
    assert "determinism worker died" in err and "Traceback" not in err


def test_import_does_not_load_multiprocessing():
    probe = "import sys, csokit, csokit.cli; print('multiprocessing' in sys.modules)"
    p = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "False"


def test_subcommands_load_no_scipy():
    matrix = json.dumps(J2)
    probe = f"""
import contextlib, io, sys
import csokit, csokit.cli
calls = [
    ["certify", "--matrix", {matrix!r}],
    ["destructor", "--matrix", {matrix!r}],
    ["synthesize", "--matrix", {matrix!r}],
    ["tto", "--u", '{{"zeros": [[0.5, 0.0]]}}', "--phi", '{{"poly": [[0.0, 0.0], [1.0, 0.0]]}}'],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [csokit.cli.main(args) for args in calls]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    p = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[0, 0, 0, 0] []"
