"""Acceptance suite: nine standalone criteria with pinned tolerances.

Each test prints one [PASS]/[FAIL] line so the run log shows the verdicts
directly.  The criteria re-run the seeded verification entries rather than
trusting any cached report, and criterion 9 byte-compares two full suite
replays.
"""

import time

from csokit import serialize
from csokit.verify import (
    RunConfig,
    entry_explicit_blocks,
    entry_indestructibility,
    entry_order2_conjugations,
    entry_shift_coshift_blocks,
    entry_synthesis_roundtrip,
    entry_tensor_reflected_adjoint,
    entry_tto_suite,
    entry_word_identities,
    run_suite,
)

CFG = RunConfig()


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, detail


def test_criterion_1_order2_conjugations_within_30s():
    t0 = time.time()
    e = entry_order2_conjugations(CFG)
    dt = time.time() - t0
    r = e["residuals"]
    ok = (
        e["status"] == "pass"
        and r["cases"] == 200
        and r["symmetry"] <= 1e-9
        and r["invariants"] <= 1e-9
        and dt <= 30.0
    )
    report(
        1,
        ok,
        f"200 order-two nilpotents (dims <= 12): worst conjugation residual "
        f"{r['symmetry']:.3e} <= 1e-9, invariants {r['invariants']:.3e} <= 1e-9, "
        f"runtime {dt:.2f}s <= 30s",
    )


def test_criterion_2_explicit_blocks_match():
    e = entry_explicit_blocks(CFG)
    r = e["residuals"]
    ok = e["status"] == "pass" and r["cases"] == 50 and r["equivalence"] <= 1e-7
    report(
        2,
        ok,
        f"50 block-diagonal pairs: worst unitary-equivalence residual "
        f"{r['equivalence']:.3e} <= 1e-7",
    )


def test_criterion_3_indestructibility_both_directions():
    e = entry_indestructibility(CFG)
    r = e["residuals"]
    ok = (
        e["status"] == "pass"
        and r["cases"] == 200
        and r["forward_conjugation"] <= 1e-9
        and r["witness_norm_error"] <= 1e-10
        and r["min_norm_wA"] > 1e-6
    )
    report(
        3,
        ok,
        f"100 square-zero tensor conjugations (residual {r['forward_conjugation']:.3e} "
        f"<= 1e-9) and 100 destructor certificates (witness norms 2 and 4 to "
        f"{r['witness_norm_error']:.1e} <= 1e-10, min word norm {r['min_norm_wA']:.3e} > 1e-6)",
    )


def test_criterion_4_tensor_with_reflected_adjoint():
    e = entry_tensor_reflected_adjoint(CFG)
    r = e["residuals"]
    ok = e["status"] == "pass" and r["cases"] == 50 and r["symmetry"] <= 1e-9
    report(
        4,
        ok,
        f"50 products A kron JA*J: worst swap-conjugation symmetry residual "
        f"{r['symmetry']:.3e} <= 1e-9",
    )


def test_criterion_5_shift_coshift_blocks():
    e = entry_shift_coshift_blocks(CFG)
    r = e["residuals"]
    ok = (
        e["status"] == "pass"
        and r["block_sizes_1_to_8"]
        and r["single_chains"]
        and r["sv_gap"] <= 1e-10
    )
    report(
        5,
        ok,
        f"shift-tensor-coshift truncation at N=8: homogeneous blocks of sizes 1..8, "
        f"all single chains, singular value gap {r['sv_gap']:.3e} <= 1e-10",
    )


def test_criterion_6_tto_suite():
    e = entry_tto_suite(CFG)
    r = e["residuals"]
    ok = (
        e["status"] == "pass"
        and r["cases"] == 30
        and r["c_symmetry"] <= 1e-8
        and r["fn_calculus"] <= 1e-8
        and r["hankel_M256"] <= 1e-6
        and r["hankel_M512"] < 1e-6
        and r["hankel_error"] == ""
    )
    report(
        6,
        ok,
        f"30 random model-space operators: C-symmetry {r['c_symmetry']:.3e} <= 1e-8, "
        f"functional calculus {r['fn_calculus']:.3e} <= 1e-8, Hankel route "
        f"{r['hankel_M256']:.3e} <= 1e-6 at M=256 and {r['hankel_M512']:.3e} < 1e-6 at M=512",
    )


def test_criterion_7_synthesis_roundtrip_within_5min():
    t0 = time.time()
    e = entry_synthesis_roundtrip(CFG)
    dt = time.time() - t0
    r = e["residuals"]
    ok = (
        e["status"] == "pass"
        and r["cases"] == 50
        and r["successes"] == 50
        and not r["false_success"]
        and r["rank1_exact_residual"] <= 1e-10
        and r["rank4_exact_residual"] <= 1e-10
        and dt <= 300.0
    )
    report(
        7,
        ok,
        f"synthesis round trip: {r['successes']}/50 converged (all 50), no false "
        f"successes, exact rank-one residual {r['rank1_exact_residual']:.3e} <= 1e-10, "
        f"rank-four residual {r['rank4_exact_residual']:.3e} <= 1e-10, "
        f"runtime {dt:.1f}s <= 300s",
    )


def test_criterion_8_word_norm_identities():
    e = entry_word_identities(CFG)
    r = e["residuals"]
    ok = (
        e["status"] == "pass"
        and r["cases"] == 100
        and r["words"] == 62
        and r["worst_scaled_gap"] <= 1e-8
    )
    report(
        8,
        ok,
        f"100 certified matrices, all 62 words of length <= 5: worst scaled norm "
        f"gap {r['worst_scaled_gap']:.3e} <= 1e-8",
    )


def test_criterion_9_determinism_byte_identical():
    first = serialize.dumps(run_suite(CFG))
    second = serialize.dumps(run_suite(CFG))
    ok = first == second
    report(
        9,
        ok,
        f"two full suite replays with seed {CFG.seed} serialize to byte-identical "
        f"reports ({len(first)} bytes)",
    )
