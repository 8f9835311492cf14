"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

A single verification sweep at the acceptance configuration (3 guaranteed
primes, 16 guaranteed digits, oracle depth 6) feeds most criteria; the
remaining ones drive the library or the CLI directly.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from padiczeta.cli import main as cli_main
from padiczeta.padic import PadicContext, agreement_depth
from padiczeta.verify import VerifyConfig, default_slack, run_verify
from padiczeta.zeta_czp import raabe_closed_forms

ACCEPT_PRIMES = (3, 5, 7)
ACCEPT_PREC = 16
ORACLE_DEPTH = 6


@pytest.fixture(scope="module")
def reports():
    cfg = VerifyConfig(
        primes=ACCEPT_PRIMES,
        workprec=ACCEPT_PREC,
        oracle_depth=ORACLE_DEPTH,
        report_both_forms=True,
    )
    return list(run_verify(cfg, None))


def _select(reports, *identities):
    out = [r for r in reports if r.identity in identities]
    assert out, f"no reports produced for {identities}"
    return out


def _check(name, group):
    bad = [r for r in group if not r.passed]
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({len(group)} checks)")
    assert not bad, [f"{r.identity} {dict(r.params)} {r.note}" for r in bad[:5]]


def test_c1_euler_exactness(reports):
    group = _select(
        reports,
        "euler-conversion",
        "euler-shift",
        "euler-reflection",
        "euler-distribution",
        "euler-quadratic",
        "alternating-sum",
        "integral-shift-delta",
        "integral-shift-nabla",
        "integral-shift-pair",
    )
    assert all(r.agreement_depth is None for r in group)  # exact, zero tolerance
    _check("1 euler-exactness (m<=20, exact)", group)


def test_c2_integral_convergence(reports):
    group = _select(reports, "integral-convergence")
    # p in {3,5,7} x four shifts x N in 2..6, each aggregating m <= 12
    assert len(group) == 3 * 4 * 5
    for r in group:
        assert r.required_depth == r.reference_depth  # v_p(error) >= N, no slack
    _check("2 integral-convergence (v_p >= N)", group)


def test_c3_zeta_at_one(reports):
    group = _select(reports, "zeta-one")
    assert len(group) == 50
    assert all(r.required_depth == ACCEPT_PREC for r in group)
    _check("3 zeta(1,x) = 1 at full precision (50 samples)", group)


def test_c4_special_values(reports):
    group = _select(reports, "special-neg")
    assert all(r.required_depth == ACCEPT_PREC for r in group)
    _check("4 zeta(1-m,x) matches exact Euler route (m<=8)", group)


def test_c5_oracle_equivalence(reports):
    slack = default_slack()
    assert all(c <= 2 for c in slack.values()), slack
    group = _select(
        reports,
        "oracle-czp",
        "oracle-char",
        "ell-oracle",
        "special-pos",
        "shifted-expansion-oracle",
        "change-of-variable",
    )
    for r in group:
        assert r.reference_depth is not None
        assert r.required_depth >= r.reference_depth - 2
    _check("5 truncated-sum oracle equivalence (depth >= N - c, c <= 2)", group)


def test_c6_identity_suite(reports):
    group = _select(
        reports,
        "functional-czp",
        "reflection-czp",
        "distribution-czp",
        "derivative-czp",
        "shifted-expansion",
        "functional-char",
        "reflection-char",
        "positive-n-char",
        "distribution-char",
        "derivative-char",
        "derivative-char-at-zero",
        "special-char",
        "representation-char",
        "power-series-char",
    )
    ks = {r.reference_depth for r in reports if r.identity == "derivative-czp"}
    assert ks == {4, 6, 8}
    _check("6 identity suite (functional/reflection/distribution/...)", group)


def test_c7_raabe(reports):
    group = _select(reports, "raabe-czp", "raabe-czp-oracle", "raabe-char")
    _check("7 raabe: termwise = oracle = closed form; char form as printed", group)
    # the alternative closed-form rearrangement is recorded without failing
    variants = _select(reports, "raabe-czp-variant")
    assert all(r.status == "pass" for r in variants)  # informational entries
    assert any(r.agreement_depth is not None and r.agreement_depth <= 2 for r in variants)
    # documented residual at s = 1: the rearranged form gives 2 + 1/x^2
    ctx = PadicContext(5, ACCEPT_PREC)
    x = Fraction(1, 5)
    forms = raabe_closed_forms(ctx, 1, x)
    assert forms["termwise"] == 1
    assert forms["variant"] - forms["termwise"] == 1 + Fraction(1, x**2)
    print("ACCEPTANCE 7 raabe stated-form residual at s=1 equals 1 + 1/x^2: PASS")


def test_c8_even_character_vanishing(reports):
    group = _select(reports, "ell-even-zero")
    assert {int(dict(r.params)["p"]) for r in group} == set(ACCEPT_PRIMES)
    assert all(r.required_depth == ACCEPT_PREC for r in group)
    _check("8 ell(chi, s) = 0 for even tame characters", group)


def test_c9_determinism_across_threads(tmp_path):
    path = tmp_path / "verify.jsonl"
    code = cli_main(
        [
            "verify",
            "--prec", "12",
            "--oracle-depth", "3",
            "--seed", "7",
            "--format", "json",
            "--report-both-forms",
            "-o", str(path),
        ]
    )
    assert code == 0
    # the report bytes are pinned: any change to them must be deliberate
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    pinned = digest == "a46e1897fefb790a1d1f09ebc5dd1038902e7ef7f9fb9d89b961c5652ff694ea"
    # verify runs serially; --threads is still accepted and changes no byte
    outputs = []
    for threads in (1, 8):
        path = tmp_path / f"zeta-one-{threads}.jsonl"
        argv = ["verify", "--identity", "zeta-one", "--threads", str(threads), "--seed", "7"]
        assert cli_main(argv + ["--format", "json", "-o", str(path)]) == 0
        outputs.append(path.read_bytes())
    status = "PASS" if pinned and outputs[0] == outputs[1] else "FAIL"
    print(f"ACCEPTANCE 9 pinned report bytes, same with 1 and 8 threads: {status}")
    assert pinned, digest
    assert outputs[0] == outputs[1]
