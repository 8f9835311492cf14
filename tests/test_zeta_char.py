import random
from fractions import Fraction

import pytest

from padiczeta.characters import DirichletCharacter, char_eval
from padiczeta.errors import (
    ArgumentInZp,
    ArgumentOutsideZp,
    ArgumentViolation,
    BudgetExhausted,
    EvaluationCapExceeded,
    ExponentOutsideDomain,
    ParseError,
    PrecisionError,
)
from padiczeta.padic import PadicContext, agreement_depth, render
from padiczeta.cli import main
from padiczeta.zeta_char import (
    _oracle_value,
    _representation_sum,
    _representation_value,
    dzeta_char_dx,
    ell,
    ell_limit_oracle,
    power_series_zeta,
    raabe_char,
    representation_pair,
    zeta_char,
    zeta_char_oracle,
    zeta_char_special,
)
from padiczeta.verify import VerifyConfig, _check_char_suite
from padiczeta.zeta_czp import _DEFAULT_BUDGET, SeriesBudget, zeta_czp, zeta_czp_oracle

class TestCharacter:
    def test_basic_values(self, ctx5):
        chi = DirichletCharacter(5, 1, 2)
        assert char_eval(ctx5, chi, 1) == 1
        assert char_eval(ctx5, chi, 10).is_exact_zero
        assert char_eval(ctx5, chi, ctx5.exact_zero()).is_exact_zero

    def test_omega_square_of_two(self):
        ctx = PadicContext(5, 4, 0)
        chi = DirichletCharacter(5, 1, 2)
        assert char_eval(ctx, chi, 2).integer_rep(4) == pow(182, 2, 5**4)

    def test_parity(self, ctx5, ctx7):
        for p, ctx in ((5, ctx5), (7, ctx7)):
            for k in range(p - 1):
                chi = DirichletCharacter(p, 1, k)
                val = char_eval(ctx, chi, -1)
                assert val == (1 if k % 2 == 0 else -1)
                assert chi.is_even == (k % 2 == 0)

    def test_multiplicativity(self, ctx7):
        chi = DirichletCharacter(7, 1, 3)
        rng = random.Random(3)
        for _ in range(10):
            a = rng.randrange(1, 7**3)
            b = rng.randrange(1, 7**3)
            if a % 7 == 0 or b % 7 == 0:
                continue
            lhs = char_eval(ctx7, chi, a * b)
            rhs = char_eval(ctx7, chi, a) * char_eval(ctx7, chi, b)
            assert agreement_depth(lhs, rhs) >= 20

    def test_labels_and_parsing(self):
        chi = DirichletCharacter.parse("2:3", 5)
        assert (chi.v, chi.k) == (2, 3) and chi.modulus == 25
        assert chi.label == "2:3"
        assert chi.twist(-1).k == 2
        assert chi.twist(2).k == (3 + 2) % 4
        with pytest.raises(ParseError):
            DirichletCharacter.parse("3", 5)
        with pytest.raises(ParseError):
            DirichletCharacter.parse("1:9", 5)

    def test_domain(self, ctx5):
        chi = DirichletCharacter.trivial(5, 1)
        with pytest.raises(ArgumentOutsideZp):
            char_eval(ctx5, chi, Fraction(1, 5))


class TestZetaCharBasics:
    def test_s_one_is_character_sum(self):
        for p, v, k, x in ((3, 1, 0, 0), (5, 1, 2, 1), (5, 2, 3, 2), (7, 1, 1, 0)):
            ctx = PadicContext(p, 16)
            chi = DirichletCharacter(p, v, k)
            lhs = zeta_char(ctx, chi, 1, x)
            rhs = None
            for j in range(p**v):
                t = char_eval(ctx, chi, x + j)
                if j % 2 == 1:
                    t = -t
                rhs = t if rhs is None else rhs + t
            assert agreement_depth(lhs, rhs) >= 16

    def test_trivial_character_p3_s1_x0_vanishes(self, ctx3):
        v = zeta_char(ctx3, DirichletCharacter.trivial(3, 1), 1, 0)
        assert v.is_zero() and v.absprec >= 16

    def test_oracle_agreement(self):
        for p, v, k, s, x in (
            (3, 1, 1, 2, 0),
            (5, 1, 2, 0, 1),
            (5, 2, 1, 2, 2),
            (7, 1, 0, -1, 1),
        ):
            ctx = PadicContext(p, 14)
            chi = DirichletCharacter(p, v, k)
            series = zeta_char(ctx, chi, s, x)
            oracle = zeta_char_oracle(ctx, chi, s, x, 4)
            assert agreement_depth(series, oracle) >= 4

    def test_x_outside_zp_rejected(self, ctx5):
        chi = DirichletCharacter.trivial(5, 1)
        with pytest.raises(ArgumentOutsideZp):
            zeta_char(ctx5, chi, 2, Fraction(1, 5))

    def test_prime_mismatch(self, ctx5):
        with pytest.raises(ParseError):
            zeta_char(ctx5, DirichletCharacter.trivial(3, 1), 2, 0)


class TestEll:
    def test_even_characters_vanish(self):
        rng = random.Random(61)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 16)
            for v in (1, 2):
                for k in range(0, p - 1, 2):
                    chi = DirichletCharacter(p, v, k)
                    for s in (0, 2, rng.randrange(1, p**10)):
                        value = ell(ctx, chi, s)
                        assert value.is_zero() and value.absprec >= 16

    def test_odd_character_nonzero_matches_oracle(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        e = ell(ctx5, chi, 2)
        assert not e.is_zero()
        assert agreement_depth(e, ell_limit_oracle(ctx5, chi, 2, 5)) >= 5

    def test_limit_oracle_trivial_character_at_s1(self):
        # within every block of p consecutive integers the unit terms cancel
        for p in (3, 5, 7):
            ctx = PadicContext(p, 12)
            chi = DirichletCharacter.trivial(p, 1)
            for n in (1, 2, 3):
                assert ell_limit_oracle(ctx, chi, 1, n).is_zero()

    def test_limit_oracle_depth_improves(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        sums = [ell_limit_oracle(ctx5, chi, 2, n) for n in (3, 4, 5)]
        d1 = agreement_depth(sums[0], sums[1])
        d2 = agreement_depth(sums[1], sums[2])
        assert d2 >= d1 + 1


class TestSpecialValues:
    def test_spec_example_exact(self, ctx3):
        chi = DirichletCharacter.trivial(3, 1)
        lhs, rhs = zeta_char_special(ctx3, chi, 1, 0)
        assert rhs == 1
        assert agreement_depth(lhs, rhs) >= 16

    def test_k_range(self):
        for p in (3, 5):
            ctx = PadicContext(p, 14)
            for k0 in (0, 1):
                chi = DirichletCharacter(p, 1, k0)
                for k in range(1, 7):
                    for x in (0, 1):
                        lhs, rhs = zeta_char_special(ctx, chi, k, x)
                        shared = min(lhs.absprec, rhs.absprec)
                        assert agreement_depth(lhs, rhs) >= shared

    def test_trivial_twist_back(self, ctx5):
        # k=2 with chi = omega^(p-3) makes chi omega^2 trivial
        chi = DirichletCharacter(5, 1, 5 - 3)
        lhs, rhs = zeta_char_special(ctx5, chi, 2, 0)
        assert agreement_depth(lhs, rhs) >= min(lhs.absprec, rhs.absprec)


class TestIdentitySuite:
    def test_reports_pass(self):
        for p, v, k, s, x in (
            (5, 1, 1, 2, 1),
            (5, 2, 2, 0, 0),
            (3, 1, 1, -1, 2),
            (7, 1, 2, 2, 7),
        ):
            # both forms: the unscaled distribution report is checked too
            cfg = VerifyConfig(primes=(p,), workprec=14, report_both_forms=True)
            reports = _check_char_suite(cfg, p, v, k, s, x)
            for rep in reports:
                assert rep.status in ("pass",), (rep.identity, rep.note)

    def test_functional_at_zero_gives_minus_ell(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        lhs = zeta_char(ctx5, chi, 2, 1)
        rhs = -ell(ctx5, chi, 2)
        assert agreement_depth(lhs, rhs) >= 16


class TestDerivative:
    def test_s_one_vanishes(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        assert dzeta_char_dx(ctx5, chi, 1, 1).is_zero()

    def test_corollary_at_zero(self):
        for p, v, k in ((3, 1, 0), (5, 1, 1), (5, 2, 2)):
            ctx = PadicContext(p, 14)
            chi = DirichletCharacter(p, v, k)
            lhs = dzeta_char_dx(ctx, chi.twist(1), 0, 1)
            rhs = None
            for j in range(p**v):
                t = char_eval(ctx, chi, 1 + j)
                if j % 2 == 1:
                    t = -t
                rhs = t if rhs is None else rhs + t
            assert agreement_depth(lhs, rhs) >= 14

    def test_finite_difference(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        formula = dzeta_char_dx(ctx5, chi, 2, 1)
        for k in (4, 6):
            h = 5**k
            fd = (zeta_char(ctx5, chi, 2, 1 + h) - zeta_char(ctx5, chi, 2, 1)) / ctx5.from_int(h)
            assert agreement_depth(fd, formula) >= k


class TestRaabeChar:
    def test_oracle_agreement(self):
        for p, v, k, s, x, depth in (
            (3, 1, 0, 1, 2, 4),
            (5, 1, 1, 0, 1, 3),
        ):
            ctx = PadicContext(p, 14)
            chi = DirichletCharacter(p, v, k)
            lhs, rhs = raabe_char(ctx, chi, s, x, depth)
            assert agreement_depth(lhs, rhs) >= depth

    def test_x_zero_combines_ells(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        lhs, rhs = raabe_char(ctx5, chi, 0, 0, 3)
        sp = ctx5.coerce(0)
        direct = 2 * ell(ctx5, chi, 0) + 2 * ell(ctx5, chi.twist(1), sp - ctx5.one())
        assert agreement_depth(rhs, direct) >= min(rhs.absprec, direct.absprec)
        assert agreement_depth(lhs, rhs) >= 3


class TestRepresentation:
    def test_pure_p_power_consistency(self):
        for p, v, k, s, x in ((3, 1, 1, 2, 1), (5, 1, 0, 0, 0), (5, 2, 1, 2, 1)):
            ctx = PadicContext(p, 14)
            chi = DirichletCharacter(p, v, k)
            lhs, rhs = representation_pair(ctx, chi, s, x, power=1)
            assert agreement_depth(lhs, rhs) >= 14

    def test_coprime_factor_scaling(self):
        # M = N p^v reproduces <N>^(s-1) times the canonical value
        for p, factor in ((3, 5), (5, 3), (7, 3)):
            ctx = PadicContext(p, 14)
            chi = DirichletCharacter(p, 1, 1)
            lhs, rhs = representation_pair(ctx, chi, 2, 1, factor=factor)
            assert agreement_depth(lhs, rhs) >= 14
            unscaled = zeta_char(ctx, chi, 2, 1)
            assert agreement_depth(lhs, unscaled) < 14

    def test_bad_factor_rejected(self, ctx5):
        chi = DirichletCharacter.trivial(5, 1)
        with pytest.raises(ArgumentViolation):
            representation_pair(ctx5, chi, 2, 0, factor=2)
        with pytest.raises(ArgumentViolation):
            representation_pair(ctx5, chi, 2, 0, factor=5)
        with pytest.raises(ArgumentViolation):
            representation_pair(ctx5, chi, 2, 0, power=-1)

    def test_modulus_above_evaluation_cap_refused(self, ctx3):
        # the literal sum over M = 3^13 > 10^6 residues is refused before any
        # series is evaluated; zeta_char itself only sums over p residues
        with pytest.raises(EvaluationCapExceeded):
            representation_pair(ctx3, DirichletCharacter(3, 1, 1), 2, 1, factor=1, power=12)


def _digit_literal(ctx, rng, valuation, count):
    digits = [rng.randrange(1, ctx.p)] + [rng.randrange(ctx.p) for _ in range(count - 1)]
    return ctx.parse_value(f"{valuation}:" + ",".join(map(str, digits)))


@pytest.mark.parametrize(
    "p,v", [(p, v) for p in (3, 5, 7) for v in range(1, 6) if p**v <= 343]
)
def test_value_and_precision_do_not_depend_on_v(p, v):
    # zeta_char sums over M = p residues; the literal sum over M = p^v
    # residues must give the same digits and claim the same precision
    ctx = PadicContext(p, 12)
    rng = random.Random(f"v-independence:{p}:{v}")
    for k, x_val, s_val in ((0, 0, 0), (1, 0, 1), (1, 1, 0), (p - 2, 0, 0)):
        chi = DirichletCharacter(p, v, k)
        x = _digit_literal(ctx, rng, x_val, rng.randrange(3, 9))
        s = _digit_literal(ctx, rng, s_val, rng.randrange(3, 9))
        canonical = zeta_char(ctx, chi, s, x)
        literal = _representation_sum(ctx, chi, s, x, p**v, _DEFAULT_BUDGET)
        assert (render(canonical), canonical.absprec) == (render(literal), literal.absprec)


class TestPowerSeries:
    def test_x_zero_reduces_to_ell(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        a = power_series_zeta(ctx5, chi, 2, 0, 5)
        b = ell(ctx5, chi, 2)
        assert agreement_depth(a, b) >= 16

    def test_even_character_at_zero_vanishes(self, ctx5):
        chi = DirichletCharacter(5, 1, 2)
        assert power_series_zeta(ctx5, chi, 2, 0, 5).is_zero()

    def test_matches_direct_evaluation(self):
        for p, v, k, s, mult in ((3, 1, 0, 2, 1), (5, 1, 1, 2, 1), (5, 2, 1, 0, 2)):
            ctx = PadicContext(p, 12)
            chi = DirichletCharacter(p, v, k)
            x = mult * p**v
            terms = (12 + 2) * (p - 1) // (v * (p - 1) - 1) + 3
            series = power_series_zeta(ctx, chi, s, x, terms)
            direct = zeta_char(ctx, chi, s, x)
            shared = min(series.absprec, direct.absprec)
            assert agreement_depth(series, direct) >= shared

    def test_truncated_run_carries_reduced_precision(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        series = power_series_zeta(ctx5, chi, 2, 5, 8)
        # tail bound: 8*1 - ceil(7/4) = 6 guaranteed digits
        assert series.absprec == 6
        direct = zeta_char(ctx5, chi, 2, 5)
        assert agreement_depth(series, direct) >= 6

    def test_domain_check(self, ctx5):
        chi = DirichletCharacter(5, 2, 1)
        with pytest.raises(ArgumentViolation):
            power_series_zeta(ctx5, chi, 2, 5, 6)  # needs x in p^2 Z_p


CHI5 = DirichletCharacter(5, 1, 1)


def _clear_character_memos():
    _representation_value.cache_clear()
    _oracle_value.cache_clear()


class TestCharacterMemos:
    """A character value is computed once per Teichmuller exponent k: the
    memos of representation sums and of oracle sums are keyed by k, never by
    the level v, and never hold a refusal."""

    def test_levels_share_one_entry(self, ctx5):
        _clear_character_memos()
        one, two = DirichletCharacter(5, 1, 3), DirichletCharacter(5, 2, 3)
        for memo, call in (
            (_representation_value, lambda chi: zeta_char(ctx5, chi, Fraction(2, 7), 3)),
            (_oracle_value, lambda chi: zeta_char_oracle(ctx5, chi, Fraction(2, 7), 3, 3)),
        ):
            first, second = call(one), call(two)
            info = memo.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            assert repr(first) == repr(second)

    def test_each_key_field_makes_an_entry(self):
        ctx = PadicContext(5, 12)
        chi = DirichletCharacter(5, 1, 1)
        calls = [
            lambda: zeta_char(ctx, chi, 2, 3),
            lambda: zeta_char(ctx, chi, 2, 3, SeriesBudget(target_prec=8)),
            lambda: zeta_char(ctx, chi, 2, 3, SeriesBudget(max_terms=5000)),
            lambda: zeta_char(PadicContext(5, 12, series_guard=6), chi, 2, 3),
            lambda: _representation_sum(ctx, chi, 2, 3, 25, _DEFAULT_BUDGET),
            lambda: zeta_char(ctx, chi, 3, 3),
            lambda: zeta_char(ctx, chi, 2, 4),
            lambda: zeta_char(ctx, chi, 2, ctx.parse_value("0:3")),  # 3 known modulo 5
            lambda: zeta_char(ctx, chi.twist(1), 2, 3),
        ]
        _clear_character_memos()
        for n, call in enumerate(calls, 1):
            call()
            assert _representation_value.cache_info().currsize == n
        for call in calls:
            call()
        info = _representation_value.cache_info()
        assert (info.hits, info.misses) == (len(calls), len(calls))

    def test_oracle_key_fields_make_entries(self):
        ctx = PadicContext(5, 12)
        chi = DirichletCharacter(5, 1, 1)
        calls = [
            lambda: zeta_char_oracle(ctx, chi, 2, 3, 3),
            lambda: zeta_char_oracle(ctx, chi, 2, 3, 4),
            lambda: zeta_char_oracle(ctx, chi, 3, 3, 3),
            lambda: zeta_char_oracle(ctx, chi, 2, Fraction(3, 2), 3),
            lambda: zeta_char_oracle(ctx, chi.twist(1), 2, 3, 3),
            lambda: zeta_char_oracle(PadicContext(5, 10), chi, 2, 3, 3),
            lambda: zeta_char_oracle(ctx, chi, ctx.parse_value("0:2,0,1"), 3, 3),
        ]
        _clear_character_memos()
        for n, call in enumerate(calls, 1):
            call()
            assert _oracle_value.cache_info().currsize == n
        # Fraction(2) reads the entry of 2, and an equal PadicNumber the entry of the first
        zeta_char_oracle(ctx, chi, Fraction(2), 3, 3)
        zeta_char_oracle(ctx, chi, ctx.parse_value("0:2,0,1"), 3, 3)
        assert _oracle_value.cache_info().currsize == len(calls)

    @pytest.mark.parametrize(
        "error,call",
        [
            (ParseError, lambda c: zeta_char(c, DirichletCharacter(3, 1, 1), 2, 1)),
            (ParseError, lambda c: zeta_char(c, CHI5, 2, "1/")),
            (ArgumentOutsideZp, lambda c: zeta_char(c, CHI5.twist(1), 2, Fraction(1, 5))),
            (BudgetExhausted, lambda c: ell(c, CHI5, 2, SeriesBudget(max_terms=1))),
            (ExponentOutsideDomain, lambda c: zeta_char(c, CHI5, Fraction(1, 5), 1)),
            # the term budget is refused before s
            (
                BudgetExhausted,
                lambda c: zeta_char(c, CHI5, Fraction(1, 5), 1, SeriesBudget(max_terms=1)),
            ),
            (EvaluationCapExceeded, lambda c: representation_pair(c, CHI5, 2, 1, power=8)),
            (PrecisionError, lambda c: zeta_char(c, CHI5, 2, c.bounded_zero(0))),
            (ParseError, lambda c: zeta_char_oracle(c, DirichletCharacter(3, 1, 1), 2, 1, 3)),
            (ArgumentOutsideZp, lambda c: zeta_char_oracle(c, CHI5, 2, Fraction(1, 5), 3)),
            (ArgumentViolation, lambda c: ell_limit_oracle(c, CHI5, 2, 0)),
            (EvaluationCapExceeded, lambda c: ell_limit_oracle(c, CHI5, 2, 9)),
            (ExponentOutsideDomain, lambda c: ell_limit_oracle(c, CHI5, Fraction(1, 5), 3)),
            (ParseError, lambda c: ell_limit_oracle(c, CHI5, [2], 3)),
        ],
    )
    def test_a_refusal_is_raised_on_every_call_and_never_cached(self, ctx5, error, call):
        ell(ctx5, CHI5, 2)
        zeta_char_oracle(ctx5, CHI5, 2, 1, 3)
        memos = (_representation_value, _oracle_value)
        sizes = [memo.cache_info().currsize for memo in memos]
        for _ in range(2):
            with pytest.raises(error):
                call(ctx5)
        assert [memo.cache_info().currsize for memo in memos] == sizes

    def test_string_exponent_gives_the_fraction_value(self):
        # a string is read as ctx.coerce reads it, before the memo
        for p in (3, 5, 7):
            ctx = PadicContext(p, 12)
            chi = DirichletCharacter(p, 1, 1)
            for text in ("1/2", "2", "-3/4"):
                for call in (
                    lambda s: zeta_char_oracle(ctx, chi, s, 2, 3),
                    lambda s: ell_limit_oracle(ctx, chi, s, 3),
                ):
                    expected, value = call(Fraction(text)), call(text)
                    assert (render(value), value.absprec) == (render(expected), expected.absprec)

    def test_a_warm_value_equals_a_cold_one(self, ctx7):
        chi = DirichletCharacter(7, 2, 3)
        calls = [
            lambda: zeta_char(ctx7, chi, Fraction(3, 11), 4),
            lambda: ell(ctx7, chi, Fraction(3, 11)),
            lambda: zeta_char_oracle(ctx7, chi, Fraction(3, 11), 4, 4),
            lambda: ell_limit_oracle(ctx7, chi, -2, 4),
            lambda: representation_pair(ctx7, chi, Fraction(3, 11), 4, factor=3),
        ]

        def key(value):
            pair = value if isinstance(value, tuple) else (value,)
            return [(render(v), v.absprec) for v in pair]

        for call in calls:
            _clear_character_memos()
            cold = key(call())
            assert key(call()) == cold
            assert _representation_value.cache_info().hits + _oracle_value.cache_info().hits >= 1

    def test_default_verify_evaluates_each_value_once_per_k(self, tmp_path):
        # without the memos this run evaluates 5,523 representation sums and
        # 126 oracle sums
        _clear_character_memos()
        path = tmp_path / "v.jsonl"
        assert main(["verify", "--seed", "4001", "--format", "json", "-o", str(path)]) == 0
        assert _representation_value.cache_info().misses <= 1596
        assert _oracle_value.cache_info().misses <= 57


class TestSeriesOracleParity:
    """A series and its truncated-sum oracle read s (and x) the same way, so
    they refuse the same input with the same error."""

    @staticmethod
    def _pairs(p):
        chi = DirichletCharacter(p, 1, 1)
        return [
            (lambda c, s, x: zeta_czp(c, s, x), lambda c, s, x: zeta_czp_oracle(c, s, x, 3)),
            (
                lambda c, s, x: zeta_char(c, chi, s, x),
                lambda c, s, x: zeta_char_oracle(c, chi, s, x, 3),
            ),
            (lambda c, s, x: ell(c, chi, s), lambda c, s, x: ell_limit_oracle(c, chi, s, 3)),
        ]

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize(
        "s,error", [("1/p", ExponentOutsideDomain), ([2], ParseError)], ids=["1/p", "list"]
    )
    def test_exponent_refusals_agree(self, p, s, error):
        ctx = PadicContext(p, 8)
        s = Fraction(1, p) if s == "1/p" else s
        for (series, oracle), x in zip(self._pairs(p), (Fraction(1, p), 1, 0)):
            for call in (series, oracle):
                with pytest.raises(error):
                    call(ctx, s, x)

    def test_czp_argument_refusal_agrees(self, ctx5):
        series, oracle = self._pairs(5)[0]
        for call in (series, oracle):
            with pytest.raises(ArgumentInZp):
                call(ctx5, 2, Fraction(1, 3))

    def test_a_padic_x_is_refused_by_the_oracles(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        outside, inside = ctx5.coerce(Fraction(1, 5)), ctx5.coerce(1)
        # the series accept a PadicNumber x; the truncated sums need a rational
        assert zeta_czp(ctx5, 2, outside).absprec == ctx5.workprec
        assert zeta_char(ctx5, chi, 2, inside).absprec == ctx5.workprec
        with pytest.raises(ArgumentViolation, match="rational x"):
            zeta_czp_oracle(ctx5, 2, outside, 3)
        with pytest.raises(ArgumentViolation, match="rational x"):
            zeta_char_oracle(ctx5, chi, 2, inside, 3)

    def test_oracles_claim_only_the_digits_s_implies(self):
        # s = 2 + O(5) fixes t^(1-s) modulo 5^2 only; s = 7 lies in that class
        ctx = PadicContext(5, 12)
        coarse = ctx.parse_value("0:2")
        chi = DirichletCharacter(5, 1, 1)
        sides = [
            (
                zeta_czp_oracle(ctx, coarse, Fraction(1, 5), 3),
                zeta_czp_oracle(ctx, 7, Fraction(1, 5), 3),
                zeta_czp(ctx, coarse, Fraction(1, 5)),
            ),
            (
                zeta_char_oracle(ctx, chi, coarse, 1, 3),
                zeta_char_oracle(ctx, chi, 7, 1, 3),
                zeta_char(ctx, chi, coarse, 1),
            ),
        ]
        for coarse_sum, full_sum, series in sides:
            assert coarse_sum.absprec == series.absprec == 2
            assert full_sum.absprec == ctx.internal_prec
            assert agreement_depth(coarse_sum, full_sum) == 2
