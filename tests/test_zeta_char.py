import random
from fractions import Fraction

import pytest

from padiczeta.characters import DirichletCharacter, char_eval
from padiczeta.errors import (
    ArgumentOutsideZp,
    ArgumentViolation,
    EvaluationCapExceeded,
    ParseError,
)
from padiczeta.padic import PadicContext, agreement_depth
from padiczeta.zeta_char import (
    dzeta_char_dx,
    ell,
    ell_limit_oracle,
    functional_reflection_distribution,
    power_series_zeta,
    raabe_char,
    representation_pair,
    zeta_char,
    zeta_char_oracle,
    zeta_char_special,
)

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
            ctx = PadicContext(p, 14)
            chi = DirichletCharacter(p, v, k)
            n_parts = 5 if p == 3 else 3
            reports = functional_reflection_distribution(ctx, chi, s, x, n_parts)
            for rep in reports:
                assert rep.status in ("pass",), (rep.identity, rep.note)

    def test_functional_at_zero_gives_minus_ell(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        lhs = zeta_char(ctx5, chi, 2, 1)
        rhs = -ell(ctx5, chi, 2)
        assert agreement_depth(lhs, rhs) >= 16

    def test_even_n_is_hypothesis_violation(self, ctx5):
        chi = DirichletCharacter(5, 1, 1)
        reports = functional_reflection_distribution(ctx5, chi, 2, 1, 4)
        dist = [r for r in reports if r.identity == "distribution-char"]
        assert dist and dist[0].status == "hypothesis-violation"


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

    def test_modulus_above_evaluation_cap_refused(self):
        # 3^13 > 10^6 residues: refused before any series is evaluated
        with pytest.raises(EvaluationCapExceeded):
            zeta_char(PadicContext(3, 8), DirichletCharacter(3, 13, 1), 2, 1)


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
