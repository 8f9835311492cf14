"""The ``PadicNumber`` operators that read the slots, the cached templates of
``render`` and the run's shared context and budget give the values and
errors of the object code.

``object_reference`` keeps the operators that read every operand through
the predicates and the partner coercion, the joined render and the copying
``from_fraction``.  Values are compared as (p, valuation, unit, relprec)
tuples, errors by their type.
"""

from fractions import Fraction

import object_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.errors import ParseError
from padiczeta.padic import (
    _DIGIT_BLOCK,
    PadicContext,
    PadicNumber,
    agreement_depth,
    render,
)
from padiczeta.verify import VerifyConfig

PRIMES = (3, 5, 7, 1009)
# relative precisions on both sides of the split digit conversion
assert _DIGIT_BLOCK < 70


def _fields(x: PadicNumber) -> tuple:
    return x.p, x.valuation, x.unit, x.relprec


def _outcome(fn, *args):
    """("value", fields or a plain value) or ("error", its type)."""
    try:
        value = fn(*args)
    except Exception as exc:  # the error's type is what is compared
        return "error", type(exc)
    return "value", _fields(value) if isinstance(value, PadicNumber) else value


@st.composite
def _numbers(draw, p: int):
    kind = draw(st.sampled_from(("exact", "bounded", "regular", "regular")))
    if kind == "exact":
        return PadicNumber.exact_zero(p)
    if kind == "bounded":
        return PadicNumber.bounded_zero(p, draw(st.integers(-6, 70)))
    relprec = draw(st.integers(1, 70))
    unit = draw(st.integers(0, p ** (relprec - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicNumber(p, draw(st.integers(-6, 6)), unit, relprec)


@st.composite
def _rationals(draw, p: int):
    num = draw(st.integers(-(10**30), 10**30))
    den = draw(st.integers(1, 10**6)) * p ** draw(st.integers(0, 3))
    return Fraction(num * p ** draw(st.integers(0, 3)), den)


@st.composite
def _operands(draw):
    p = draw(st.sampled_from(PRIMES))
    a = draw(_numbers(p))
    q = draw(st.sampled_from(tuple(x for x in PRIMES if x != p)))
    b = draw(
        st.one_of(
            _numbers(p),
            _numbers(p),
            st.integers(-(10**12), 10**12),
            _rationals(p),
            _numbers(q),
        )
    )
    return a, b


@settings(max_examples=600, deadline=None)
@given(_operands())
def test_operators_match_the_object_code(operands):
    a, b = operands
    cases = [
        (lambda: a + b, lambda: ref.add(a, b)),
        (lambda: a - b, lambda: ref.sub(a, b)),
        (lambda: a * b, lambda: ref.mul(a, b)),
        (lambda: render(a), lambda: ref.render(a)),
    ]
    if isinstance(b, PadicNumber):
        cases += [
            (lambda: b + a, lambda: ref.add(b, a)),
            (lambda: b - a, lambda: ref.sub(b, a)),
            (lambda: b * a, lambda: ref.mul(b, a)),
            (lambda: agreement_depth(a, b), lambda: ref.agreement_depth(a, b)),
            (lambda: render(b), lambda: ref.render(b)),
        ]
    else:
        # an int or Fraction on the left takes a's reflected operator
        cases += [
            (lambda: b + a, lambda: ref.add(a, b)),
            (lambda: b - a, lambda: ref.neg(ref.sub(a, b))),
            (lambda: b * a, lambda: ref.mul(a, b)),
        ]
    for got, expected in cases:
        assert _outcome(got) == _outcome(expected), (a, b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_mixed_primes_raise_parse_errors(p, data):
    q = data.draw(st.sampled_from(tuple(x for x in PRIMES if x != p)))
    a, b = data.draw(_numbers(p)), data.draw(_numbers(q))
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: agreement_depth(a, b),
    ):
        assert _outcome(op) == ("error", ParseError)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_from_fraction_matches_the_copying_form(p, data):
    ctx = PadicContext(p, data.draw(st.integers(1, 62)), data.draw(st.integers(0, 8)))
    q = data.draw(st.one_of(_rationals(p), st.just(Fraction(0))))
    relprec = data.draw(st.one_of(st.none(), st.integers(-1, 70)))
    assert _outcome(ctx.from_fraction, q, relprec) == _outcome(ref.from_fraction, ctx, q, relprec)
    assert _outcome(ctx.coerce, q) == _outcome(ref.from_fraction, ctx, q)


def test_a_run_shares_one_context_per_prime_and_one_budget():
    cfg = VerifyConfig(primes=(3, 5))
    assert cfg.ctx(3) is cfg.ctx(3)
    assert cfg.ctx(5) is cfg.ctx(5)
    assert cfg.ctx(3) is not cfg.ctx(5)
    assert cfg.budget() is cfg.budget()
    assert cfg.ctx(3) == PadicContext(3, cfg.workprec, cfg.series_guard)
    assert (cfg.budget().max_terms, cfg.budget().target_prec) == (cfg.max_terms, cfg.workprec)
