"""Arbitrary-precision p-adic Hurwitz-type Euler zeta functions.

Exact Euler-number/polynomial arithmetic, the fermionic p-adic integral with
truncated-sum oracles, the zeta function on arguments outside Z_p and its
character-twisted companion on Z_p, plus a verification suite that checks
the whole identity network at finite precision.

The two evaluators are not re-exported here, so that ``padiczeta.zeta_czp``
and ``padiczeta.zeta_char`` name their modules:
``from padiczeta.zeta_czp import zeta_czp`` and
``from padiczeta.zeta_char import zeta_char``.
"""

from .characters import DirichletCharacter, char_eval
from .errors import PadicError
from .euler import euler_number, euler_poly, euler_zero
from .fermionic import (
    Integrand,
    alternating_power_sum,
    integrate_monomial_shift,
    integrate_truncated,
)
from .padic import (
    PadicContext,
    PadicNumber,
    agreement_depth,
    from_json_dict,
    render,
    to_json_dict,
)
from .zeta_char import (
    dzeta_char_dx,
    ell,
    ell_limit_oracle,
    power_series_zeta,
    raabe_char,
    zeta_char_oracle,
)
from .zeta_czp import (
    SeriesBudget,
    distribution_czp,
    dzeta_dx,
    integral_of_zeta,
    raabe_closed_forms,
    reflection_czp,
    zeta_czp_oracle,
    zeta_shifted,
    zeta_special_neg,
    zeta_special_pos,
)

__version__ = "0.1.0"

__all__ = [
    "DirichletCharacter",
    "Integrand",
    "PadicContext",
    "PadicError",
    "PadicNumber",
    "SeriesBudget",
    "agreement_depth",
    "alternating_power_sum",
    "char_eval",
    "distribution_czp",
    "dzeta_char_dx",
    "dzeta_dx",
    "ell",
    "ell_limit_oracle",
    "euler_number",
    "euler_poly",
    "euler_zero",
    "from_json_dict",
    "integral_of_zeta",
    "integrate_monomial_shift",
    "integrate_truncated",
    "power_series_zeta",
    "raabe_char",
    "raabe_closed_forms",
    "reflection_czp",
    "render",
    "to_json_dict",
    "zeta_char_oracle",
    "zeta_czp_oracle",
    "zeta_shifted",
    "zeta_special_neg",
    "zeta_special_pos",
]
