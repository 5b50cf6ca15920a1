"""Exact finite-depth computations on sturmian words over a continued-fraction slope.

`__all__` lists exactly the names that a `sturmia` command, an acceptance
criterion or the benchmark in `perfbench/` reaches; helpers that only tests
call live with the tests.
"""

from .errors import SturmiaError
from .factorization import (
    characteristic_factorizations,
    duality_check,
    product_prefix,
)
from .intercept import (
    AlphaNumber,
    add_integer,
    classify,
    complement,
    equivalent,
    intercept_from_prefix,
    sigma0,
    sigma1,
    sturmian_prefix,
    zero,
)
from .ostrowski import all_digit_strings, decode, encode, validate
from .rauzy import RauzyGraph, build_graph, count_turns
from .repetition import (
    dio_estimate,
    repetition_closed_form,
    repetition_closed_forms,
    repetition_direct,
    repetition_profile,
    repetition_rows,
)
from .slope import Slope, convergent_value, interval_locate, parse_slope
from .torsion import (
    b_factorize,
    even_family,
    parity_word,
    self_complementary,
    torsion_search,
)
from .words import (
    characteristic_prefix,
    complexity,
    factor_set,
    mechanical_prefix,
    standard_word,
)

__all__ = [
    "AlphaNumber",
    "RauzyGraph",
    "Slope",
    "SturmiaError",
    "add_integer",
    "all_digit_strings",
    "b_factorize",
    "build_graph",
    "characteristic_factorizations",
    "characteristic_prefix",
    "classify",
    "complement",
    "complexity",
    "convergent_value",
    "count_turns",
    "decode",
    "dio_estimate",
    "duality_check",
    "encode",
    "equivalent",
    "even_family",
    "factor_set",
    "intercept_from_prefix",
    "interval_locate",
    "mechanical_prefix",
    "parity_word",
    "parse_slope",
    "product_prefix",
    "repetition_closed_form",
    "repetition_closed_forms",
    "repetition_direct",
    "repetition_profile",
    "repetition_rows",
    "self_complementary",
    "sigma0",
    "sigma1",
    "standard_word",
    "sturmian_prefix",
    "torsion_search",
    "validate",
    "zero",
]

__version__ = "0.1.0"
