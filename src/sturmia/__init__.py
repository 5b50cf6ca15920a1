"""Exact finite-depth computations on sturmian words over a continued-fraction slope."""

from .errors import SturmiaError
from .factorization import (
    characteristic_factorizations,
    duality_check,
    integer_product,
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
    dio_terms,
    repetition_characteristic,
    repetition_closed_form,
    repetition_closed_forms,
    repetition_direct,
    repetition_profile,
    repetition_rows,
)
from .slope import Slope, convergent_value, interval_locate, parse_slope
from .torsion import (
    automaton_states,
    b_factorize,
    even_family,
    parity_word,
    self_complementary,
    torsion_search,
)
from .words import (
    central_decomposition,
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
    "automaton_states",
    "b_factorize",
    "build_graph",
    "central_decomposition",
    "characteristic_factorizations",
    "characteristic_prefix",
    "classify",
    "complement",
    "complexity",
    "convergent_value",
    "count_turns",
    "decode",
    "dio_estimate",
    "dio_terms",
    "duality_check",
    "encode",
    "equivalent",
    "even_family",
    "factor_set",
    "integer_product",
    "intercept_from_prefix",
    "interval_locate",
    "mechanical_prefix",
    "parity_word",
    "parse_slope",
    "product_prefix",
    "repetition_characteristic",
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
