"""Exact constructions and checkers for phased combinatorial designs.

Matrices with entries z^g over a finite abelian group whose squared
modulus is a balanced incomplete block design: built here from affine
planes and Hermitian-form geometries, lifted to generalized quadrangles
and antipodal covers, and verified both exactly (integer group-ring
identities) and numerically (frame checks at every character).
"""

from .gf import FiniteField, field_create, prime_power_split
from .groupring import (
    AbelianGroup,
    Character,
    characters_of,
    real_character,
)
from .polymat import (
    PolyphaseMatrix,
    format_complex_csv,
    format_incidence,
    format_polyphase,
    parse_incidence,
    parse_polyphase,
)
from .construct import (
    BibdParams,
    BrouwerGeometry,
    DracknParams,
    GqParams,
    affine_polyphase,
    brouwer_geometry,
    brouwer_polyphase,
    example_9_3_3,
    gq_from_polyphase,
    phased_to_polyphase,
    polyphase_from_gq,
    simplex_phased,
)
from .verify import (
    CheckResult,
    Design,
    EtfNumerics,
    ScreenRow,
    VerificationReport,
    screen_parameters,
    verify_bibd,
    verify_drackn,
    verify_etf_numeric,
    verify_gq_axioms,
    verify_polyphase_algebraic,
    verify_polyphase_combinatorial,
    verify_srg_collinearity,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BibdParams",
    "BrouwerGeometry",
    "Character",
    "CheckResult",
    "Design",
    "DracknParams",
    "EtfNumerics",
    "FiniteField",
    "GqParams",
    "PolyphaseMatrix",
    "ScreenRow",
    "VerificationReport",
    "affine_polyphase",
    "brouwer_geometry",
    "brouwer_polyphase",
    "characters_of",
    "example_9_3_3",
    "field_create",
    "format_complex_csv",
    "format_incidence",
    "format_polyphase",
    "gq_from_polyphase",
    "parse_incidence",
    "parse_polyphase",
    "phased_to_polyphase",
    "polyphase_from_gq",
    "prime_power_split",
    "real_character",
    "screen_parameters",
    "simplex_phased",
    "verify_bibd",
    "verify_drackn",
    "verify_etf_numeric",
    "verify_gq_axioms",
    "verify_polyphase_algebraic",
    "verify_polyphase_combinatorial",
    "verify_srg_collinearity",
    "__version__",
]
