"""VC dimension of power-residue sets in prime fields.

Library layout:

- ``field``: prime fields, residue-coset tables, character tables
- ``shatter``: the shattering oracle over translate signatures
- ``search``: exact VC-dimension search, testing dimension, progressions
- ``montecarlo``: shattering-probability estimation
- ``weil``: character-sum, equidistribution, and shattering verification
- ``cli``: the ``residuevc`` command
"""

__version__ = "0.1.0"

from .errors import (EmptyFold, EvenPrime, FieldTooLarge, Infeasible,
                     IndexNotDividing, LengthMismatch, NotPrime, NTooLarge,
                     ResidueVCError, TooSmall, WidthOverflow)
from .field import (CharacterTable, PrimeField, ResidueTable, ZeroConvention,
                    character_table, make_field, residue_table, squares_table)
from .montecarlo import ProbPoint, estimate_p, interface_scan
from .search import (ApResult, VcResult, longest_shattered_ap,
                     testing_dimension, vc_dimension, vc_sweep)
from .shatter import (fold_patterns, is_shattered, membership_matrix,
                      pattern_counts, shatter_report)
from .weil import (PolySpec, char_sum, coset_probability, fourier_probability,
                   fuzzy_coset_probability, verify_weil,
                   verify_equidistribution, verify_shattering_theorem)

__all__ = [
    "ApResult", "CharacterTable", "EmptyFold", "EvenPrime",
    "FieldTooLarge", "Infeasible", "IndexNotDividing", "LengthMismatch",
    "NotPrime", "NTooLarge", "PolySpec",
    "PrimeField", "ProbPoint", "ResidueTable", "ResidueVCError",
    "TooSmall", "VcResult", "WidthOverflow", "ZeroConvention",
    "char_sum", "character_table", "coset_probability", "estimate_p",
    "fold_patterns", "fourier_probability", "fuzzy_coset_probability",
    "interface_scan", "is_shattered", "longest_shattered_ap", "make_field",
    "membership_matrix", "pattern_counts", "residue_table", "shatter_report",
    "squares_table", "testing_dimension", "vc_dimension",
    "vc_sweep", "verify_equidistribution", "verify_shattering_theorem",
    "verify_weil",
]
