"""Computing with noncommutative rational expressions: pencil realizations,
randomized identity testing, and matrix rank over the free skew field."""

from .field import (DEFAULT_PRIME, DenseMatrix, MatrixTuple, PrimeField,
                    RationalField, QQ, Singular, invert, kron, prime_field,
                    rank_of, sample_tuple)
from .circuit import (Abp, BlowupExceeded, IdrCircuit, ParseError,
                      RationalCircuit, Undefined, classify, eval_circuit,
                      formula_to_abp, parse_expr, to_idrrsc, transport_tuple,
                      variable_reduction)
from .pencil import (DimensionMismatch, DisjointnessViolation, LinearPencil,
                     PencilOracle, RealizedEntry, RealizedGrid, compile_idrrsc,
                     compose, eval_pencil, from_abp, pencil_from_rows,
                     realize_inverse)

__version__ = "0.1.0"
