"""Exact weight hierarchies, greedy weights, Wei duality and Betti data for
finite matroids and linear codes over prime fields."""

from .betti import (
    BettiDiagram,
    ResolutionShape,
    betti_support,
    betti_values,
    resolution_shape,
    strand_check,
    strand_nonzero,
)
from .codes import subcode_weights
from .errors import CapExceeded, InputError, InvariantError, MatGreedyError
from .gfp import FieldMatrix, PrimeField, parse_matrix
from .ladder import CycleLadder, circuits, ladder
from .matroid import (
    Matroid,
    from_circuits,
    from_descriptor,
    from_generator,
    from_parity_check,
    uniform,
    validate_axioms,
)
from .wei import check_wei_classical, check_wei_greedy
from .weights import (
    WeightReport,
    greedy_bottom_up,
    greedy_cez,
    greedy_top_down,
    hamming_weights,
    is_chained,
    weight_report,
)

__version__ = "0.1.0"

__all__ = [
    "BettiDiagram",
    "CapExceeded",
    "CycleLadder",
    "FieldMatrix",
    "InputError",
    "InvariantError",
    "MatGreedyError",
    "Matroid",
    "PrimeField",
    "ResolutionShape",
    "WeightReport",
    "betti_support",
    "betti_values",
    "check_wei_classical",
    "check_wei_greedy",
    "circuits",
    "from_circuits",
    "from_descriptor",
    "from_generator",
    "from_parity_check",
    "greedy_bottom_up",
    "greedy_cez",
    "greedy_top_down",
    "hamming_weights",
    "is_chained",
    "ladder",
    "parse_matrix",
    "resolution_shape",
    "strand_check",
    "strand_nonzero",
    "subcode_weights",
    "uniform",
    "validate_axioms",
    "weight_report",
]
