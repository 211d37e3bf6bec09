"""Exact weight hierarchies, greedy weights, Wei duality and Betti data for
finite matroids and linear codes over prime fields."""

from .betti import (
    BettiDiagram,
    ResolutionShape,
    StrandSpec,
    betti_support,
    betti_value,
    betti_values,
    greedy_from_strands,
    resolution_shape,
    strand_check,
    strand_nonzero,
)
from .codes import (
    LinearCode,
    code_matroid,
    code_weights,
    ghw_bruteforce,
    greedy_bruteforce,
    shortened_subcode,
    subcode_weights,
    support,
)
from .errors import CapExceeded, InputError, InvariantError, MatGreedyError
from .gfp import FieldMatrix, PrimeField, format_matrix, parse_matrix
from .ladder import CycleLadder, circuits, covers, is_cycle, ladder
from .matroid import (
    Matroid,
    from_circuits,
    from_descriptor,
    from_generator,
    from_parity_check,
    uniform,
    validate_axioms,
)
from .wei import ChainProfile, check_wei_classical, check_wei_greedy, delta_chain
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
    "ChainProfile",
    "CycleLadder",
    "FieldMatrix",
    "InputError",
    "InvariantError",
    "LinearCode",
    "MatGreedyError",
    "Matroid",
    "PrimeField",
    "ResolutionShape",
    "StrandSpec",
    "WeightReport",
    "betti_support",
    "betti_value",
    "betti_values",
    "check_wei_classical",
    "check_wei_greedy",
    "circuits",
    "code_matroid",
    "code_weights",
    "covers",
    "delta_chain",
    "format_matrix",
    "from_circuits",
    "from_descriptor",
    "from_generator",
    "from_parity_check",
    "ghw_bruteforce",
    "greedy_bottom_up",
    "greedy_bruteforce",
    "greedy_cez",
    "greedy_from_strands",
    "greedy_top_down",
    "hamming_weights",
    "is_chained",
    "is_cycle",
    "ladder",
    "parse_matrix",
    "resolution_shape",
    "shortened_subcode",
    "strand_check",
    "strand_nonzero",
    "subcode_weights",
    "support",
    "uniform",
    "validate_axioms",
    "weight_report",
]
