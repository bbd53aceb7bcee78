"""Secret sharing from monotone span programs, classical and quantum.

Layers, bottom up:

- ``galois``: exact GF(p) matrices and linear solves.
- ``structures``: adversary structures, duals, Q2/Q2*/self-dual tests,
  monotone threshold formulas and the input-file reader.
- ``msp``: monotone span programs (each checks its player count and
  column rank when built), the Shamir instance, formula compilation,
  dualization, the self-dual extension and the one linear dealer,
  whose (secret, randomness, share) table carries the size guard.
- ``classical``: dealing, reconstruction, share-space transformations
  and exhaustive classical verification over the dealt table.
- ``quantum``: exact simulation of the quantum lifting; pure and
  mixed quantum secret-sharing schemes with erasure and secrecy checks.
- ``condition``: probability-table schemes, the square-root criterion
  for direct classical-to-quantum conversion, and its brute-force
  density-matrix oracle.
- ``cli``: the ``spanshare`` command-line front end.
"""

__version__ = "0.1.0"

from .galois import Field, Matrix
from .structures import (
    AdversaryStructure,
    build_structure,
    parse_formula,
    parse_structure,
    threshold_structure,
)
from .msp import MSP, compile_formula, dual_msp, extend_msp, msp_structure, shamir_msp
from .classical import build_reconstruction_plan, reconstruct, share, verify_classical
from .quantum import QuantumState, qencode, qss_mixed, qss_pure, verify_erasure
from .condition import (
    ClassicalScheme,
    HomomorphicSpec,
    eq1_check,
    homomorphic_scheme,
    lift_report,
    scheme_from_msp,
    search_counterexample,
)

__all__ = [
    "AdversaryStructure",
    "ClassicalScheme",
    "Field",
    "HomomorphicSpec",
    "MSP",
    "Matrix",
    "QuantumState",
    "__version__",
    "build_reconstruction_plan",
    "build_structure",
    "compile_formula",
    "dual_msp",
    "eq1_check",
    "extend_msp",
    "homomorphic_scheme",
    "lift_report",
    "msp_structure",
    "parse_formula",
    "parse_structure",
    "qencode",
    "qss_mixed",
    "qss_pure",
    "reconstruct",
    "scheme_from_msp",
    "search_counterexample",
    "shamir_msp",
    "share",
    "threshold_structure",
    "verify_classical",
    "verify_erasure",
]
