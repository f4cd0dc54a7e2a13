"""Quantum color-coding under a random-permutation channel: exact optimal
success probabilities, POVM verification by direct matrix simulation, and
empirical confirmation of the d ~ N/e threshold."""

__version__ = "0.1.0"

from .coding import CodingInstance, CodingReport, classical_success, info_bound, quantum_pmax_exact
from .young import enumerate_partitions, partition_count

__all__ = [
    "CodingInstance",
    "CodingReport",
    "classical_success",
    "enumerate_partitions",
    "info_bound",
    "partition_count",
    "quantum_pmax_exact",
    "__version__",
]
