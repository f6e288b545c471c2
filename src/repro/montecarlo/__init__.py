"""Monte Carlo experiments: admissibility of quorum conditions and quorum reliability."""

from .comparison import (
    AdmissibilityPoint,
    admissibility_sweep,
    admissibility_table,
    asymmetric_admissibility_sweep,
    gqs_strictly_weaker_examples,
    sample_asymmetric_partition_system,
)
from .reliability import (
    ReliabilityEstimate,
    reliability_sweep,
    reliability_table,
)

__all__ = [
    "AdmissibilityPoint",
    "ReliabilityEstimate",
    "admissibility_sweep",
    "admissibility_table",
    "asymmetric_admissibility_sweep",
    "gqs_strictly_weaker_examples",
    "reliability_sweep",
    "reliability_table",
    "sample_asymmetric_partition_system",
]
