"""Decision toolkit for bipartite pure-state entanglement transformations
under majorization: single-copy, multiple-copy, and catalyst-assisted
convertibility, explicit catalyst constructions, usefulness classification,
and Renyi-entropy necessary-condition filters, in exact rational arithmetic.
"""

from .specvec import (ProbVec, make_probvec, pad_to, spectrum_tensor,
                      tensor_power_spectrum)
from .majorize import (MajReport, check_direct_sum_interior_condition,
                       check_overlap_chain, is_generalized_interior,
                       is_interior, majorizes, spectrum_majorizes)
from .mlocc import (MloccScan, UsefulnessVerdict, classify_usefulness,
                    corollary4_k_bound, in_Mk, is_interior_of_M,
                    lemma3_k_condition, nonclosedness_witness, scan_Mk)
from .catalysis import (CatalystCert, LiftedCatalyst, build_catalyst_thm1,
                        combine_catalysts, lift_catalyst,
                        multicopy_catalyst_scan, search_catalyst)
from .renyi import (DEFAULT_ALPHA_GRID, RFilterVerdict,
                    power_sum_refutation, r_filter, r_properties_check,
                    renyi_entropy)

__version__ = "0.1.0"

__all__ = [
    "ProbVec", "make_probvec", "pad_to", "spectrum_tensor",
    "tensor_power_spectrum",
    "MajReport", "check_direct_sum_interior_condition", "check_overlap_chain",
    "is_generalized_interior", "is_interior", "majorizes",
    "spectrum_majorizes",
    "MloccScan", "UsefulnessVerdict", "classify_usefulness",
    "corollary4_k_bound", "in_Mk", "is_interior_of_M", "lemma3_k_condition",
    "nonclosedness_witness", "scan_Mk",
    "CatalystCert", "LiftedCatalyst", "build_catalyst_thm1",
    "combine_catalysts", "lift_catalyst", "multicopy_catalyst_scan",
    "search_catalyst",
    "DEFAULT_ALPHA_GRID", "RFilterVerdict", "power_sum_refutation",
    "r_filter", "r_properties_check", "renyi_entropy",
]
