"""SLD Fisher information, attainable Cramer-Rao-type bounds, and
bound-attaining projective measurements for pure-state models."""

__version__ = "0.1.0"

from .analysis import (
    BetaSpectrum,
    BoundReport,
    BoundaryCurve,
    beta_spectrum,
    boundary_2param,
    coherent_test,
    cr_bound,
    cr_bound_2param,
    cr_bound_coherent,
    cr_bound_js_weight,
    exclusiveness_test,
    independence_partition,
    marginal_infimum,
    quasi_classical_test,
    sld_bound,
)
from .measurement import (
    EstimationVectors,
    NaimarkFrame,
    Pvm,
    covariance_of_pvm,
    inflate_covariance,
    naimark_frame,
    optimal_vectors,
    optimal_vectors_coherent,
    optimal_vectors_quasi_classical,
    pvm_from_vectors,
    sample_outcomes,
)
from .model import (
    FisherData,
    PureStateModel,
    TangentFrame,
    catalog_shifted_number,
    catalog_spin_rotation,
    catalog_squeezed,
    fisher_data,
    model_from_config,
    tangent_frame,
)
from .oracle import OracleProblem, OracleResult, minimize, stationarity_certificate
