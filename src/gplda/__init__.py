"""Gaussian-process Bayesian Fisher discriminant analysis for curves.

The package estimates discriminant directions for functional data
observed on a common grid.  A joint posterior couples latent smooth
curves, class means, a within-class covariance, and three precision
scalars; blockwise closed-form updates ascend it by backfitting.  It has
no maximum (shrinking the covariance toward zero raises it without
bound), so a fit is the point where that ascent stops.
Classical penalized, maximum-likelihood, and principal-component
baselines share the same eigensolver kernel and prediction rule.
"""

from .discriminant import (
    METHOD_GPLDA,
    METHOD_MLE_LDA,
    METHOD_PCA_LDA,
    METHOD_PDA,
    DiscriminantModel,
    between_covariance,
    error_rate,
    gplda_directions,
    gplda_fit,
    mle_lda_fit,
    pca_lda_fit,
    pda_fit,
    predict,
)
from .estimator import (
    FirstOrderResiduals,
    FitTrace,
    first_order_residuals,
    fit,
    initial_state,
    update_alpha1,
    update_alpha2,
    update_mu,
    update_sigma2,
    update_sigma_w,
    update_x,
)
from .exceptions import (
    DegenerateBetweenCovarianceError,
    DimensionError,
    HyperParameterError,
    NumericError,
    NumericFailureError,
    ParseError,
    SingularMatrixError,
    ValidationError,
)
from .io import (
    RunConfig,
    default_run_config,
    format_config,
    load_config,
    load_csv,
    load_model,
    parse_config,
    read_labeled_csv,
    save_dataset_csv,
    save_model,
)
from .linalg import (
    FIRST_DIFF,
    LAPLACIAN_2D,
    SECOND_DIFF,
    SmoothingPenalty,
    build_penalty,
    generalized_eig_top,
    spd_solve,
)
from .model import (
    FitConfig,
    HyperParams,
    LabeledFunctionalDataset,
    LogPosteriorTerms,
    PosteriorState,
    log_posterior,
    log_posterior_terms,
    pooled_within_scatter,
    validate_dataset,
)
from .simulate import (
    DEFAULT_PDA_ALPHA_GRID,
    METHODS,
    SIM1,
    SIM2,
    BenchmarkCell,
    BenchmarkReport,
    SimSpec,
    fit_method,
    generate,
    normalize_method,
    run_benchmark,
    select_pda_alpha,
    sim1_grid,
    sim2_grid,
    sim2_mean_difference,
    sim2_shared_component,
    triangular_bump,
)

__version__ = "0.1.0"
