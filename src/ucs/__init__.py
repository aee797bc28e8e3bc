"""Unseen-coverage-regularized demonstration selection.

The pipeline turns a pool of example embeddings into latent-cluster labels
(dictionary learning + density clustering), estimates how many clusters a
candidate subset leaves unseen (a smoothed Good-Turing bound), and folds that
coverage term into standard subset selectors (greedy DPP, VoteK, utility
argmax over candidate subsets).
"""

from .clustering import (
    CLUSTERING_METHODS,
    ClusterAssignment,
    cluster_pool,
    cosine_distance_matrix,
    dbscan_from,
    knn_quantile_eps_from,
    remap_noise_to_singletons,
)
from .coverage import (
    CorpusPrior,
    CoverageTracker,
    SgtConfig,
    SubsetSpectrum,
    corpus_prior,
    coverage_phi,
    gt_unseen,
    k0_for,
    sgt_unseen,
    sgt_weights,
    smooth_spectrum,
    subset_spectrum,
)
from .errors import (
    BadMagic,
    ConfigError,
    DegenerateInput,
    DimensionOverflow,
    EmptyCandidateList,
    EmptyMask,
    IndexOutOfRange,
    IoError,
    MisalignedSources,
    MissingInput,
    NonFiniteValue,
    ParseError,
    SingularKernel,
    TooFewPoints,
    TooFewRows,
    UcsError,
)
from .latent_dictionary import (
    CodeBook,
    JointCodeBook,
    fit_dictionary,
    fit_joint_dictionary,
    ridge_encode,
)
from .matrix_store import (
    read_labels,
    read_manifest,
    read_matrix,
    read_token_bundle,
    sha256_file,
    write_labels,
    write_manifest,
    write_matrix,
    write_token_bundle,
)
from .preprocess import (
    POOLING_MODES,
    PcaBasis,
    Standardizer,
    fit_pca,
    fit_standardizer,
    l2_normalize_rows,
    pool_tokens,
    preprocess_pool,
)
from .selection import (
    RARITY_VARIANTS,
    SelectionConfig,
    SelectionResult,
    StepRecord,
    best_subset,
    dpp_kernel,
    greedy_dpp,
    greedy_dpp_ucs,
    redundancy_utility,
    sample_candidate_subsets,
    select,
    subset_utility_ucs,
    votek_select,
    votek_ucs_select,
    votek_votes,
)
from .synth_oracle import (
    ClusterStats,
    ExposureReport,
    McOracleReport,
    Population,
    cluster_stats,
    expected_new_types,
    exposure_metrics,
    mc_unseen_oracle,
    sample_embeddings,
    sample_labels,
    sample_pool,
)

__version__ = "0.1.0"
