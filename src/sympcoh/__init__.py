"""Position-momentum correlations of bosonic Gaussian states.

Core objects: validated covariance matrices and Gaussian states
(:mod:`~sympcoh.gaussian_core`), symplectic gates, Gaussian channels and
pure-state sampling (:mod:`~sympcoh.symplectic_ops`), the correlation measure with its extremal
theory (:mod:`~sympcoh.coherence`), the virtual-state discord picture
(:mod:`~sympcoh.discord_map`), fixed-trace random-state ensembles
(:mod:`~sympcoh.ensembles`), and metrology/discrimination applications
(:mod:`~sympcoh.applications`).  The ``sympcoh`` console script fronts it all.
"""

from ._version import __version__
from .gaussian_core import (
    CovMat,
    DimensionError,
    GaussianState,
    Margins,
    NumericError,
    ValidationError,
    Violation,
    blocks,
    assemble,
    is_free,
    is_pure,
    is_valid,
    load_state,
    mean_energy,
    mix_states,
    require_valid,
    save_state,
    state_from_dict,
    state_to_dict,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_state,
    validate,
)
from .symplectic_ops import (
    GateError,
    IdentityChannel,
    LossChannel,
    StinespringChannel,
    SympGate,
    apply,
    apply_loss,
    beamsplitter_orthogonal,
    block_orthogonal,
    compose,
    derive_rng,
    displacement,
    haar_orthogonal,
    haar_unitary,
    is_orthogonal,
    is_symplectic,
    orthogonal_stinespring,
    partial_trace,
    passive_from_unitary,
    phase_shifter,
    pure_cm,
    sample_d,
    spectrum_from_weights,
    squeezer,
    tensor_cm,
    tensor_states,
)
from .coherence import (
    CoherenceReport,
    MembershipReport,
    MscSpec,
    NoGoWitness,
    SearchOutcome,
    active_gate_counterexample,
    closest_free_cm,
    coherence_report,
    max_symplectic_coherence,
    mixed_msc_check,
    msc_canonical,
    msc_from_spec,
    msc_membership_conditions,
    msc_spec,
    msc_squeezing,
    numeric_max_search,
    perturbation_bound,
    symplectic_coherence,
    trace_distance_cov_bound,
)
from .discord_map import (
    DiscordImage,
    RelationCheck,
    coherence_discord_relation_check,
    from_density,
    geometric_discord,
    is_classical_quantum,
    to_density,
)
from .ensembles import (
    EnsembleConfig,
    EnsembleStats,
    MomentCheck,
    analytic_mean_nu_sq,
    ensemble_nu_sq,
    entanglement_entropy,
    haar_moment_check,
    pure_cm_from_passive,
    sample_pure_cm,
)
from .applications import (
    DiscriminationConfig,
    DiscriminationReport,
    QfiBound,
    energy_offset,
    helstrom_lower_bound_loss,
    loss_g,
    loss_gtilde,
    meas_moments,
    median_of_means,
    n_thres_loss,
    n_thres_loss_optimal,
    n_thres_orthogonal,
    n_thres_orthogonal_optimal,
    qfi_displacement,
    rotated_quadrature_variance,
    run_discrimination,
    td_lower_bound_gaussian,
    td_lower_bound_general,
    tvd_bound_ppmm,
    tvd_exact_zero_mean_normals,
    wilson_upper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
