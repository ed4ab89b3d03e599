"""Event-driven dynamics engine and numerical verification lab for inelastic
hard spheres with emission: collision laws, one-collision (TCT) flows with
analytic Jacobian determinants, finite-difference oracles, a multi-collision
event loop, and Monte Carlo estimates of pathological-set measures.
"""

from .core import (
    Configuration,
    DomainKind,
    DomainStatus,
    IHSEError,
    ModelParams,
    PairIndex,
    Tolerances,
    UsageError,
    all_pairs,
    conserved_quantities,
    free_transport,
    kinetic_energy,
    validate_configuration,
)
from .collision import (
    CollisionPrediction,
    FirstCollision,
    GrazingCollisionError,
    NoCollisionError,
    collision_time_gradients,
    first_collision,
    predict_pair,
)
from .scattering import (
    BelowThresholdError,
    CollisionKind,
    CriticalEnergyError,
    GrazingContactError,
    NotPreCollisionalError,
    ScatteringOutcome,
    ZeroRelativeVelocityError,
    elastic_reflection,
    inelastic_emission,
    scatter,
)
from .tct import (
    ExcludedConfigurationError,
    ExclusionReason,
    TCTDomainClass,
    TCTResult,
    analytic_flow_jacobian_det,
    classify_tct_domain,
    contraction_factor,
    tct_flow,
)
from .jacobian_lab import (
    BranchCrossingError,
    JacobianReport,
    NonFiniteError,
    UnreliableStencilError,
    fd_determinant,
    fd_jacobian,
    tensor_sum_det,
    verify_flow_jacobian,
    verify_scattering_measure,
)
from .simulator import (
    BoundCheck,
    Pathology,
    SimEvent,
    SimReport,
    check_collision_bounds,
    random_configuration,
    simulate,
)
from .measure_mc import (
    MeasureEstimate,
    PathologicalSetSpec,
    ensemble_volume_evolution,
    estimate_pathological_measure,
)

__version__ = "0.1.0"
