"""addbasis: exact computations with asymptotic additive bases of N.

Core objects are eventually periodic subsets of the naturals (finite
exceptional prefix plus a periodic tail).  On top of the exact set
algebra the package computes basis orders, removal invariants, the proven
order bounds for finite removals, and runs exhaustive verification sweeps
over small-parameter families.
"""

__version__ = "0.1.0"

from .errors import (
    BoundViolation,
    EmptyComplement,
    EmptyOperand,
    InternalInconsistency,
    NoQualifyingDivisor,
    NoQualifyingPair,
    NotABasisCertificate,
    NotASubset,
    OrderCapExceeded,
    PersistenceError,
    ToolkitError,
    TooFewElements,
    ZeroDensity,
)
from .periodic import EventuallyPeriodicSet, as_finite_set
from .invariants import (
    InstanceInvariants,
    d_of,
    delta,
    diam,
    eta,
    eta_with_witness,
    instance_invariants,
    mu,
    mu_with_witness,
)
from .orders import OrderResult, order
from .bounds import (
    BoundReport,
    RemovalInstance,
    cubic_family_instance,
    cubic_family_orders,
    density_order_bound,
    klopsch_lev_rhs,
    plagne_bounds,
    quadratic_family_instance,
    quadratic_family_orders,
    removal_bound_d,
    removal_bound_eta,
    removal_bound_mu,
    removal_bound_mu_improved,
    verify_instance,
)
from .sweeps import (
    SweepConfig,
    SweepSummary,
    exhaustive_two_residue_sweep,
    export_csv,
    klopsch_lev_exhaustive,
    read_records,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
