"""loopnet: contraction of weakly looped quantum input-output networks.

Build a network of scattering elements and locally coupled quantum systems,
contract its internal connections into an effective (S_eff, L_eff, H_eff)
model, validate the zero-delay approximation by path enumeration, simulate
the resulting Lindblad dynamics, and synthesize dark-state transfer
protocols for two-qubit networks.
"""

from . import errors
from .contraction import (
    EffectiveModel,
    RoutingMatrices,
    contract,
    contract_network,
    routing_matrices,
    verify_inversion_identities,
)
from .lindblad import (
    Controls,
    PortControl,
    Schedule,
    Trajectory,
    basis_state,
    build_generator,
    controls_from_network,
    effective_operators_at,
    integrate,
    liouvillian,
)
from .network import (
    Connection,
    Coupling,
    Geometry,
    LocalSystem,
    Network,
    Port,
    ScatteringBlock,
    assemble_H_sys,
    assemble_L,
    assemble_S,
    assemble_W,
    internal_projectors,
    load_network,
    nearest_unitary,
    network_from_dict,
    network_to_dict,
    save_network,
    unitarity_deviation,
    unitary_with_magnitudes,
)
from .paths import (
    PathRecord,
    ValidityReport,
    enumerate_paths,
    truncated_series_oracle,
    validity_check,
)
from .transfer import (
    ControlProtocol,
    SweepSummary,
    TransferCoefficients,
    TransferResult,
    b0_closed_form,
    collective_rates,
    coupled_qubit_ports,
    dark_state_residual,
    datasheet_circulator,
    find_network_in_class,
    oriented,
    ideal_circulator,
    perturbed_circulator,
    phase_scan_coefficients,
    phase_tuned_adverse_network,
    phase_tuned_network,
    predict_transfer,
    random_imperfect_network,
    simulate_transfer,
    specialized_master_equation,
    swap_roles,
    synthesize_controls,
    transfer_coefficients,
    transfer_sweep,
    two_qubit_network,
    verify_specialized_generator,
)

__version__ = "0.1.0"
