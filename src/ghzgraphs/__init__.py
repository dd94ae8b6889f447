"""GHZ paradoxes from qudit graph states.

Classify Z_d-weighted graphs, build their graph states exactly, certify the
all-versus-nothing paradox, and compute Bell and noncontextuality bounds with
brute-force oracles behind every closed form.
"""

from .bounds import (
    BoundReport,
    ClassicalAssignment,
    SweepResult,
    bell_classical_max,
    bell_classical_value,
    bell_quantum,
    cosine_objective,
    ks_classical_max,
    ks_quantum,
    lattice_bound_brute,
    lattice_bound_closed,
    lattice_bound_sweep,
)
from .errors import CapExceededError, GraphFormatError, InvariantError, NotGhzGraphError
from .graphs import (
    GhzReport,
    WeightedGraph,
    canonical_code,
    classify_ghz,
    complete_4j3,
    degree,
    enumerate_ghz_graphs,
    find_ghz_subgraphs,
    graph_from_dict,
    graph_to_dict,
    is_connected,
    k4,
    load_graph,
    odd_loop,
    save_graph,
    subgraph,
    total_weight,
    triangle,
)
from .paradox import (
    Genuineness,
    InfeasibilityCertificate,
    MerminRow,
    MerminTable,
    ParadoxSystem,
    check_infeasible_algebraic,
    check_infeasible_exhaustive,
    constraint_system,
    genuineness,
    mermin_table,
    subgraph_paradox,
)
from .pauli import (
    PauliWord,
    commutation_phase,
    dagger,
    multiply,
    power,
    render_word,
    stabilizer_product,
    to_matrix,
    vertex_stabilizer,
)
from .states import (
    PhaseState,
    StabilizerReport,
    apply_word,
    build_state,
    eigenvalue_of,
    joint_plus_one_dimension,
    to_dense,
    verify_stabilizers,
)

__version__ = "0.1.0"
