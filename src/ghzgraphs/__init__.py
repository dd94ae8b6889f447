"""GHZ paradoxes from qudit graph states.

Classify Z_d-weighted graphs, build their graph states exactly, certify the
all-versus-nothing paradox, and compute Bell and noncontextuality bounds with
brute-force oracles behind every closed form.

Every public name, submodules included, is resolved on first access (PEP 562),
so ``import ghzgraphs`` loads no submodule and no numpy.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule names itself
_OWNERS = {
    **{name: name for name in ("bounds", "defaults", "errors", "graphs", "paradox", "pauli", "states")},
    **dict.fromkeys((
        "BoundReport", "ClassicalAssignment", "SweepResult", "bell_classical_max", "bell_classical_value",
        "bell_quantum", "cosine_objective", "ks_classical_max", "ks_quantum", "lattice_bound_brute",
        "lattice_bound_closed", "lattice_bound_sweep",
    ), "bounds"),
    **dict.fromkeys(("CapExceededError", "GraphFormatError", "InvariantError", "NotGhzGraphError"), "errors"),
    **dict.fromkeys((
        "GhzReport", "WeightedGraph", "canonical_code", "classify_ghz", "complete_4j3", "degree",
        "enumerate_ghz_graphs", "find_ghz_subgraphs", "graph_from_dict", "graph_to_dict", "is_connected", "k4",
        "load_graph", "odd_loop", "save_graph", "subgraph", "total_weight", "triangle",
    ), "graphs"),
    **dict.fromkeys((
        "Genuineness", "InfeasibilityCertificate", "MerminRow", "MerminTable", "ParadoxSystem",
        "check_infeasible_algebraic", "check_infeasible_exhaustive", "constraint_system", "genuineness",
        "mermin_table", "subgraph_paradox",
    ), "paradox"),
    **dict.fromkeys((
        "PauliWord", "commutation_phase", "dagger", "multiply", "power", "render_word", "stabilizer_product",
        "to_matrix", "vertex_stabilizer",
    ), "pauli"),
    **dict.fromkeys((
        "PhaseState", "StabilizerReport", "apply_word", "build_state", "eigenvalue_of", "joint_plus_one_dimension",
        "to_dense", "verify_stabilizers",
    ), "states"),
}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin import, unlike importlib's, shows in -X importtime; it binds
    # the submodule in this namespace as it loads it
    __import__(f"{__name__}.{owner}")
    module = globals()[owner]
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
