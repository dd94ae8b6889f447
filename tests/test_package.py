"""Package surface and start-up: which names ``ghzgraphs`` exports, and which
modules each subcommand loads in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzgraphs
from ghzgraphs.graphs import save_graph, triangle

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every public name of dir(ghzgraphs) when the package imported all its modules eagerly
PUBLIC_NAMES = [
    "BoundReport", "CapExceededError", "ClassicalAssignment", "Genuineness", "GhzReport", "GraphFormatError",
    "InfeasibilityCertificate", "InvariantError", "MerminRow", "MerminTable", "NotGhzGraphError", "ParadoxSystem",
    "PauliWord", "PhaseState", "StabilizerReport", "SweepResult", "WeightedGraph", "__version__",
    "bell_classical_max", "bell_classical_value", "bell_quantum", "bounds", "build_state", "canonical_code",
    "check_infeasible_algebraic", "check_infeasible_exhaustive", "classify_ghz", "complete_4j3",
    "constraint_system", "cosine_objective", "dagger", "defaults", "eigenvalue_of", "enumerate_ghz_graphs",
    "errors", "find_ghz_subgraphs", "genuineness", "graph_from_dict", "graph_to_dict", "graphs", "is_connected",
    "k4", "ks_classical_max", "ks_quantum", "lattice_bound_brute", "lattice_bound_closed", "lattice_bound_sweep",
    "load_graph", "mermin_table", "odd_loop", "paradox", "pauli", "render_word", "save_graph", "stabilizer_product",
    "states", "subgraph", "subgraph_paradox", "to_matrix", "total_weight", "triangle", "verify_stabilizers",
    "vertex_stabilizer",
]
SUBMODULES = ["bounds", "defaults", "errors", "graphs", "paradox", "pauli", "states"]

# a fresh interpreter runs one command, then prints the ghzgraphs.* modules it
# holds (prefix stripped) and whether numpy was imported
LOADED = """
import contextlib, io, json, sys
from ghzgraphs import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m[len("ghzgraphs."):] for m in sys.modules if m.startswith("ghzgraphs."))}))
"""
BASE = ["cli", "defaults", "errors"]
GRAPHS = BASE + ["_search", "graphs"]
# argv, exit code, modules loaded besides ghzgraphs itself
COMMANDS = [
    (["check", "g.json"], 0, GRAPHS),
    (["enumerate", "3", "2"], 0, GRAPHS),
    (["paradox", "g.json"], 0, GRAPHS + ["paradox", "pauli"]),
    (["state-verify", "g.json"], 0, GRAPHS + ["pauli", "states"]),
    (["bell", "g.json"], 0, GRAPHS + ["bounds", "pauli", "states"]),
    (["ks", "g.json"], 0, GRAPHS + ["bounds", "pauli", "states"]),
    (["lemma", "3", "4"], 0, GRAPHS + ["bounds", "pauli", "states"]),
    (["--help"], 0, BASE),
    (["check"], 2, BASE),
    (["bell", "g.json", "--dedup"], 2, BASE),
]


def fresh(code: str, *argv: str, cwd=None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestStartUp:
    @pytest.mark.parametrize("argv, code, loaded", COMMANDS, ids=[" ".join(case[0]) for case in COMMANDS])
    def test_each_command_loads_only_the_modules_it_calls(self, tmp_path, argv, code, loaded):
        save_graph(triangle(2), tmp_path / "g.json")
        out = fresh(LOADED, *argv, cwd=tmp_path)
        assert out["code"] == code
        assert out["modules"] == sorted(loaded)
        assert out["numpy"] == (loaded != BASE)

    def test_import_loads_no_submodule(self):
        out = fresh("""
import json, sys
import ghzgraphs
print(json.dumps({"names": [n for n in dir(ghzgraphs) if not n.startswith("_")], "version": ghzgraphs.__version__,
                  "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.startswith("ghzgraphs"))}))
""")
        assert out == {"names": sorted(set(PUBLIC_NAMES) - {"__version__"}), "version": "0.1.0", "numpy": False,
                       "modules": ["ghzgraphs"]}


class TestPublicSurface:
    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_object_its_module_defines(self, name):
        value = getattr(ghzgraphs, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"ghzgraphs.{name}"]
        elif name == "__version__":
            assert value == "0.1.0"
        else:
            assert value.__module__.startswith("ghzgraphs.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_the_public_names(self):
        namespace = {}
        exec("from ghzgraphs import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(set(PUBLIC_NAMES) - {"__version__"})

    @pytest.mark.parametrize("name", ["no_such_name", "Bounds", "cli_main", "_OWNERS_"])
    def test_unknown_attribute_raises(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(ghzgraphs, name)
