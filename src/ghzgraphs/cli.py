"""Command-line front end: every verification as a subcommand with JSON output.

Output is deterministic: fixed field order, floats rounded to 12 significant
digits, and no timing fields, so identical inputs produce byte-identical
reports.  Exit codes: 0 success/true, 1 predicate false, 2 input error
(including graph files with n > 4096 or d >= 2^63), 3 resource cap
exceeded, 4 internal self-check failed or any other uncaught exception
(its traceback goes to stderr), so a crash never reads as an answer; 141,
with nothing on stderr, when the reader closes stdout early (``| head``).

Each handler imports the modules it calls, so ``--help`` and usage errors
load no numpy, and ``check`` loads no dense or bounds code.  ``main`` run
before numpy is loaded defaults OpenBLAS to one thread: no command makes a
BLAS call that a pool would split, and an idle pool worker spins for about
65 ms of CPU in each process.  A caller's ``OPENBLAS_NUM_THREADS`` is kept,
and ``import ghzgraphs`` leaves the environment alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .defaults import SEARCH_CAP, TOLERANCE
from .errors import CapExceededError, InvariantError, NotGhzGraphError, gate

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3
EXIT_INVARIANT = 4

# first match wins: NotGhzGraphError (like GraphFormatError) is a ValueError
_EXIT_CODES = {
    NotGhzGraphError: EXIT_PREDICATE_FALSE,
    CapExceededError: EXIT_CAP_EXCEEDED,
    InvariantError: EXIT_INVARIANT,
    ValueError: EXIT_INPUT_ERROR,
    OSError: EXIT_INPUT_ERROR,
}


def _twelve(x: float) -> float:
    """Round to 12 significant digits so output is diff-stable."""
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _twelve(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _text_lines(obj, depth=0):
    pad = "  " * depth
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:"
                yield from _text_lines(value, depth + 1)
            elif isinstance(value, str) and "\n" in value:
                yield f"{pad}{key}:"
                for line in value.split("\n"):
                    yield f"{pad}  {line}"
            else:
                yield f"{pad}{key}: {value}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from _text_lines(value, depth + 1)
            else:
                yield f"{pad}- {value}"
    else:
        yield f"{pad}{obj}"


def _emit(doc: dict, fmt: str) -> None:
    doc = _jsonable(doc)
    if fmt == "json":
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print("\n".join(_text_lines(doc)))


def _agreement(field: str, agreement):
    """An oracle agreement for output: None (the oracle did not run) prints as
    "skipped", and a disagreement fails the command with exit 4."""
    if agreement is None:
        return "skipped"
    if not agreement:
        raise InvariantError(f"{field} is false: an oracle disagrees with the value it checks")
    return True


def cmd_check(args) -> int:
    from . import graphs

    g = graphs.load_graph(args.graph)
    rep = graphs.classify_ghz(g)
    doc = {"graph": graphs.graph_to_dict(g), **dataclasses.asdict(rep)}
    _emit(doc, args.format)
    return EXIT_OK if rep.is_ghz else EXIT_PREDICATE_FALSE


def cmd_enumerate(args) -> int:
    from . import graphs

    count = 0
    for g in graphs.enumerate_ghz_graphs(args.n, args.d, dedup_isomorphism=args.dedup, cap=args.cap):
        if args.format == "json":
            print(json.dumps(_jsonable(graphs.graph_to_dict(g)), ensure_ascii=False))
        else:
            print(f"graph {count}: d={g.d} n={g.n} edges={g.edges()}")
        count += 1
    print(json.dumps({"count": count}) if args.format == "json" else f"count: {count}")
    return EXIT_OK


def cmd_paradox(args) -> int:
    from . import graphs, paradox

    g = graphs.load_graph(args.graph)
    system = paradox.constraint_system(g)
    table = paradox.mermin_table(g)
    gen = paradox.genuineness(g)
    algebraic = paradox.check_infeasible_algebraic(system)  # holds at any size; the scan runs within cap
    exhaustive = gate(paradox.check_infeasible_exhaustive, system, args.cap)
    doc = {
        "graph": graphs.graph_to_dict(g),
        "system": {"rows": system.num_rows, "variables": system.num_vars,
                   "final_rhs": int(system.rhs[-1])},
        "certificates": {"algebraic": dataclasses.asdict(algebraic),
                         "exhaustive": "skipped" if exhaustive is None else dataclasses.asdict(exhaustive)},
        "agreement": _agreement("agreement", None if exhaustive is None else exhaustive.infeasible),
        "genuineness": {"n_partite": gen.n_partite, "d_level": gen.d_level},
        "mermin_table": table.render(),
    }
    _emit(doc, args.format)
    return EXIT_OK


def cmd_bell(args) -> int:
    from . import bounds, graphs

    g = graphs.load_graph(args.graph)
    quantum = bounds.bell_quantum(g)
    bound = quantum.classical_bound  # closed form; the scan only confirms it, within cap
    scan = gate(bounds.bell_classical_max, g, args.cap) or bounds.BoundReport(
        kind="bell_classical", classical_bound=bound, notes={"searched": "skipped"})
    if scan.classical_bound != bound:
        raise InvariantError(f"Bell scan maximum {scan.classical_bound} differs from the closed form {bound}")
    doc = {
        "kind": "bell",
        "graph": graphs.graph_to_dict(g),
        "classical_bound": bound,
        "classical_witness": scan.witness,
        "classical_searched": scan.notes["searched"],
        "quantum_value": quantum.quantum_value,
        "ratio": quantum.quantum_value / bound,
        "oracle_value": quantum.oracle_value,
        "oracle_agreement": _agreement("oracle_agreement", quantum.oracle_agreement),
        "notes": quantum.notes,
    }
    _emit(doc, args.format)
    return EXIT_OK


def cmd_ks(args) -> int:
    from . import bounds, graphs

    g = graphs.load_graph(args.graph)
    classical = bounds.ks_classical_max(g, cap=args.cap)
    quantum = bounds.ks_quantum(g)
    doc = {
        "kind": "ks",
        "graph": graphs.graph_to_dict(g),
        "classical_bound": classical.classical_bound,
        "quantum_value": quantum.quantum_value,
        "margin": quantum.quantum_value - classical.classical_bound,
        "witness": classical.witness,
        "direct_max": classical.oracle_value,
        "direct_agreement": _agreement("direct_agreement", classical.oracle_agreement),
        "quantum_oracle_agreement": _agreement("quantum_oracle_agreement", quantum.oracle_agreement),
    }
    _emit(doc, args.format)
    return EXIT_OK


def cmd_lemma(args) -> int:
    from . import bounds

    closed = bounds.lattice_bound_closed(args.n, args.d)
    sweep_max = gate(bounds._sweep_max, args.n, args.d, args.cap)
    brute = gate(bounds.lattice_bound_brute, args.n, args.d, args.cap) or bounds.BoundReport(kind="lattice_brute")
    # a sweep off the closed form fails the command even when the scan is skipped
    agreement = (sweep_max is None or abs(sweep_max - closed) <= TOLERANCE) and brute.oracle_agreement
    doc = {
        "kind": "lemma",
        "n": args.n,
        "d": args.d,
        "closed_form": closed,
        "sweep_max": sweep_max,
        "brute_max": brute.classical_bound,
        "witness": brute.witness,
        "agreement": _agreement("agreement", agreement),
    }
    _emit(doc, args.format)
    return EXIT_OK


def cmd_state_verify(args) -> int:
    from . import graphs, states

    g = graphs.load_graph(args.graph)
    rep = states.verify_stabilizers(g)
    doc = {"graph": graphs.graph_to_dict(g), **dataclasses.asdict(rep), "all_pass": rep.all_pass}
    _emit(doc, args.format)
    return EXIT_OK if rep.all_pass else EXIT_PREDICATE_FALSE


def build_parser() -> argparse.ArgumentParser:
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cap", type=int, default=SEARCH_CAP,
                     help="brute-force search cap (assignments / lattice points)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json",
                     help="output rendering")

    parser = argparse.ArgumentParser(
        prog="ghzgraphs",
        description="Classify GHZ graphs and verify their paradoxes, Bell bounds, and contextuality bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[fmt], help="classify a graph file")
    p.add_argument("graph", help="graph JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", parents=[cap, fmt], help="enumerate connected GHZ graphs")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--dedup", action="store_true", help="one representative per isomorphism class")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("paradox", parents=[cap, fmt], help="certify the value-assignment paradox")
    p.add_argument("graph")
    p.set_defaults(func=cmd_paradox)

    p = sub.add_parser("bell", parents=[cap, fmt], help="Bell bound and graph-state value")
    p.add_argument("graph")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("ks", parents=[cap, fmt], help="noncontextuality bound and quantum value")
    p.add_argument("graph")
    p.set_defaults(func=cmd_ks)

    p = sub.add_parser("lemma", parents=[cap, fmt], help="lattice cosine bound: closed form vs sweep vs scan")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("state-verify", parents=[fmt], help="stabilizer relations of the graph state")
    p.add_argument("graph")
    p.set_defaults(func=cmd_state_verify)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # only then can the setting still take effect
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        if vars(args).get("cap", 1) <= 0:
            raise ValueError("caps must be positive")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader left: no error message, and fd 1 on devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141  # what a shell reports for a writer killed by SIGPIPE
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
