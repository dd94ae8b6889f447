"""The CLI's exit-code contract over drawn graph documents, valid and broken, and drawn caps.

Every graph subcommand and ``lemma`` runs in-process.  The exit code is one
of the five documented ones; stdout is a JSON document on 0 and 1, except
that ``paradox``, ``bell`` and ``ks`` refuse a graph that is not GHZ with
exit 1, empty stdout and the failed tests on stderr; stdout is empty on 2-4.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghzgraphs import cli  # noqa: E402
from ghzgraphs.graphs import WeightedGraph, graph_to_dict, k4, odd_loop, triangle  # noqa: E402

GHZ_SEEDS = [triangle(2), triangle(4), triangle(6), k4(4, 1, 1, 0), k4(6, 1, 1, 1), odd_loop(3), odd_loop(5)]
# a value for each field that the schema refuses; "extra" is a field it does not know
BAD = {
    "d": [0, 1, -4, "4", 2.5, True, None, 2**63],
    "n": [0, -1, 4097, "3", None],
    "edges": [{}, "x", [[0, 0, 1]], [[1, 0, 1]], [[0, 99, 1]], [[0, 1, 0]], [[0, 1, 99]], [[0, 1, 1.5]],
              [[0, 1]], [[0, 1, 1], [0, 1, 1]], [[0, 1, True]]],
    "extra": [0],
}
# these refuse a graph that is not GHZ with exit 1 and no report
REFUSING = {"paradox", "bell", "ks"}


@st.composite
def documents(draw):
    """A graph file's text, or None for a missing file.  Valid documents have n <= 6 and
    d <= 8: a GHZ graph scaled to a multiple of its modulus (scaling keeps every test of
    the definition), or drawn weights, which are seldom GHZ.  A broken document has a
    missing or refused field, or is not a JSON object."""
    if draw(st.booleans()):
        g = draw(st.sampled_from(GHZ_SEEDS))
        d = g.d * draw(st.integers(1, 8 // g.d))
        doc = graph_to_dict(WeightedGraph(d, g.adj.astype(np.int64) * (d // g.d)))
    else:
        d, n = draw(st.integers(2, 8)), draw(st.integers(1, 6))
        weights = [(u, v, draw(st.integers(0, d - 1))) for u in range(n) for v in range(u + 1, n)]
        doc = {"d": d, "n": n, "edges": [[u, v, w] for u, v, w in weights if w]}
    kind = draw(st.sampled_from(["valid", "valid", "missing field", "bad field", "truncated", "not an object",
                                 "no file"]))
    if kind == "missing field":
        del doc[draw(st.sampled_from(["d", "n", "edges"]))]
    elif kind == "bad field":
        key = draw(st.sampled_from(sorted(BAD)))
        doc[key] = draw(st.sampled_from(BAD[key]))
    text = json.dumps([doc] if kind == "not an object" else doc)
    return {"truncated": text[:-1], "no file": None}.get(kind, text)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(documents(), st.integers(-1, 5000), st.integers(-1, 6), st.integers(-1, 8))
def test_exit_code_matches_stdout(text, cap, lemma_n, lemma_d):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        if text is not None:
            path.write_text(text)
        runs = [[command, str(path)] for command in ("check", "state-verify")]
        runs += [[command, str(path), f"--cap={cap}"] for command in sorted(REFUSING)]
        runs.append(["lemma", str(lemma_n), str(lemma_d), f"--cap={cap}"])
        for argv in runs:
            code, out, err = run_main(argv)
            assert code in {0, 1, 2, 3, 4}, argv
            if code == 1 and argv[0] in REFUSING:
                assert out == "" and err.startswith("error: ") and "needs a GHZ graph; failed: " in err, argv
            elif code in (0, 1):
                assert isinstance(json.loads(out), dict), argv
            else:
                assert out == "" and err, argv
