"""Mutation fuzz of every artifact reader, through cli.main in-process.

The README pipeline is run once at small sizes (gen-3lin and gen-game make
the inputs; every other subcommand reads them). Each example replaces or
deletes one or two JSON leaves of one input file and runs one command on
it. Whatever the file holds, main returns 0, 1 or 2 and lets no exception
out; exit 1 prints exactly one error: line and writes no --out file.
"""
import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetlab import cli, games, longcode


def run(root, *argv) -> int:
    """main on argv, each file name in it taken inside root."""
    return cli.main([str(root / a) if str(a).endswith(".json") else str(a) for a in argv])


# what stands in for a leaf: each JSON type, and numbers no size field may take
REPLACEMENTS = [None, True, False, 0, -1, 1.5, math.nan, 2**63, 10**20, "x", [], {}]
DELETE = object()

# one command per reader path; every name ending in .json is an input the fuzz may mutate
CASES = [
    ("build-hadamard", "--instance", "lin.json", "--r", 1, "--triples", 2),
    ("build-mlpcp", "--game", "game.json", "--layers", 2, "--smooth-t", 1),
    ("build-dto1", "--pcp", "pcp.json", "--delta", 0.25),
    ("build-longcode", "--pcp", "plain.json", "--epsilon", "1/10"),
    *[("verify", "--input", gadget, "--mode", mode, "--budget", 50,
       *(("--epsilon", "1/10") if mode == "almost" else ()))
      for gadget in ("had.json", "dto1.json", "lc.json")
      for mode in ("yes", "max-is", "two-color", "almost")],
    ("decode", "--kind", "longcode", "--gadget", "lc.json", "--indicator", "lc_ind.json",
     "--delta", 0.2),
    ("decode", "--kind", "dto1", "--gadget", "pcp.json", "--indicator", "dto1_ind.json",
     "--delta", 0.25),
    ("analyze", "--spectra", "spectra.json"),
    ("report", "corr.json", "pcp.json", "yes.json"),
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The directory of the README pipeline's artifacts at small sizes: a
    d = 1 game, 2-bit long-code labels."""
    root = tmp_path_factory.mktemp("pipeline")
    steps = [
        ("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", "lin.json"),
        ("build-hadamard", "--instance", "lin.json", "--r", 1, "--triples", 2, "--out", "had.json"),
        ("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 1, "--seed", 5, "--out", "game.json"),
        ("build-mlpcp", "--game", "game.json", "--layers", 2, "--smooth-t", 1, "--out", "pcp.json"),
        ("build-dto1", "--pcp", "pcp.json", "--delta", 0.25, "--out", "dto1.json"),
        ("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "2,2",
         "--seed", 3, "--out", "plain.json"),
        ("build-longcode", "--pcp", "plain.json", "--epsilon", "1/10", "--out", "lc.json"),
        ("verify", "--input", "lc.json", "--mode", "yes", "--out", "yes.json"),
        ("analyze", "--correlations", "--delta", 0.25, "--r", 1, "--out", "corr.json"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for step in steps:
            assert run(root, *step) == 0, step
    read = lambda name: json.loads((root / name).read_text())
    plain = games.LayeredPcp.from_json_dict(read("plain.json")["pcp"])
    digits = games.dictator_colors(plain, longcode.LongCodeGadget.base, plain.planted_labeling)
    (root / "lc_ind.json").write_text(json.dumps({"vertices": np.flatnonzero(digits == 1).tolist()}))
    pcp = read("pcp.json")["pcp"]
    indicators = {f"{layer},{var}": ((np.arange(1 << size) >> label) & 1).tolist()
                  for layer, size in enumerate(pcp["label_sizes"])
                  for var, label in enumerate(pcp["planted_labeling"][layer])}
    (root / "dto1_ind.json").write_text(json.dumps({"indicators": indicators}))
    (root / "spectra.json").write_text(json.dumps({"values": [1, 0, 0.5, 0.25]}))
    with contextlib.redirect_stdout(io.StringIO()):  # every case runs on the unmutated files
        for case in CASES:
            assert run(root, *case, "--out", "case.json") in (0, 2), case
    return root


def mutate(data, doc):
    """doc with one leaf replaced or deleted: walk down from the top, one
    drawn key or index per level, to a scalar or an empty container (which
    may be the whole of doc, once a first mutation has emptied it)."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        key = (data.draw(st.sampled_from(sorted(node))) if isinstance(node, dict)
               else data.draw(st.integers(0, len(node) - 1)))
        parent, node = node, node[key]
    value = data.draw(st.sampled_from([*REPLACEMENTS, DELETE]))
    if parent is None:
        return None if value is DELETE else value
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = copy.copy(value)  # REPLACEMENTS' lists and objects stay empty
    return doc


@settings(max_examples=800, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_0_1_or_2_with_one_error_line(pipeline, data):
    root = pipeline
    case = data.draw(st.sampled_from(CASES))
    name = data.draw(st.sampled_from([a for a in case if str(a).endswith(".json")]))
    doc = json.loads((root / name).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        doc = mutate(data, doc)
    (root / "mutated.json").write_text(json.dumps(doc))
    out = root / "out.json"
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = run(root, *["mutated.json" if a == name else a for a in case], "--out", "out.json")
    assert code in (0, 1, 2)
    if code == 1:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()
