"""Command-line pipelines: determinism, exit codes, file round trips."""
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gadgetlab import cli, dto1, games, hadamard, longcode, ternary, verify


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


class TestDeterminism:
    def test_gen_3lin_byte_identical(self, tmp_path):
        out = tmp_path / "lin.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", out) == 0
        first = out.read_bytes()
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", out) == 0
        assert out.read_bytes() == first

    def test_different_seed_changes_instance(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", a)
        run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 8, "--out", b)
        assert (json.loads(a.read_text())["instance"]
                != json.loads(b.read_text())["instance"])


class TestPipelines:
    def test_hadamard_yes_pipeline(self, tmp_path):
        lin = tmp_path / "lin.json"
        had = tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--r", 1, "--triples", 2,
                   "--seed", 1, "--out", had) == 0
        assert run("verify", "--input", had, "--mode", "yes") == 0

    def test_hadamard_yes_fails_without_witness(self, tmp_path):
        lin = tmp_path / "lin.json"
        had = tmp_path / "had.json"
        run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--random", "--out", lin)
        run("build-hadamard", "--instance", lin, "--r", 1, "--triples", 1,
            "--seed", 1, "--out", had)
        assert run("verify", "--input", had, "--mode", "yes") == 1

    def test_smooth_pcp_and_dto1(self, tmp_path):
        game = tmp_path / "game.json"
        pcp = tmp_path / "pcp.json"
        gadget = tmp_path / "dto1.json"
        assert run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2,
                   "--seed", 5, "--out", game) == 0
        assert run("build-mlpcp", "--game", game, "--layers", 2, "--smooth-t", 1,
                   "--out", pcp) == 0
        payload = json.loads(pcp.read_text())
        assert payload["smoothness"]["ok"]
        assert run("build-dto1", "--pcp", pcp, "--delta", "0.25", "--out", gadget) == 0
        bundle = json.loads(gadget.read_text())
        assert bundle["mode"] == "enumerate"
        h = verify.GenericHypergraph.from_json_dict(bundle["hypergraph"])
        assert h.total_weight == 1

    def test_analyze_correlations_min_atom(self, tmp_path):
        out = tmp_path / "corr.json"
        csv = tmp_path / "dist.csv"
        assert run("analyze", "--correlations", "--delta", "0.25", "--r", 1,
                   "--out", out, "--csv", csv) == 0
        payload = json.loads(out.read_text())
        assert payload["min_atom"] == 0.125
        assert csv.read_text().startswith("atom,probability")

    def test_longcode_build_and_decode(self, tmp_path):
        lc, ind = planted_longcode_bundle(tmp_path)
        dec = tmp_path / "dec.json"
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0.4", "--seed", 0, "--out", dec) == 0
        report = json.loads(dec.read_text())["decode"]
        assert report["satisfied_fraction"] == "1"

    def test_decode_config_records_only_the_kinds_flags(self, tmp_path):
        lc, ind = planted_longcode_bundle(tmp_path)
        dec = tmp_path / "dec.json"
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0.4", "--out", dec) == 0
        config = json.loads(dec.read_text())["config"]
        assert sorted(config) == ["command", "delta", "gadget", "indicator", "kind", "out",
                                  "out_dir", "seed"]
        bundle, ind = dto1_bundle(tmp_path, 0.5)
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25", "--out", dec) == 0
        config = json.loads(dec.read_text())["config"]
        assert {k: config[k] for k in ("eps", "nu", "gamma", "tau", "s")} == {
            "eps": 0.5, "nu": 0.1, "gamma": 0.01, "tau": 1e-4, "s": 3.0}


class TestReadmeArtifacts:
    """The README pipelines, run with its relative paths, write these bytes."""

    @pytest.fixture(autouse=True)
    def readme_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GADGETLAB_OUT", raising=False)

    def test_build_longcode_artifact(self, tmp_path):
        assert run("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "3,3",
                   "--seed", 3, "--out", "plain.json") == 0
        assert run("build-longcode", "--pcp", "plain.json", "--epsilon", "1/10",
                   "--out", "lc.json") == 0
        assert hashlib.sha256((tmp_path / "lc.json").read_bytes()).hexdigest() == (
            "a24837b28b8d0053bdf73a9ebfda85726765f3e02f17877599fa907344d22d52")

    def test_build_dto1_artifact(self, tmp_path):
        assert run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5,
                   "--out", "game.json") == 0
        assert run("build-mlpcp", "--game", "game.json", "--layers", 2, "--smooth-t", 1,
                   "--out", "pcp.json") == 0
        assert run("build-dto1", "--pcp", "pcp.json", "--delta", "0.25", "--out", "dto1.json") == 0
        assert hashlib.sha256((tmp_path / "dto1.json").read_bytes()).hexdigest() == (
            "e45f2e509b961209d1bc5c365b3f0ca496e6078cf1b151046888d5ac69e99690")

    def test_build_hadamard_artifact(self, tmp_path):
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", "lin.json") == 0
        assert run("build-hadamard", "--instance", "lin.json", "--r", 1, "--triples", 2,
                   "--out", "had.json") == 0
        assert hashlib.sha256((tmp_path / "had.json").read_bytes()).hexdigest() == (
            "1a8939bec784ea5e2497417a5f4ee862eac838fe6907490141468188d90e6362")


def longcode_bundle(tmp_path):
    """The README's plain PCP and long-code gadget, and an indicator file
    holding every point of variable (0, 0) and nothing else."""
    pcp = tmp_path / "plain.json"
    lc = tmp_path / "lc.json"
    ind = tmp_path / "ind.json"
    run("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "3,3",
        "--seed", 3, "--out", pcp)
    run("build-longcode", "--pcp", pcp, "--epsilon", "1/10", "--out", lc)
    ind.write_text(json.dumps({"vertices": list(range(27))}))
    return lc, ind


def planted_longcode_bundle(tmp_path):
    """The README's plain PCP and long-code gadget, and an indicator file
    holding the vertices whose planted label's coordinate is 1."""
    pcp_path = tmp_path / "pcp.json"
    lc = tmp_path / "lc.json"
    ind = tmp_path / "ind.json"
    assert run("build-mlpcp", "--layers", 2, "--vars-per-layer", 2,
               "--label-sizes", "3,3", "--seed", 3, "--out", pcp_path) == 0
    assert run("build-longcode", "--pcp", pcp_path, "--epsilon", "1/10",
               "--out", lc) == 0
    pcp = games.LayeredPcp.from_json_dict(json.loads(pcp_path.read_text())["pcp"])
    gadget = longcode.build(pcp, Fraction(1, 10))
    sigma = pcp.planted_labeling
    vertices = []
    for l in range(pcp.layers):
        for v in range(pcp.var_counts[l]):
            for pt in range(3 ** pcp.label_sizes[l]):
                if ternary.point_digits(pt, pcp.label_sizes[l])[sigma[l][v]] == 1:
                    vertices.append(gadget.vertex_id(l, v, pt))
    ind.write_text(json.dumps({"vertices": vertices}))
    return lc, ind


def label_cover_bundle(tmp_path, kind: str, *flags):
    """The README's long-code or d-to-1 gadget bundle (flags go to the PCP
    or game generator), its code base and its removed digit."""
    pcp, out = tmp_path / "pcp.json", tmp_path / f"{kind}.json"
    if kind == "longcode":
        assert run("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "3,3",
                   "--seed", 3, *flags, "--out", pcp) == 0
        assert run("build-longcode", "--pcp", pcp, "--epsilon", "1/10", "--out", out) == 0
        return out, 3, ternary.STAR
    game = tmp_path / "game.json"
    assert run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5, *flags,
               "--out", game) == 0
    assert run("build-mlpcp", "--game", game, "--layers", 2, "--smooth-t", 1, "--out", pcp) == 0
    assert run("build-dto1", "--pcp", pcp, "--delta", "0.25", "--out", out) == 0
    return out, 2, None


def dto1_bundle(tmp_path, value: float):
    """A one-constraint smooth PCP and constant indicators of the given value."""
    pcp = games.LayeredPcp(2, (1, 1), (4, 2),
                           (games.PcpConstraint(0, 1, 0, 0, (0, 0, 1, 1)),),
                           params={"d": 2, "T": 1})
    bundle = tmp_path / "pcp.json"
    bundle.write_text(json.dumps({"pcp": pcp.to_json_dict()}))
    ind = tmp_path / "ind.json"
    ind.write_text(json.dumps({"indicators": {"0,0": [value] * 16, "1,0": [value] * 4}}))
    return bundle, ind


def triangle_bundle(tmp_path):
    triangle = verify.GenericHypergraph(2, (0, 1, 2), ((0, 1), (1, 2), (0, 2)))
    bundle = tmp_path / "triangle.json"
    cli.write_artifact(bundle, {"hypergraph": triangle.to_json_dict()})
    return bundle


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run("gen-3lin", "--n", 9) == 1

    def test_unknown_command_is_one(self):
        assert run("no-such-command") == 1

    def test_missing_file_is_one(self, tmp_path):
        assert run("build-hadamard", "--instance", tmp_path / "nope.json",
                   "--out", tmp_path / "x.json") == 1

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert run("build-hadamard", "--instance", bad, "--out", tmp_path / "x.json") == 1
        err = capsys.readouterr().err
        assert "line" in err

    def test_dto1_decode_uneven_blocks_is_one(self, tmp_path, capsys):
        # d = 2 asks for 2 label bits per target label; (0, 0, 0, 1) gives 3 and 1
        pcp = games.LayeredPcp(2, (1, 1), (4, 2),
                               (games.PcpConstraint(0, 1, 0, 0, (0, 0, 0, 1)),),
                               params={"d": 2, "T": 1})
        bundle = tmp_path / "pcp.json"
        bundle.write_text(json.dumps({"pcp": pcp.to_json_dict()}))
        ind = tmp_path / "ind.json"
        ind.write_text(json.dumps({"indicators": {
            "0,0": [float(m & 1 == 0) for m in range(16)],
            "1,0": [float(m & 1 == 0) for m in range(4)]}}))
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25") == 1
        assert "bits, not r=2" in capsys.readouterr().err

    def test_longcode_decode_without_layer_pair_is_one(self, tmp_path, capsys):
        lc, ind = longcode_bundle(tmp_path)
        capsys.readouterr()
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0.2") == 1
        assert capsys.readouterr().err == (
            "error: only 1 layers reach a 0.05 fraction of heavy variables\n")

    def test_dto1_decode_without_layer_pair_is_one(self, tmp_path, capsys):
        bundle, ind = dto1_bundle(tmp_path, 0.01)
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25") == 1
        assert capsys.readouterr().err == "error: no heavy variables at threshold 0.25\n"

    def test_longcode_decode_zero_delta_is_one(self, tmp_path, capsys):
        lc, ind = longcode_bundle(tmp_path)
        capsys.readouterr()
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0") == 1
        assert capsys.readouterr().err == (
            "error: weak-density threshold must be positive, got 0.0\n")

    @pytest.mark.parametrize("vertices, stray", [([0, 1, 2, 5000], 5000), ([-1, 0, 1], -1)])
    def test_longcode_decode_stray_vertex_is_one(self, tmp_path, capsys, vertices, stray):
        lc, ind = longcode_bundle(tmp_path)
        ind.write_text(json.dumps({"vertices": vertices}))
        capsys.readouterr()
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0.2") == 1
        assert capsys.readouterr().err == (
            f"error: indicator vertex {stray} is not a vertex id in [0, 108)\n")

    @pytest.mark.parametrize("name", ["dto1.json", "pcp.json"])
    def test_longcode_decode_of_another_bundle_is_one(self, tmp_path, capsys, name):
        label_cover_bundle(tmp_path, "dto1")  # writes a plain PCP and a d-to-1 bundle
        ind = tmp_path / "ind.json"
        ind.write_text(json.dumps({"vertices": [0]}))
        capsys.readouterr()
        assert run("decode", "--kind", "longcode", "--gadget", tmp_path / name, "--indicator", ind,
                   "--delta", "0.4") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / name}: not a long-code gadget bundle (no config.epsilon)\n")

    def test_dto1_decode_zero_eps_is_one(self, tmp_path, capsys):
        bundle, ind = dto1_bundle(tmp_path, 0.5)
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25", "--eps", "0") == 1
        assert capsys.readouterr().err == (
            "error: weak-density threshold must be positive, got 0.0\n")

    def test_certificate_failure_is_two(self, tmp_path):
        cycle = verify.GenericHypergraph(
            2, tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))
        bundle = tmp_path / "cycle.json"
        cli.write_artifact(bundle, {"hypergraph": cycle.to_json_dict()})
        assert run("verify", "--input", bundle, "--mode", "two-color") == 2
        assert run("verify", "--input", bundle, "--mode", "almost",
                   "--epsilon", "1/5") == 0

    @pytest.mark.parametrize("command, value, message", [
        ("verify", "1/0", "not a rational: '1/0'"),
        ("verify", "-1", "must lie in [0, 1], got -1"),
        ("verify", "3/2", "must lie in [0, 1], got 3/2"),
        ("build-longcode", "1/0", "not a rational: '1/0'")])
    def test_bad_epsilon_is_one(self, tmp_path, capsys, command, value, message):
        bundle = triangle_bundle(tmp_path)
        source = ["--input", bundle, "--mode", "almost"] if command == "verify" else ["--pcp", bundle]
        out = tmp_path / "out.json"
        assert run(command, *source, "--epsilon", value, "--out", out) == 1
        assert capsys.readouterr().err == f"error: argument --epsilon: {message}\n"
        assert not out.exists()

    def test_epsilon_is_recorded_as_written(self, tmp_path):
        bundle, out = triangle_bundle(tmp_path), tmp_path / "out.json"
        assert run("verify", "--input", bundle, "--mode", "almost", "--epsilon", "0.40",
                   "--out", out) == 0
        assert json.loads(out.read_text())["config"]["epsilon"] == "0.40"

    def test_negative_budget_is_one(self, tmp_path, capsys):
        bundle = triangle_bundle(tmp_path)
        out = tmp_path / "mis.json"
        assert run("verify", "--input", bundle, "--mode", "max-is", "--budget", -1,
                   "--out", out) == 1
        assert capsys.readouterr().err == "error: argument --budget: must be at least 0, got -1\n"
        assert not out.exists()
        assert run("verify", "--input", bundle, "--mode", "max-is", "--budget", 0,
                   "--out", out) == 0
        assert json.loads(out.read_text())["max_is"]["optimal"] is False

    @pytest.mark.parametrize("triples", ["0", "-2"])
    def test_fewer_than_one_triple_is_one(self, tmp_path, capsys, triples):
        lin = tmp_path / "lin.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        capsys.readouterr()
        out = tmp_path / "had.json"
        assert run("build-hadamard", "--instance", lin, "--triples", triples, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: argument --triples: must be at least 1, got {triples}\n")
        assert not out.exists()

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_r_below_one_is_one(self, tmp_path, capsys, r):
        # rejected as the arguments are parsed: the instance file is never opened
        out = tmp_path / "had.json"
        assert run("build-hadamard", "--instance", tmp_path / "absent.json", "--r", r,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"error: argument --r: must be at least 1, got {r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("file, field, argv", [
        ("triangle.json", "hypergraph.k", ["verify", "--input", "{path}", "--mode", "max-is"]),
        ("had.json", "instance", ["verify", "--input", "{path}", "--mode", "yes"]),
        ("had.json", "config.r", ["verify", "--input", "{path}", "--mode", "yes"]),
        ("lc.json", "pcp", ["decode", "--kind", "longcode", "--gadget", "{path}",
                            "--indicator", "{dir}/ind.json", "--delta", "0.4"]),
        ("lin.json", "instance.n", ["build-hadamard", "--instance", "{path}",
                                    "--out", "{dir}/out.json"]),
        ("had.json", "hypergraph.meta.kind", ["verify", "--input", "{path}", "--mode", "yes"]),
    ])
    def test_missing_field_names_file_and_field(self, tmp_path, capsys, file, field, argv):
        triangle_bundle(tmp_path)
        lin = tmp_path / "lin.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--out", tmp_path / "had.json") == 0
        if file == "lc.json":
            longcode_bundle(tmp_path)
        path = tmp_path / file
        payload = json.loads(path.read_text())
        *parents, last = field.split(".")
        del functools.reduce(dict.__getitem__, parents, payload)[last]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(*[a.format(path=path, dir=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: missing field {last!r}\n"
        assert not (tmp_path / "out.json").exists()

    def test_build_hadamard_has_no_mode_flag(self, tmp_path, capsys):
        lin = tmp_path / "lin.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        capsys.readouterr()
        out = tmp_path / "had.json"
        assert run("build-hadamard", "--instance", lin, "--mode", "stream", "--out", out) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --mode stream\n"
        assert not out.exists()

    def test_hadamard_yes_ignores_an_old_mode_key(self, tmp_path, capsys):
        lin = tmp_path / "lin.json"
        had = tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--r", 1, "--triples", 2,
                   "--seed", 1, "--out", had) == 0
        bundle = json.loads(had.read_text())
        assert "mode" not in bundle["config"]
        bundle["config"]["mode"] = "enumerate"
        had.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 0
        assert capsys.readouterr().out == (
            "yes-case certificate: removed=0 violations=0 ok=True\n")

    @pytest.mark.parametrize("mode", ["max-is", "two-color", "almost"])
    def test_verify_without_hypergraph_is_one(self, tmp_path, capsys, mode):
        lin = tmp_path / "lin.json"
        plain = tmp_path / "plain.json"
        lc = tmp_path / "lc.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        # label size 5 is above the long-code gadget's enumerate cap: rule mode, no hypergraph
        assert run("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "5,5",
                   "--seed", 3, "--out", plain) == 0
        assert run("build-longcode", "--pcp", plain, "--epsilon", "1/10", "--out", lc) == 0
        assert json.loads(lc.read_text())["mode"] == "rule"
        for path in (lin, lc):
            capsys.readouterr()
            assert run("verify", "--input", path, "--mode", mode) == 1
            assert capsys.readouterr().err == f"error: {path}: the file holds no hypergraph\n"

    @pytest.mark.parametrize("equations, argv, message", [
        (((0, 1, 2, 1),), ["--r", "2"],
         "no repeat-free block of 2 equations exists among the 1 equations; instance too small"),
        (((0, 1, 2, 1), (3, 4, 5, 0)), ["--r", "2", "--distinct-blocks"],
         "could not sample a consistent W' in 1000 attempts"),
    ])
    def test_hadamard_rejection_budget_is_one(self, tmp_path, capsys, monkeypatch,
                                              equations, argv, message):
        # the default budget of 10**6 draws takes seconds to run out
        monkeypatch.setattr(hadamard, "build", functools.partial(hadamard.build, budget=1000))
        lin = tmp_path / "lin.json"
        inst = games.Lin3Instance(6, equations)
        lin.write_text(json.dumps({"instance": inst.to_json_dict()}))
        assert run("build-hadamard", "--instance", lin, *argv, "--out", tmp_path / "x.json") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_two_color_deeper_than_recursion_limit(self, tmp_path, capsys):
        n = 1500
        path = verify.GenericHypergraph(3, tuple(range(n)),
                                        tuple((i, i + 1, i + 2) for i in range(n - 2)))
        bundle = tmp_path / "path.json"
        cli.write_artifact(bundle, {"hypergraph": path.to_json_dict()})
        assert run("verify", "--input", bundle, "--mode", "two-color") == 0
        captured = capsys.readouterr()
        assert captured.out == "two-colorable: True\n"
        assert captured.err == ""

    def test_longcode_decode_witness_retry_is_one(self, tmp_path, capsys, monkeypatch):
        lc, ind = planted_longcode_bundle(tmp_path)

        def no_witness(*args, **kwargs):
            raise ternary.WitnessRetryError("no witness pair found in 3 draws")

        monkeypatch.setattr(longcode, "two_element_witness", no_witness)
        capsys.readouterr()
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0.4") == 1
        assert capsys.readouterr().err == "error: no witness pair found in 3 draws\n"

    def test_two_color_out_of_budget_is_two(self, tmp_path, capsys):
        cycle = verify.GenericHypergraph(
            2, tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))
        bundle = tmp_path / "cycle.json"
        cli.write_artifact(bundle, {"hypergraph": cycle.to_json_dict()})
        out = tmp_path / "tc.json"
        assert run("verify", "--input", bundle, "--mode", "two-color", "--budget", 1,
                   "--out", out) == 2
        assert json.loads(out.read_text())["two_colorable"] is None
        assert capsys.readouterr().out == "two-colorable: inconclusive after 2 nodes\n"

    def test_almost_removed_is_a_list_on_yes_and_null_on_no(self, tmp_path):
        # at epsilon 0 the even cycle is a yes with nothing removed, the odd one a no
        for n, code, success, removed in ((4, 0, True, []), (5, 2, False, None)):
            cycle = verify.GenericHypergraph(
                2, tuple(range(n)), tuple((i, (i + 1) % n) for i in range(n)))
            bundle = tmp_path / f"cycle{n}.json"
            cli.write_artifact(bundle, {"hypergraph": cycle.to_json_dict()})
            out = tmp_path / f"almost{n}.json"
            assert run("verify", "--input", bundle, "--mode", "almost", "--epsilon", "0",
                       "--out", out) == code
            payload = json.loads(out.read_text())
            assert payload["success"] is success and payload["removed"] == removed

    def test_hadamard_yes_reads_the_stored_hypergraph(self, tmp_path, capsys):
        lin = tmp_path / "lin.json"
        had = tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--r", 1, "--triples", 2,
                   "--seed", 1, "--out", had) == 0
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 0
        assert capsys.readouterr().out == (
            "yes-case certificate: removed=0 violations=0 ok=True\n")
        bundle = json.loads(had.read_text())
        bundle["hypergraph"]["edges"] = []
        had.write_text(json.dumps(bundle))
        assert run("verify", "--input", had, "--mode", "yes") == 1
        assert capsys.readouterr().err == (
            f"error: {had}: the stored hypergraph is not the one its config builds\n")

    def test_hadamard_yes_rejects_one_changed_edge(self, tmp_path, capsys):
        lin = tmp_path / "lin.json"
        had = tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--r", 1, "--triples", 2,
                   "--seed", 1, "--out", had) == 0
        bundle = json.loads(had.read_text())
        edges = bundle["hypergraph"]["edges"]
        stored = set(map(tuple, edges))
        vertex_count = len(bundle["hypergraph"]["vertices"])
        # move the first edge's smallest vertex to one that makes a new edge
        changed = next(e for w in range(vertex_count) if w not in edges[0]
                       for e in [sorted([w, *edges[0][1:]])] if tuple(e) not in stored)
        edges[0] = changed
        had.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 1
        assert capsys.readouterr().err == (
            f"error: {had}: the stored hypergraph is not the one its config builds\n")

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1, 2], [0, 1]], "edge [0, 1] does not have exactly 3 vertices"),
        ([[0, 1, 2, 3]], "edge [0, 1, 2, 3] does not have exactly 3 vertices"),
        ([[0, 1.5, 2]], "edge [0, 1.5, 2] holds a vertex id that is not an int64 integer"),
        ([[0, True, 2]], "edge [0, True, 2] holds a vertex id that is not an int64 integer"),
    ])
    @pytest.mark.parametrize("mode", ["max-is", "two-color", "almost"])
    def test_verify_malformed_edges_is_one(self, tmp_path, capsys, edges, message, mode):
        h = verify.GenericHypergraph(3, tuple(range(4)), ((0, 1, 2),)).to_json_dict()
        h["edges"] = edges
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"hypergraph": h}))
        assert run("verify", "--input", bundle, "--mode", mode) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("field, value", [
        ("weight", [1, 0]), ("weight", ["a", 1]), ("weight", [1.5, 1]), ("weight", 5),
        ("weight", [True, 1]), ("weight", [1, 2, 3]), ("id", True), ("id", "1"),
    ])
    @pytest.mark.parametrize("mode", ["max-is", "two-color", "almost"])
    def test_verify_malformed_vertex_is_one(self, tmp_path, capsys, field, value, mode):
        h = {"k": 3, "vertices": [{"id": v, "weight": [1, 1]} for v in range(3)],
             "edges": [[0, 1, 2]]}
        h["vertices"][1][field] = value
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"hypergraph": h}))
        assert run("verify", "--input", bundle, "--mode", mode) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: vertex entry {h['vertices'][1]!r} needs an int id and a weight "
            "[numerator, denominator] of ints with a positive denominator\n")

    @pytest.mark.parametrize("vertices, message", [
        (7, "vertices 7 is not a list of vertex objects"),
        ([[0, [1, 1]]], "vertex entry [0, [1, 1]] is not an object"),
    ])
    @pytest.mark.parametrize("mode", ["max-is", "two-color", "almost"])
    def test_verify_malformed_vertex_list_is_one(self, tmp_path, capsys, vertices, message, mode):
        h = {"k": 3, "vertices": vertices, "edges": [[0, 1, 2]]}
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"hypergraph": h}))
        assert run("verify", "--input", bundle, "--mode", mode) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_hadamard_yes_needs_witness_before_rebuilding(self, tmp_path, capsys, monkeypatch):
        lin = tmp_path / "lin.json"
        had = tmp_path / "had.json"
        run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--random", "--out", lin)
        run("build-hadamard", "--instance", lin, "--r", 1, "--triples", 1,
            "--seed", 1, "--out", had)

        def rebuilt(*args, **kwargs):
            raise AssertionError("the gadget was rebuilt")

        monkeypatch.setattr(hadamard, "build", rebuilt)
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 1
        assert capsys.readouterr().err == (
            "error: verify --mode yes needs a bundle with a planted assignment\n")

    @pytest.mark.parametrize("kind", ["longcode", "dto1"])
    def test_label_cover_yes_checks_the_stored_edges(self, tmp_path, capsys, monkeypatch, kind):
        bundle, base, removed_digit = label_cover_bundle(tmp_path, kind)
        payload = json.loads(bundle.read_text())
        pcp = games.LayeredPcp.from_json_dict(payload["pcp"])
        sigma = pcp.planted_labeling
        colors = [pt // base ** sigma[l][v] % base for l in range(pcp.layers)
                  for v in range(pcp.var_counts[l]) for pt in range(base ** pcp.label_sizes[l])]
        removed = colors.count(removed_digit)
        monkeypatch.setattr(longcode, "build", None)  # the gadget is not rebuilt
        monkeypatch.setattr(dto1, "build", None)
        capsys.readouterr()
        out = tmp_path / "yes.json"
        assert run("verify", "--input", bundle, "--mode", "yes", "--out", out) == 0
        assert capsys.readouterr().out == (
            f"yes-case certificate: removed={removed} violations=0 ok=True\n")
        first = out.read_bytes()
        assert run("verify", "--input", bundle, "--mode", "yes", "--out", out) == 0
        assert out.read_bytes() == first
        report = json.loads(first)["yes_certificate"]
        assert report["ok"] and report["removed"] == removed
        # one stored edge made monochromatic under the planted colouring
        edges = payload["hypergraph"]["edges"]
        edges[0] = [v for v, c in enumerate(colors) if c == 1][:3]
        bundle.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("verify", "--input", bundle, "--mode", "yes") == 2
        assert capsys.readouterr().out == (
            f"yes-case certificate: removed={removed} violations=1 ok=False\n")

    @pytest.mark.parametrize("kind", ["longcode", "dto1"])
    def test_label_cover_yes_needs_a_planted_pcp(self, tmp_path, capsys, kind):
        bundle, _, _ = label_cover_bundle(tmp_path, kind, "--random")
        capsys.readouterr()
        assert run("verify", "--input", bundle, "--mode", "yes") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: verify --mode yes needs a bundle with a planted assignment\n")

    def test_yes_names_an_unknown_kind(self, tmp_path, capsys):
        lin, had = tmp_path / "lin.json", tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--out", had) == 0
        bundle = json.loads(had.read_text())
        assert "planted_assignment" in bundle
        bundle["hypergraph"]["meta"]["kind"] = "x"
        had.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {had}: unknown hypergraph kind 'x'\n")

    def test_yes_names_a_kind_that_is_not_a_string(self, tmp_path, capsys):
        lin, had = tmp_path / "lin.json", tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--out", had) == 0
        bundle = json.loads(had.read_text())
        bundle["hypergraph"]["meta"]["kind"] = ["x"]
        had.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {had}: field 'kind' is not a string: ['x']\n")

    @pytest.mark.parametrize("field, value, message", [
        ("config.r", "1", "{had}: field 'r' is not an integer: '1'"),
        ("config.triples", 2.0, "{had}: field 'triples' is not an integer: 2.0"),
        ("config.seed", True, "{had}: field 'seed' is not an integer: True"),
        ("planted_assignment", [2] * 9, "assignment entry 2 is not 0 or 1"),
    ])
    def test_yes_rejects_a_wrong_hadamard_field(self, tmp_path, capsys, field, value, message):
        lin, had = tmp_path / "lin.json", tmp_path / "had.json"
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", lin) == 0
        assert run("build-hadamard", "--instance", lin, "--out", had) == 0
        bundle = json.loads(had.read_text())
        *parents, last = field.split(".")
        functools.reduce(dict.__getitem__, parents, bundle)[last] = value
        had.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run("verify", "--input", had, "--mode", "yes") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message.format(had=had)}\n"

    def test_dto1_decode_has_no_smooth_t_flag(self, tmp_path, capsys):
        bundle, ind = dto1_bundle(tmp_path, 0.5)
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25", "--smooth-t", 1) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --smooth-t 1\n"

    def test_dto1_decode_takes_t_from_the_pcp(self, tmp_path, capsys, monkeypatch):
        bundle, ind = dto1_bundle(tmp_path, 0.5)
        pcp = json.loads(bundle.read_text())["pcp"]
        pcp["params"]["T"] = 3
        bundle.write_text(json.dumps({"pcp": pcp}))
        seen = []

        def decode(indicators, pcp, params, seed=0):
            seen.append(params.T)
            raise ValueError("stop")

        monkeypatch.setattr(dto1, "decode", decode)
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25") == 1
        assert seen == [3]
        del pcp["params"]["T"]
        bundle.write_text(json.dumps({"pcp": pcp}))
        capsys.readouterr()
        assert run("decode", "--kind", "dto1", "--gadget", bundle, "--indicator", ind,
                   "--delta", "0.25") == 1
        assert capsys.readouterr().err == (
            "error: decode --kind dto1 needs a smooth PCP, whose params carry T\n")
        assert seen == [3]


class TestSharedParser:
    """main parses with one parser per process, but reads GADGETLAB_OUT per call."""

    def test_each_call_reads_the_out_dir_variable(self, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        for name in ("a", "b"):
            monkeypatch.setenv("GADGETLAB_OUT", str(tmp_path / name))
            assert run("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", "lin.json") == 0
            config = json.loads((tmp_path / name / "lin.json").read_text())["config"]
            assert config["out_dir"] == str(tmp_path / name)
        assert run("--out-dir", tmp_path / "c", "gen-3lin", "--n", 9, "--eqs", 9,
                   "--out", "lin.json") == 0
        assert (tmp_path / "c" / "lin.json").exists()

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GADGETLAB_OUT", str(tmp_path))
        assert run("gen-3lin", "--n", 9) == 1
        assert run("gen-3lin", "--n", "nine", "--eqs", 9, "--out", "lin.json") == 1
        assert "invalid int value: 'nine'" in capsys.readouterr().err
        assert run("gen-3lin", "--n", 9, "--eqs", 9, "--out", "lin.json") == 0
        assert json.loads((tmp_path / "lin.json").read_text())["config"] == {
            "command": "gen-3lin", "eqs": 9, "n": 9, "out": str(tmp_path / "lin.json"),
            "out_dir": str(tmp_path), "random": False, "seed": 0}


class TestRoundTrips:
    def test_instance_round_trip(self, tmp_path):
        out = tmp_path / "lin.json"
        run("gen-3lin", "--n", 10, "--eqs", 12, "--seed", 2, "--out", out)
        payload = json.loads(out.read_text())
        inst = games.Lin3Instance.from_json_dict(payload["instance"])
        assert inst.to_json_dict() == payload["instance"]
        assert games.evaluate_lin(inst, payload["planted_assignment"]) == 1

    def test_game_and_pcp_round_trip(self, tmp_path):
        game_path = tmp_path / "game.json"
        pcp_path = tmp_path / "pcp.json"
        run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 4,
            "--out", game_path)
        game = games.Dto1Game.from_json_dict(json.loads(game_path.read_text())["game"])
        assert game.to_json_dict() == json.loads(game_path.read_text())["game"]
        run("build-mlpcp", "--game", game_path, "--layers", 2, "--smooth-t", 1,
            "--out", pcp_path)
        pcp = games.LayeredPcp.from_json_dict(json.loads(pcp_path.read_text())["pcp"])
        assert pcp.to_json_dict() == json.loads(pcp_path.read_text())["pcp"]

    def test_max_is_verify_against_hypergraph_artifact(self, tmp_path):
        h = verify.GenericHypergraph(
            3, tuple(range(5)), tuple(itertools.combinations(range(5), 3)))
        bundle = tmp_path / "h.json"
        cli.write_artifact(bundle, {"hypergraph": h.to_json_dict()})
        out = tmp_path / "is.json"
        assert run("verify", "--input", bundle, "--mode", "max-is", "--out", out) == 0
        report = json.loads(out.read_text())["max_is"]
        assert report["weight"] == [2, 1]
        assert report["optimal"]


class TestReport:
    def test_merges_checks_and_hashes(self, tmp_path):
        corr = tmp_path / "corr.json"
        run("analyze", "--correlations", "--delta", "0.25", "--r", 1, "--out", corr)
        summary = tmp_path / "summary.json"
        # the correlations block contains the ledgered rho_x_yz failure
        assert run("report", corr, "--out", summary) == 2
        payload = json.loads(summary.read_text())
        assert payload["inputs"][0]["sha256"]
        names = {c["check"] for c in payload["checks"]}
        assert "min_atom_ok" in names and "rho_x_yz_ok" in names
        assert not payload["all_ok"]

    def test_all_ok_summary_exits_zero(self, tmp_path):
        game = tmp_path / "game.json"
        pcp = tmp_path / "pcp.json"
        run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5, "--out", game)
        run("build-mlpcp", "--game", game, "--layers", 2, "--smooth-t", 1, "--out", pcp)
        summary = tmp_path / "summary.json"
        assert run("report", pcp, "--out", summary) == 0
        assert json.loads(summary.read_text())["all_ok"]


def test_import_cli_loads_no_scipy():
    # scipy costs import time and memory (scipy.optimize alone adds over 40 MB of RSS);
    # the modules that need it import it where it is used.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", "import sys, gadgetlab.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def written_bytes(payload) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.json"
        cli.write_artifact(path, payload)
        return path.read_bytes()


def stdlib_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
            + "\n").encode()


# JSON values with int-row lists, near misses, and nesting, and numpy arrays:
# (n, k) int64 ones (edges), which the writer renders itself, and the bool,
# float and 1-D ones it writes as their tolist()
INTS = st.integers(-2**70, 2**70)
INT_ROWS = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(INTS, min_size=k, max_size=k), max_size=5))
NEAR_ROWS = st.lists(st.lists(INTS | st.booleans() | st.floats(allow_nan=False), max_size=3),
                     max_size=4)
INT64 = np.iinfo(np.int64)
INT_ARRAYS = hnp.arrays(np.int64, st.tuples(st.integers(0, 6), st.integers(0, 4)),
                        elements=st.integers(INT64.min, INT64.max))
OTHER_ARRAYS = (hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0))
                | hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0))
                | hnp.arrays(np.int64, st.tuples(st.integers(0, 5)),
                             elements=st.integers(INT64.min, INT64.max)))
VALUES = st.recursive(
    st.none() | st.booleans() | INTS | st.floats(allow_nan=False) | st.text(max_size=4)
    | INT_ROWS | NEAR_ROWS | INT_ARRAYS | OTHER_ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=20)


class TestArtifactWriter:
    """write_artifact renders 2-D int arrays itself; its bytes must be the
    stdlib's with every array written as its tolist()."""

    @pytest.mark.parametrize("payload", [
        {"empty": [], "empty_rows": [[]], "two_empty_rows": [[], []], "dict": {}},
        {"edges": [[-3, 0, 2**63], [2**70, -2**70, 1]]},
        {"bools": [[1, True], [0, 0]], "floats": [[1, 2.0], [3, 4]], "all_bools": [[True]]},
        {"ragged": [[1, 2], [3]], "mixed": [[1, 2], "x"], "nested": [[[1, 2]], [[3, 4]]]},
        {"z": [[1]], "a": {"m": [[2, 3]], "b": [[4, 5]], "c": [{"r": [[6, 7]]}, [[8]]]}},
        [[1, 2, 3], [4, 5, 6]],
        {"hypergraph": verify.GenericHypergraph(
            3, tuple(range(6)), tuple(itertools.combinations(range(6), 3))).to_json_dict()},
        {"a": [np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)],
         "b": np.array([[True, False]]), "c": np.arange(3), "u": np.ones((1, 2), np.uint8),
         "d": {"e": np.array([[INT64.max, INT64.min]]), "f": [[np.array([[1]])]]}},
    ])
    def test_matches_stdlib(self, payload):
        assert written_bytes(payload) == stdlib_bytes(payload)

    def test_rows_cross_write_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "ROWS_PER_WRITE", 3)
        for n, form in itertools.product(range(1, 8), (np.ndarray.tolist, np.asarray)):
            a = np.array([[i, -i] for i in range(n)])
            payload = {"a": form(a), "b": {"c": form(a[:, :1])}}
            assert written_bytes(payload) == stdlib_bytes(payload)

    def test_other_types_raise_and_leave_no_file(self, tmp_path):
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            cli.write_artifact(tmp_path / "a.json", {"edges": np.ones((2, 2), dtype=np.int64),
                                                     "weight": Fraction(1, 3)})
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=6), VALUES, max_size=5))
    def test_matches_stdlib_on_generated_payloads(self, payload):
        assert written_bytes(payload) == stdlib_bytes(payload)
