"""Command-line pipelines: determinism, exit codes, file round trips."""
import functools
import hashlib
import itertools
import json
import operator
import os
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        assert {k: config[k] for k in ("eps", "gamma", "tau", "s")} == {
            "eps": 0.5, "gamma": 0.01, "tau": 1e-4, "s": 3.0}
        assert "nu" not in config


def refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


class TestReadmeArtifacts:
    """The README pipelines, run with its relative paths, write these bytes
    and print these lines."""

    @pytest.fixture(autouse=True)
    def readme_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("GADGETLAB_OUT", raising=False)
        yield
        # every artifact the pipeline wrote is strict JSON: no NaN or Infinity
        artifacts = sorted(tmp_path.glob("*.json"))
        assert artifacts
        for path in artifacts:
            json.loads(path.read_text(), parse_constant=refuse_constant)

    def pinned(self, capsys, *steps):
        """Run each (argv, exit code, artifact, its sha256, stdout) step in turn."""
        for argv, code, artifact, sha256, stdout in steps:
            capsys.readouterr()
            assert (run(*argv), capsys.readouterr().out) == (code, stdout), argv
            assert hashlib.sha256(Path(artifact).read_bytes()).hexdigest() == sha256, argv

    def test_build_longcode_artifact(self, capsys):
        planted_longcode_bundle(Path("."))  # ind.json; lc.json is rebuilt below from plain.json
        self.pinned(capsys, (
            ("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "3,3",
             "--seed", 3, "--out", "plain.json"), 0, "plain.json",
            "0c542306e34ffcd748a51e4f0dc781c6bb082d3d4b078896bd2652da03c3d17e",
            "wrote plain.json: plain 2-layer PCP, label sizes [3, 3]\n"
        ), (
            ("build-longcode", "--pcp", "plain.json", "--epsilon", "1/10", "--out", "lc.json"),
            0, "lc.json", "a24837b28b8d0053bdf73a9ebfda85726765f3e02f17877599fa907344d22d52",
            "wrote lc.json: mode=enumerate, 108 vertices\n"
        ), (
            ("verify", "--input", "lc.json", "--mode", "almost", "--epsilon", "1/10",
             "--budget", 100000, "--out", "almost.json"), 0, "almost.json",
            "97153f67c162fcbcb1593efcc4aec9891d9a704bf356fb94dc209c08338c96c9",
            "almost-two-colorable at eps=1/10: True\n"
        ), (
            ("decode", "--kind", "longcode", "--gadget", "lc.json", "--indicator", "ind.json",
             "--delta", "0.4", "--out", "decode.json"), 0, "decode.json",
            "95f4bb2bb690b060b60f1ee9672661f529ac95e7ff942448eb89a87664e9e390",
            json.dumps({"labels_u": {"1,0": 1, "1,1": 1}, "labels_v": {"0,0": 0, "0,1": 1},
                        "layer_pair": [0, 1], "satisfied_fraction": "1",
                        "satisfied_fraction_all": "1"}, indent=2) + "\n"
        ))

    def test_build_dto1_artifact(self, capsys):
        self.pinned(capsys, (
            ("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5, "--out", "game.json"),
            0, "game.json", "d3b78ea985fb6d269edb87cf9b672cf214eda7f854e8d109493871af19603787",
            "wrote game.json: 3x2 game, labels 2->1, d=2\n"
        ), (
            ("build-mlpcp", "--game", "game.json", "--layers", 2, "--smooth-t", 1, "--out", "pcp.json"),
            0, "pcp.json", "39eeb08c45ce79ec45b079ea94d8d11d1e0da715848623174becf2f2c3456932",
            "wrote pcp.json: smooth 2-layer PCP, label sizes [8, 4], "
            "smoothness 0.3333 <= 1.0000: True\n"
        ), (
            ("build-dto1", "--pcp", "pcp.json", "--delta", "0.25", "--out", "dto1.json"),
            0, "dto1.json", "e45f2e509b961209d1bc5c365b3f0ca496e6078cf1b151046888d5ac69e99690",
            "wrote dto1.json: mode=enumerate, 352 vertices\n"
        ), (
            ("verify", "--input", "dto1.json", "--mode", "yes", "--out", "yes.json"),
            0, "yes.json", "62bd200c020963e82a2029b5a79a7f93338d5e470e82c8b140435e06729f737a",
            "yes-case certificate: removed=0 violations=0 ok=True\n"
        ), (
            ("verify", "--input", "dto1.json", "--mode", "two-color", "--out", "two-color.json"),
            0, "two-color.json", "01bfb53595f9703d054164b864adb97ebda82440bc09cf02f54abf8a1b3c8867",
            "two-colorable: True\n"
        ))

    def test_build_hadamard_artifact(self, capsys):
        self.pinned(capsys, (
            ("gen-3lin", "--n", 9, "--eqs", 9, "--seed", 7, "--out", "lin.json"), 0, "lin.json",
            "66d4f490f01d97ef9f16e4d678cba1cffc566ab24ae81b4438d43b49b71b69b5",
            "wrote lin.json: 9 variables, 9 equations\n"
        ), (
            ("build-hadamard", "--instance", "lin.json", "--r", 1, "--triples", 2, "--out", "had.json"),
            0, "had.json", "1a8939bec784ea5e2497417a5f4ee862eac838fe6907490141468188d90e6362",
            "wrote had.json: 24 vertices, 32 edges, 0 degenerate raw edges dropped\n"
        ), (
            ("verify", "--input", "had.json", "--mode", "max-is", "--budget", 1000000,
             "--out", "max-is.json"), 0, "max-is.json",
            "64bbb8cc5ecb7578d5f9567ada82f173a10f22fd602907d928aeaac4e74df50a",
            "max independent set: weight 20 (20 vertices), optimal=True\n"
        ))

    def test_analyze_and_report_artifacts(self, capsys):
        assert run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5,
                   "--out", "game.json") == 0
        assert run("build-mlpcp", "--game", "game.json", "--layers", 2, "--smooth-t", 1,
                   "--out", "pcp.json") == 0
        self.pinned(capsys, (
            ("analyze", "--correlations", "--delta", "0.25", "--r", 1, "--out", "corr.json",
             "--csv", "dist.csv"), 0, "corr.json",
            "e30e30512d981e3a0ea4b07478868d0b23281aee409f2c1c7fd4c96d65432fbf", "wrote corr.json\n"
        ), (  # 5/6: corr.json's rho_x_yz_ok is false, as criterion 8 is red
            ("report", "corr.json", "pcp.json", "--out", "summary.json"), 2, "summary.json",
            "4bd748f5fbfeada6dd4828a34f09209257530decd7698880bbf956f88ad137ac",
            "wrote summary.json: 5/6 checks pass\n"
        ))

    def test_dto1_decode_artifact(self, capsys):
        pcp, indicators = decode_pcp_and_indicators(Path("."))
        Path("ind.json").write_text(json.dumps({"indicators": indicators}))
        self.pinned(capsys, (
            ("decode", "--kind", "dto1", "--gadget", pcp, "--indicator", "ind.json",
             "--delta", "0.25", "--gamma", "0.05", "--seed", 1, "--out", "decode.json"),
            0, "decode.json", "b48ee3b172517429bb34c6c7cdb1bb9e5bf4394411bb5e7e3a6260cfcb5a9753",
            json.dumps({"layer_pair": [0, 1], "outcome": "ok", "satisfied_fraction": "8/9",
                        "satisfied_fraction_all": "8/9"}, indent=2) + "\n"
        ))


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

    @pytest.mark.parametrize("field, value, message", [
        ("config", [1], "field 'config' is not an object: [1]"),
        ("config", {"epsilon": [1, 10]}, "field 'epsilon' is not a string: [1, 10]"),
        ("config.epsilon", True, "field 'epsilon' is not a string: True"),
        ("config.epsilon", "3/2", "field 'epsilon': must lie in [0, 1], got 3/2"),
        ("config.epsilon", "1/x", "field 'epsilon': not a rational: '1/x'"),
        ("hypergraph", [1], "field 'hypergraph' is not an object: [1]"),
        ("hypergraph.meta", [1], "field 'meta' is not an object: [1]"),
        ("pcp", [1], "field 'pcp' is not an object: [1]"),
        ("pcp.planted_labeling", "ab", "field 'planted_labeling' is not a list: 'ab'"),
        # a planted labeling is checked against the PCP's shape and label sizes
        ("pcp.planted_labeling", [[99, 0], [0, 0]],
         "planted_labeling layer 0 entry 0 is 99, not a label in [0, 3)"),
        ("pcp.planted_labeling", ["ab", "cd"],
         "planted_labeling layer 0 is 'ab', not a sequence of 2 labels"),
        ("pcp.planted_labeling", [[0], [0, 0]],
         "planted_labeling layer 0 is (0,), not a sequence of 2 labels"),
    ])
    def test_mistyped_yes_field_names_file_and_field(self, tmp_path, capsys, field, value,
                                                     message):
        lc, _ = longcode_bundle(tmp_path)
        payload = json.loads(lc.read_text())
        *parents, last = field.split(".")
        functools.reduce(dict.__getitem__, parents, payload)[last] = value
        lc.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("verify", "--input", lc, "--mode", "yes") == 1
        assert capsys.readouterr() == ("", f"error: {lc}: {message}\n")

    @pytest.mark.parametrize("field, value, message", [
        ("pcp", [1], "field 'pcp' is not an object: [1]"),
        ("pcp.var_counts", 5, "field 'var_counts' is not a list: 5"),
        ("pcp.constraints", 7, "field 'constraints' is not a list: 7"),
        ("pcp.constraints.0.projection", 3, "field 'projection' is not a list: 3"),
        ("pcp.params.d", "2", "field 'd' is not an integer: '2'"),
        ("pcp.params.T", 1.5, "field 'T' is not an integer: 1.5"),
        ("pcp.params.d", 0, "params {'T': 1, 'd': 0} need integers d and T >= 1"),
        ("pcp.var_names", [5, 6], "var_names (5, 6) is not one sequence of var_counts[l] strings per layer l"),
    ])
    @pytest.mark.parametrize("argv", [
        ["build-longcode", "--pcp", "{path}", "--epsilon", "1/10", "--out", "{dir}/out.json"],
        ["build-dto1", "--pcp", "{path}", "--delta", "0.25", "--out", "{dir}/out.json"],
        ["decode", "--kind", "dto1", "--gadget", "{path}", "--indicator", "{dir}/ind.json",
         "--delta", "0.25", "--out", "{dir}/out.json"],
        ["verify", "--input", "{path}", "--mode", "yes", "--out", "{dir}/out.json"],
    ], ids=["build-longcode", "build-dto1", "decode", "verify-yes"])
    def test_mistyped_pcp_field_names_file_and_field(self, tmp_path, capsys, field, value,
                                                     message, argv):
        """Every PCP reader on a build-dto1 bundle of a one-constraint smooth
        PCP, with a planted labeling and variable names, one field mistyped."""
        pcp = games.LayeredPcp(2, (1, 1), (4, 2), (games.PcpConstraint(0, 1, 0, 0, (0, 0, 1, 1)),),
                               params={"d": 2, "T": 1}, planted_labeling=((2,), (1,)),
                               var_names=(("V[0]",), ("U[0]",)))
        path = tmp_path / "bundle.json"
        (tmp_path / "pcp.json").write_text(json.dumps({"pcp": pcp.to_json_dict()}))
        assert run("build-dto1", "--pcp", tmp_path / "pcp.json", "--delta", "0.25", "--out", path) == 0
        payload = json.loads(path.read_text())
        *parents, last = [int(key) if key.isdigit() else key for key in field.split(".")]
        functools.reduce(operator.getitem, parents, payload)[last] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(*[a.format(path=path, dir=tmp_path) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv, flag", [
        *((["gen-game", "--u", 1, "--v", 3, "--k", 1, "--d", 2, "--degree", 1], flag)
          for flag in ("--u", "--v", "--k", "--d", "--degree")),
        (["gen-3lin", "--n", 9, "--eqs", 9], "--eqs"),
        (["build-mlpcp", "--layers", 2, "--vars-per-layer", 2], "--vars-per-layer"),
    ])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_one(self, tmp_path, capsys, argv, flag, value):
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        out = tmp_path / "out.json"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: must be at least 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-0.5", "2", "inf"])
    def test_density_outside_the_unit_interval_is_one(self, tmp_path, capsys, value):
        out = tmp_path / "pcp.json"
        assert run("build-mlpcp", "--layers", 2, "--density", value, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: argument --density: must lie in [0, 1], got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("var_counts", [-1, -1]), ("label_sizes", [3, 0])])
    def test_pcp_file_with_counts_out_of_range_is_one(self, tmp_path, capsys, field, value):
        pcp, out = tmp_path / "plain.json", tmp_path / "lc.json"
        assert run("build-mlpcp", "--layers", 2, "--label-sizes", "3,3", "--out", pcp) == 0
        payload = json.loads(pcp.read_text())
        payload["pcp"][field] = value
        pcp.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("build-longcode", "--pcp", pcp, "--epsilon", "1/10", "--out", out) == 1
        counts = {"var_counts": [2, 2], "label_sizes": [3, 3], field: value}
        assert capsys.readouterr().err == (
            f"error: {pcp}: var_counts {counts['var_counts']} and label_sizes "
            f"{counts['label_sizes']} need integers >= 0 and >= 1\n")
        assert not out.exists()

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
            raise ValueError("no witness pair found in 3 draws")

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
        assert capsys.readouterr().out == "two-colorable: inconclusive after 1 nodes\n"
        # the whole search takes two nodes, so a budget of two answers it
        assert run("verify", "--input", bundle, "--mode", "two-color", "--budget", 2,
                   "--out", out) == 2
        assert json.loads(out.read_text())["two_colorable"] is False
        assert capsys.readouterr().out == "two-colorable: False\n"

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
        assert captured.err == f"error: {bundle}: {message}\n" and captured.out == ""

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
            f"error: {bundle}: vertex entry {h['vertices'][1]!r} needs an int id and a weight "
            "[numerator, denominator] of ints with a positive denominator\n")

    @pytest.mark.parametrize("fields, message", [
        ({"edges": 7}, "edges 7 is not a list of edges"),
        ({"edges": "0 1 2"}, "edges '0 1 2' is not a list of edges"),
        ({"edges": {"0": [0, 1, 2]}}, "edges {'0': [0, 1, 2]} is not a list of edges"),
        ({"k": True}, "k True is not a positive integer"),
        ({"k": "3"}, "k '3' is not a positive integer"),
        ({"k": 3.0}, "k 3.0 is not a positive integer"),
        ({"k": 0, "edges": []}, "k 0 is not a positive integer"),
        ({"k": -1, "edges": []}, "k -1 is not a positive integer"),
    ])
    @pytest.mark.parametrize("mode", ["max-is", "two-color", "almost"])
    def test_verify_malformed_k_or_edges_is_one(self, tmp_path, capsys, fields, message, mode):
        h = {"k": 3, "vertices": [{"id": v, "weight": [1, 1]} for v in range(3)],
             "edges": [[0, 1, 2]], **fields}
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"hypergraph": h}))
        assert run("verify", "--input", bundle, "--mode", mode) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {bundle}: {message}\n"

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
        assert captured.out == "" and captured.err == f"error: {bundle}: {message}\n"

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
        ("config.triples", 10**20, f"{10**20} triples need more draws than the budget of 1000000"),
        ("config.triples", 20000, "20000 triples at r=1 give 5120000 raw edge rows, cap is 2097152"),
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

    def test_analyze_without_a_mode_is_one(self, capsys):
        assert run("analyze", "--delta", "0.25") == 1
        assert capsys.readouterr() == (
            "", "error: analyze needs one of --correlations, --spectra, --family, --gamma\n")

    @pytest.mark.parametrize("flag", ["--eps", "--gamma", "--tau", "--s"])
    def test_longcode_decode_refuses_the_dto1_flags(self, tmp_path, capsys, flag):
        lc, ind = planted_longcode_bundle(tmp_path)
        capsys.readouterr()
        assert run("decode", "--kind", "longcode", "--gadget", lc, "--indicator", ind,
                   "--delta", "0.4", flag, "0.3", "--out", tmp_path / "dec.json") == 1
        assert capsys.readouterr() == ("", f"error: decode --kind longcode does not take {flag}\n")
        assert not (tmp_path / "dec.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--layers", 3, "--label-sizes", "3,3"), "--label-sizes gives 2 sizes for --layers 3"),
        (("--layers", 2, "--label-sizes", "3,3,3"), "--label-sizes gives 3 sizes for --layers 2"),
        (("--layers", 2, "--label-sizes", "3,0"), "--label-sizes needs each size at least 1, got 3,0"),
        (("--layers", 2, "--label-sizes=-1,3"), "--label-sizes needs each size at least 1, got -1,3"),
        (("--layers", 2, "--label-sizes", "3,x"), "--label-sizes is not a comma list of integers: '3,x'"),
        (("--layers", 2, "--label-sizes", ""), "--label-sizes is not a comma list of integers: ''"),
    ])
    def test_plain_mlpcp_label_sizes_are_checked(self, tmp_path, capsys, flags, message):
        out = tmp_path / "plain.json"
        assert run("build-mlpcp", *flags, "--out", out) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_vertex_id_outside_int64_is_one(self, tmp_path, capsys):
        h = {"k": 3, "vertices": [{"id": v, "weight": [1, 1]} for v in (0, 1, 10**20)],
             "edges": [[0, 1, 10**20]]}
        bundle = tmp_path / "big.json"
        bundle.write_text(json.dumps({"hypergraph": h}))
        assert run("verify", "--input", bundle, "--mode", "two-color") == 1
        assert capsys.readouterr() == ("", f"error: {bundle}: vertex entry {h['vertices'][2]!r} "
                                           "has an id that is not an int64 integer\n")


def src_env() -> dict:
    """The environment of a Python process that imports this checkout's gadgetlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_subprocess(*argv, timeout: float = 20,
                   memory: int | None = None) -> subprocess.CompletedProcess:
    """The CLI in its own process, killed (a test failure) if it outlives
    timeout; with memory, its address space is limited to that many bytes."""
    limit = None if memory is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)))
    return subprocess.run([sys.executable, "-m", "gadgetlab.cli", *map(str, argv)], env=src_env(),
                          capture_output=True, text=True, timeout=timeout, preexec_fn=limit)


class TestLabelSizeBounds:
    """A label size too large for a table or for int64 vertex ids is refused
    before base ** size or 1 << size is formed, and a variable count over
    games.MAX_VARIABLES before a list per variable is."""

    def pcp(self, tmp_path, size: int) -> Path:
        """A smooth PCP file with no constraints and label sizes [size, 1]."""
        pcp = tmp_path / "pcp.json"
        pcp.write_text(json.dumps({"pcp": {"layers": 2, "var_counts": [1, 1], "label_sizes": [size, 1],
                                           "constraints": [], "params": {"d": 2, "T": 1}}}))
        return pcp

    @pytest.mark.parametrize("kind, size", [("dto1", 10**20), ("longcode", 10**20),
                                            ("longcode", 10**6)])
    def test_build_refuses_a_code_past_int64(self, tmp_path, kind, size):
        pcp = self.pcp(tmp_path, size)
        flag = ("--delta", "0.25") if kind == "dto1" else ("--epsilon", "1/10")
        done = run_subprocess(f"build-{kind}", "--pcp", pcp, *flag, "--out", tmp_path / "g.json")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", (
            f"error: label sizes [{size}, 1] on [1, 1] variables give over 2**63 vertices, "
            "more than int64 vertex ids can name\n"))

    @pytest.mark.parametrize("command", ["build-longcode", "build-dto1", "decode-dto1"])
    def test_more_variables_than_the_cap_are_refused(self, tmp_path, command):
        """A var count of 2**31, which no planted labeling or names bound, is
        refused where the PCP is read, before a list per variable is built;
        under a 1 GB address space such a list fails the test, not the machine."""
        pcp = tmp_path / "pcp.json"
        if command == "build-longcode":
            assert run("build-mlpcp", "--layers", 2, "--vars-per-layer", 2, "--label-sizes", "2,2",
                       "--seed", 3, "--out", pcp) == 0
        else:
            game = tmp_path / "game.json"
            assert run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5,
                       "--out", game) == 0
            assert run("build-mlpcp", "--game", game, "--layers", 2, "--smooth-t", 1,
                       "--out", pcp) == 0
        bundle = json.loads(pcp.read_text())
        bundle["pcp"]["var_counts"][0] = 2**31
        for bound in ("planted_labeling", "var_names"):
            bundle["pcp"].pop(bound, None)
        pcp.write_text(json.dumps(bundle))
        ind = tmp_path / "ind.json"
        ind.write_text(json.dumps({"indicators": {"0,0": [0.5]}}))
        argv = {"build-longcode": ("build-longcode", "--pcp", pcp, "--epsilon", "1/10"),
                "build-dto1": ("build-dto1", "--pcp", pcp, "--delta", "0.25"),
                "decode-dto1": ("decode", "--kind", "dto1", "--gadget", pcp, "--indicator", ind,
                                "--delta", "0.25")}[command]
        done = run_subprocess(*argv, "--out", tmp_path / "out.json", memory=2**30)
        variables = sum(bundle["pcp"]["var_counts"])
        assert (done.returncode, done.stdout, done.stderr) == (1, "", (
            f"error: {pcp}: the PCP has {variables} variables, cap is {games.MAX_VARIABLES}\n"))

    def test_dto1_decode_refuses_a_label_size_past_the_table_width(self, tmp_path):
        pcp, ind = self.pcp(tmp_path, 10**20), tmp_path / "ind.json"
        ind.write_text(json.dumps({"indicators": {"0,0": [0.5], "1,0": [0.5, 0.5]}}))
        done = run_subprocess("decode", "--kind", "dto1", "--gadget", pcp, "--indicator", ind,
                              "--delta", "0.25")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", (
            f"error: {pcp}: label size {10**20} of layer 0 is over 24, the widest cube table\n"))


@pytest.mark.parametrize("size", [12, 16])
def test_dto1_decode_of_dictators_at_wide_labels(tmp_path, size):
    """Two variables per layer, label sizes size and size / 2, every pair
    constrained by a 2-to-1 projection that keeps the planted labeling: the
    dictators of that labeling decode to it, within the time limit."""
    rng = np.random.default_rng(size)
    sizes, planted = [size, size // 2], [[1, size - 1], [0, size // 2 - 1]]
    constraints = []
    for v, u in itertools.product(range(2), range(2)):
        projection = rng.permutation(np.arange(size) // 2)
        j = int(np.flatnonzero(projection == planted[1][u])[0])  # swap to keep the planted labels
        projection[[planted[0][v], j]] = projection[[j, planted[0][v]]]
        constraints.append({"from_layer": 0, "to_layer": 1, "v": v, "u": u,
                            "projection": projection.tolist()})
    pcp, ind, out = tmp_path / "pcp.json", tmp_path / "ind.json", tmp_path / "decode.json"
    pcp.write_text(json.dumps({"pcp": {"layers": 2, "var_counts": [2, 2], "label_sizes": sizes,
                                       "constraints": constraints, "params": {"d": 2, "T": 1},
                                       "planted_labeling": planted}}))
    ind.write_text(json.dumps({"indicators": {
        f"{l},{v}": (1 - (np.arange(1 << sizes[l]) >> label & 1)).tolist()
        for l in range(2) for v, label in enumerate(planted[l])}}))
    done = run_subprocess("decode", "--kind", "dto1", "--gadget", pcp, "--indicator", ind,
                          "--delta", "0.25", "--gamma", "0.05", "--out", out)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())["decode"]
    assert report["outcome"] == "ok"
    assert report["satisfied_fraction"] == report["satisfied_fraction_all"] == "1"


def decode_pcp_and_indicators(tmp_path):
    """The seed-1 smooth PCP of a 3 x 3 game (label sizes 8 and 4 on 1 + 9
    variables) and noisy dictator indicators of its planted labeling."""
    game, pcp_path = tmp_path / "game.json", tmp_path / "pcp.json"
    assert run("gen-game", "--u", 3, "--v", 3, "--k", 1, "--d", 2, "--seed", 1, "--out", game) == 0
    assert run("build-mlpcp", "--game", game, "--layers", 2, "--smooth-t", 1, "--out", pcp_path) == 0
    pcp = json.loads(pcp_path.read_text())["pcp"]
    assert (pcp["label_sizes"], pcp["var_counts"]) == ([8, 4], [1, 9])
    rng = np.random.default_rng(1)
    indicators = {}
    for layer, size in enumerate(pcp["label_sizes"]):
        for var, label in enumerate(pcp["planted_labeling"][layer]):
            dictator = (np.arange(1 << size) >> label) & 1
            indicators[f"{layer},{var}"] = (0.7 * dictator + 0.3 * rng.random(1 << size)).tolist()
    return pcp_path, indicators


def renamed(d: dict, old: str, new: str) -> dict:
    return {(new if k == old else k): v for k, v in d.items()}


class TestFileReaders:
    """A malformed input file is exit 1 with one line naming the file and the field."""

    def run_error(self, capsys, *argv) -> str:
        capsys.readouterr()
        assert run(*argv) == 1
        return capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (lambda ind: {"indicators": renamed(ind, "0,0", "0")},
         "field '0' names no PCP variable 'layer,var'"),
        (lambda ind: {"indicators": {**ind, "5,0": ind["0,0"]}},
         "field '5,0' names no PCP variable 'layer,var'"),
        (lambda ind: {"indicators": renamed(ind, "1,0", "1,9")},
         "field '1,9' names no PCP variable 'layer,var'"),
        (lambda ind: {"indicators": renamed(ind, "1,0", "01,0")},
         "field '01,0' names no PCP variable 'layer,var'"),
        (lambda ind: {"indicators": [1, 2]}, "field 'indicators' is not an object: [1, 2]"),
        (lambda ind: {"values": ind}, "missing field 'indicators'"),
        (lambda ind: {"indicators": {k: v * 2 if k.startswith("1,") else v for k, v in ind.items()}},
         "field '1,0' is not a list of 16 numbers"),
        (lambda ind: {"indicators": {**ind, "1,4": [0.1, 0.2, 0.3]}},
         "field '1,4' is not a list of 16 numbers"),
        (lambda ind: {"indicators": {**ind, "0,0": ind["0,0"][:-1] + [True]}},
         "field '0,0' is not a list of 256 numbers"),
        (lambda ind: {"indicators": {**ind, "1,2": ["0.5"] * 16}},
         "field '1,2' is not a list of 16 numbers"),
        (lambda ind: {"indicators": {**ind, "1,2": 0.5}}, "field '1,2' is not a list: 0.5"),
        (lambda ind: {"indicators": {k: v for k, v in ind.items() if k != "1,3"}},
         "no indicator for PCP variable '1,3'"),
        (lambda ind: {"indicators": {k: v for k, v in reversed(ind.items()) if k not in ("1,3", "0,0")}},
         "no indicator for PCP variable '0,0'"),
    ])
    def test_dto1_indicators(self, tmp_path, capsys, change, message):
        pcp, indicators = decode_pcp_and_indicators(tmp_path)
        ind = tmp_path / "ind.json"
        decode = ("decode", "--kind", "dto1", "--gadget", pcp, "--indicator", ind, "--delta", "0.25",
                  "--gamma", "0.05", "--seed", 1)
        ind.write_text(json.dumps({"indicators": indicators}))
        assert run(*decode) == 0
        ind.write_text(json.dumps(change(indicators)))
        assert self.run_error(capsys, *decode) == f"error: {ind}: {message}\n"

    def test_dto1_nan_indicator(self, tmp_path, capsys):
        pcp, indicators = decode_pcp_and_indicators(tmp_path)
        indicators["1,3"][0] = float("nan")
        ind = tmp_path / "ind.json"
        ind.write_text(json.dumps({"indicators": indicators}))
        assert self.run_error(capsys, "decode", "--kind", "dto1", "--gadget", pcp, "--indicator", ind,
                              "--delta", "0.25") == "error: indicator (1, 3) is not [0, 1]-valued\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("gamma", "nan", "gamma must be in [0, 1], got nan"),
        ("gamma", "1.5", "gamma must be in [0, 1], got 1.5"),
        ("gamma", "-1", "gamma must be in [0, 1], got -1.0"),
        ("tau", "nan", "tau must be finite and >= 0, got nan"),
        ("tau", "inf", "tau must be finite and >= 0, got inf"),
        ("s", "nan", "s must be >= 0, got nan"),
        ("s", "-1", "s must be >= 0, got -1.0"),
        ("eps", "nan", "eps must be a number, got nan"),
        ("delta", "nan", "delta must be a number, got nan"),
    ])
    def test_dto1_meaningless_parameters(self, tmp_path, capsys, flag, value, message):
        pcp, indicators = decode_pcp_and_indicators(tmp_path)
        ind, out = tmp_path / "ind.json", tmp_path / "decode.json"
        ind.write_text(json.dumps({"indicators": indicators}))
        argv = {"delta": "0.25", "gamma": "0.05", **{flag: value}}
        assert self.run_error(capsys, "decode", "--kind", "dto1", "--gadget", pcp, "--indicator", ind,
                              *(f for k, v in argv.items() for f in (f"--{k}", v)),
                              "--out", out) == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("vertices, message", [
        (5, "field 'vertices' is not a list: 5"),
        (["a"], "field 'vertices' is not a list of integers"),
        ([0.5, 1, 2], "field 'vertices' is not a list of integers"),
        ([True, 1, 2], "field 'vertices' is not a list of integers"),
    ])
    def test_longcode_vertices(self, tmp_path, capsys, vertices, message):
        lc, ind = longcode_bundle(tmp_path)
        ind.write_text(json.dumps({"vertices": vertices}))
        assert self.run_error(capsys, "decode", "--kind", "longcode", "--gadget", lc,
                              "--indicator", ind, "--delta", "0.2") == f"error: {ind}: {message}\n"

    @pytest.mark.parametrize("flags", [
        ("analyze", "--spectra", "{f}"),
        ("report", "{f}", "--out", "{out}"),
        ("build-mlpcp", "--game", "{f}", "--layers", 2, "--out", "{out}"),
        ("build-hadamard", "--instance", "{f}", "--out", "{out}"),
        ("build-dto1", "--pcp", "{f}", "--delta", "0.25", "--out", "{out}"),
        ("verify", "--input", "{f}", "--mode", "two-color"),
    ])
    @pytest.mark.parametrize("top", [[1], [1, 2], 5, None, "text"])
    def test_top_level_is_not_an_object(self, tmp_path, capsys, flags, top):
        f, out = tmp_path / "top.json", tmp_path / "out.json"
        f.write_text(json.dumps(top))
        argv = [str(a).format(f=f, out=out) for a in flags]
        assert self.run_error(capsys, *argv) == f"error: {f}: the file holds no JSON object\n"
        assert not out.exists()

    def test_decode_files_are_objects(self, tmp_path, capsys):
        lc, ind = longcode_bundle(tmp_path)
        top = tmp_path / "top.json"
        top.write_text("[1]")
        for gadget, indicator in ((top, ind), (lc, top)):
            assert self.run_error(capsys, "decode", "--kind", "longcode", "--gadget", gadget,
                                  "--indicator", indicator, "--delta", "0.2") == (
                f"error: {top}: the file holds no JSON object\n")

    @pytest.mark.parametrize("instance, message", [
        ({"n": 9, "equations": 5}, "field 'equations' is not a list: 5"),
        ({"n": "9", "equations": []}, "field 'n' is not an integer: '9'"),
        ({"n": 9, "equations": [5]}, "equation 5 is not four integers i, j, k, b"),
        ({"n": 9, "equations": [[0, 1, "2", 0]]}, "equation (0, 1, '2', 0) is not four integers i, j, k, b"),
        ({"n": 9, "equations": [[0, 1, 2]]}, "equation (0, 1, 2) is not four integers i, j, k, b"),
        ({"n": 9, "equations": [[0, 1, 2, True]]},
         "equation (0, 1, 2, True) is not four integers i, j, k, b"),
        ({"n": 9, "equations": [[0, 1, 9, 0]]}, "equation (0, 1, 9, 0) has a variable out of range [0, 9)"),
        ({"n": 3, "equations": [[0, 1, 2, 0]], "declared_degree": "1"},
         "field 'declared_degree' is not an integer: '1'"),
    ])
    def test_instance_fields(self, tmp_path, capsys, instance, message):
        f = tmp_path / "lin.json"
        f.write_text(json.dumps({"instance": instance}))
        assert self.run_error(capsys, "build-hadamard", "--instance", f,
                              "--out", tmp_path / "had.json") == f"error: {f}: {message}\n"

    def test_instance_that_is_no_object(self, tmp_path, capsys):
        f = tmp_path / "lin.json"
        f.write_text(json.dumps({"instance": [1]}))
        assert self.run_error(capsys, "build-hadamard", "--instance", f, "--out", tmp_path / "had.json") == (
            f"error: {f}: field 'instance' is not an object: [1]\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda g: g.update(d="2"), "field 'd' is not an integer: '2'"),
        (lambda g: g.update(u_count=True), "field 'u_count' is not an integer: True"),
        (lambda g: g.update(constraints=5), "field 'constraints' is not a list: 5"),
        (lambda g: g.update(constraints=[[0, 0]]),
         "field 'constraints' is not a list of [v, u, projection] lists"),
        (lambda g: g["constraints"][0].__setitem__(1, 7), "constraint (0, 7) is not a pair of variables (v, u)"),
        (lambda g: g["constraints"][0].__setitem__(0, -1), "constraint (-1, 0) is not a pair of variables (v, u)"),
        (lambda g: g["constraints"][0][2].__setitem__(0, 5),
         "projection of constraint (0,0) is not exactly d-to-1 onto [0, 1)"),
        (lambda g: g["constraints"][0][2].__setitem__(0, "0"),
         "projection of constraint (0,0) is not exactly d-to-1 onto [0, 1)"),
        (lambda g: g.update(planted=[1]), "field 'planted' is not an object: [1]"),
        (lambda g: g["planted"].update(u_labels=5), "field 'u_labels' is not a list: 5"),
        (lambda g: g["planted"].update(v_labels=[0]),
         "planted labels are not one label in [0, 1) per U variable and one in [0, 2) per V variable"),
        (lambda g: g["planted"].update(u_labels=[0, 3, 0]),
         "planted labels are not one label in [0, 1) per U variable and one in [0, 2) per V variable"),
    ])
    def test_game_fields(self, tmp_path, capsys, edit, message):
        f = tmp_path / "game.json"
        assert run("gen-game", "--u", 3, "--v", 3, "--k", 1, "--d", 2, "--seed", 1, "--out", f) == 0
        payload = json.loads(f.read_text())
        edit(payload["game"])
        f.write_text(json.dumps(payload))
        assert self.run_error(capsys, "build-mlpcp", "--game", f, "--layers", 2,
                              "--out", tmp_path / "pcp.json") == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("values, message", [
        ([], "field 'values' does not hold 2**m numbers"),
        ([1, 2, 3], "field 'values' does not hold 2**m numbers"),
        ([1, "2"], "field 'values' is not a list of numbers"),
        ([True, 0], "field 'values' is not a list of numbers"),
        ("1, 2", "field 'values' is not a list: '1, 2'"),
    ])
    def test_spectra_values(self, tmp_path, capsys, values, message):
        f = tmp_path / "table.json"
        f.write_text(json.dumps({"values": values}))
        assert self.run_error(capsys, "analyze", "--spectra", f) == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("value", [[1, 2], 5])
    def test_report_correlations(self, tmp_path, capsys, value):
        f = tmp_path / "corr.json"
        f.write_text(json.dumps({"correlations": value}))
        assert self.run_error(capsys, "report", f, "--out", tmp_path / "summary.json") == (
            f"error: {f}: field 'correlations' is not an object: {value!r}\n")

    def test_spectra_of_a_table(self, tmp_path, capsys):
        f = tmp_path / "table.json"
        f.write_text(json.dumps({"values": [1, 0, 0.5, 0]}))
        assert run("analyze", "--spectra", f) == 0
        csv = json.loads(capsys.readouterr().out)["spectrum_csv"]
        assert csv.splitlines()[:2] == ["alpha,coeff", "00,0.375"]


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

    @pytest.mark.parametrize("payload, message", [
        ({"x": {"ok": "false"}}, "field 'ok' is not true or false: 'false'"),
        ({"x": {"ok": 0}}, "field 'ok' is not true or false: 0"),
        ({"ok": None}, "field 'ok' is not true or false: None"),
        ({"smooth_ok": 1}, "field 'smooth_ok' is not true or false: 1"),
        ({"correlations": {"rho_ok": "true"}}, "field 'rho_ok' is not true or false: 'true'"),
    ])
    def test_an_ok_that_is_not_a_bool_is_one(self, tmp_path, capsys, payload, message):
        bad, summary = tmp_path / "bad.json", tmp_path / "summary.json"
        bad.write_text(json.dumps(payload))
        assert run("report", bad, "--out", summary) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
        assert not summary.exists()

    def test_all_ok_summary_exits_zero(self, tmp_path):
        game = tmp_path / "game.json"
        pcp = tmp_path / "pcp.json"
        run("gen-game", "--u", 2, "--v", 3, "--k", 1, "--d", 2, "--seed", 5, "--out", game)
        run("build-mlpcp", "--game", game, "--layers", 2, "--smooth-t", 1, "--out", pcp)
        summary = tmp_path / "summary.json"
        assert run("report", pcp, "--out", summary) == 0
        assert json.loads(summary.read_text())["all_ok"]


def test_import_cli_loads_no_scipy():
    # Every CLI process pays its imports: scipy alone (scipy.optimize adds over 40 MB
    # of RSS) would cost more than the rest. So importing the CLI adds no top-level
    # package outside the standard library but numpy and gadgetlab; the modules that
    # need scipy import it where it is used.
    script = ("import sys\n"
              "before = {m.split('.')[0] for m in sys.modules}\n"
              "import gadgetlab.cli\n"
              "added = {m.split('.')[0] for m in sys.modules} - before\n"
              "print(sorted(added - sys.stdlib_module_names))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env=src_env(), capture_output=True, text=True, check=True).stdout
    assert out == "['gadgetlab', 'numpy']\n"


def written_bytes(payload) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "a.json"
        cli.write_artifact(path, payload)
        return path.read_bytes()


def stdlib_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist,
                       allow_nan=False) + "\n").encode()


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


@st.composite
def spanned_int_arrays(draw) -> tuple[np.ndarray, int]:
    """An (n, k) array of any integer dtype for k in 1..5, and a chunk size:
    its values span just less than, exactly or just more than the chunk
    size (one cell table for the array, or one per chunk) or up to 300 ids
    (int8 spans above 127 wrap in column - lo)."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                                  np.uint8, np.uint16, np.uint32, np.uint64]))
    info, per_write = np.iinfo(dtype), draw(st.sampled_from([3, cli.ROWS_PER_WRITE]))
    span = draw(st.sampled_from([per_write - 1, per_write, per_write + 1]) | st.integers(2, 300))
    lo = draw(st.integers(int(info.min), max(int(info.min), int(info.max) - span + 1)))
    hi = min(lo + span - 1, int(info.max))
    rows = draw(hnp.arrays(dtype, st.tuples(st.integers(1, 10), st.integers(1, 5)),
                           elements=st.integers(lo, hi)))
    rows.flat[0], rows.flat[-1] = lo, hi  # the span is as drawn when rows has two cells
    return rows, per_write


class TestArtifactWriter:
    """write_artifact renders 2-D int arrays itself; its bytes must be the
    strict stdlib's (allow_nan=False) with every array written as its tolist()."""

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

    @settings(max_examples=300, deadline=None)
    @given(case=spanned_int_arrays(), depth=st.integers(0, 3))
    @example(case=(np.array([[-100, 0], [99, 5]], dtype=np.int8), cli.ROWS_PER_WRITE), depth=0)
    def test_cell_tables_match_stdlib(self, case, depth):
        """Arrays of every integer dtype, over several chunks, at several indents."""
        rows, per_write = case
        payload = rows
        for level in range(depth):
            payload = {"rows": [payload, level], "z": rows[:, ::-1]}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "ROWS_PER_WRITE", per_write)
            assert written_bytes(payload) == stdlib_bytes(payload)

    def test_other_types_raise_and_leave_no_file(self, tmp_path):
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            cli.write_artifact(tmp_path / "a.json", {"edges": np.ones((2, 2), dtype=np.int64),
                                                     "weight": Fraction(1, 3)})
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=6), VALUES, max_size=5))
    def test_matches_stdlib_on_generated_payloads(self, payload):
        try:
            want = stdlib_bytes(payload)
        except ValueError:  # a NaN or an infinity, which strict JSON lacks
            with pytest.raises(ValueError, match="not JSON compliant"):
                written_bytes(payload)
        else:
            assert written_bytes(payload) == want

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.array([0.5, np.nan])])
    def test_non_finite_floats_raise_and_leave_no_file(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_artifact(tmp_path / "a.json", {"edges": np.ones((2, 2), dtype=np.int64),
                                                     "deep": [{"x": value}]})
        assert list(tmp_path.iterdir()) == []

    def test_a_non_finite_payload_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "lin.json"
        config = cli._config_dict
        monkeypatch.setattr(cli, "_config_dict", lambda args: {**config(args), "ratio": float("nan")})
        assert run("gen-3lin", "--n", 6, "--eqs", 4, "--seed", 1, "--out", out) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert not out.exists()


def json_route_read(path) -> dict:
    """read_artifact as it was before the array reader: json.load alone."""
    try:
        with open(path) as fh:
            return json.load(fh, object_hook=functools.partial(cli._Fields, path))
    except json.JSONDecodeError as exc:
        raise cli.UsageError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def hypergraph_or_error(read, path):
    try:
        return verify.GenericHypergraph.from_json_dict(read(path)["hypergraph"])
    except (cli.UsageError, ValueError) as exc:
        return f"error: {exc}"


# a flaw replaces one number, one row or the whole block with text that
# json.load reads as something other than a matrix of int64 ids, or rejects
FLAWS = {"true": "true", "false": "false", "float": "1.5", "exponent": "1e3",
         "negative zero float": "-0.0", "leading zero": "01", "bare sign": "-",
         "above int64": str(2**63), "below int64": str(-2**63 - 1), "string": '"1"',
         "null": "null", "split number": "1 2", "split sign": "- 1"}
ROW_FLAWS = ("ragged", "nested", "trailing comma", "empty row", "object")


@st.composite
def edge_blocks(draw) -> tuple[str, list, bool]:
    """The text of an "edges" value, its rows and whether it is a
    well-formed matrix of integers of at most 18 digits (the case the array
    reader takes; 19-digit int64 ids take the json route)."""
    width = draw(st.integers(1, 4))
    ids = st.integers(-6, 6) | st.integers(-2**63, 2**63 - 1)
    rows = draw(st.lists(st.lists(ids, min_size=width, max_size=width), min_size=1, max_size=6))
    cells = [[str(v) for v in row] for row in rows]
    flaw = draw(st.sampled_from([None] * 6 + sorted(FLAWS) + list(ROW_FLAWS) + ["empty", "comma"]))
    at = draw(st.integers(0, len(cells) - 1))
    if flaw in FLAWS:
        cells[at][draw(st.integers(0, width - 1))] = FLAWS[flaw]
    elif flaw == "ragged":  # one row longer or shorter than another
        cells.append(list(cells[at]))
        cells[at] = cells[at] + ["0"] if draw(st.booleans()) or width == 1 else cells[at][1:]
    elif flaw == "nested":
        cells[at][0] = f"[{cells[at][0]}]"
    elif flaw == "trailing comma":
        cells[at][-1] += ","
    elif flaw == "empty row":
        cells[at] = []
    elif flaw == "object":
        cells[at] = None
    space = st.text(alphabet=" \t\n\r", max_size=3)

    def row_text(row) -> str:
        if row is None:
            return "{}"
        return "[" + draw(space) + ("," + draw(space)).join(
            c + draw(space) for c in row) + "]" if row else "[" + draw(space) + "]"

    body = "" if flaw == "empty" else ("," + draw(space)).join(row_text(r) + draw(space)
                                                             for r in cells)
    text = "[" + draw(space) + body + ("," if flaw == "comma" else "") + "]"
    return text, rows, flaw is None and all(abs(v) < 10**18 for row in rows for v in row)


class TestArtifactReader:
    """read_artifact parses a well-formed "edges" matrix with numpy and
    everything else with json.load: both must give the same hypergraph, or
    the same error line, as json.load alone."""

    @settings(max_examples=400, deadline=None)
    @given(block=edge_blocks(), k=st.integers(1, 4), extra=st.booleans(), order=st.booleans())
    def test_matches_the_json_route(self, block, k, extra, order):
        text, rows, well_formed = block
        ids = sorted({v for row in rows for v in row} | ({99} if extra else set()))
        fields = [f'"k": {k}', '"meta": {"kind": "test"}',
                  '"vertices": ' + json.dumps([{"id": v, "weight": [1, 2]} for v in ids])]
        fields.insert(3 if order else 0, '"edges": ' + text)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "h.json"
            path.write_text('{"config": {}, "hypergraph": {' + ", ".join(fields) + "}}\n")
            got = hypergraph_or_error(cli.read_artifact, path)
            assert got == hypergraph_or_error(json_route_read, path)
            if well_formed:
                edges = cli.read_artifact(path)["hypergraph"]["edges"]
                assert isinstance(edges, np.ndarray) and not edges.flags.writeable
                assert edges.tolist() == rows
            elif not isinstance(got, str) or not got.startswith(f"error: {path}"):  # parsed
                assert not isinstance(cli.read_artifact(path)["hypergraph"]["edges"], np.ndarray)

    def test_written_gadget_is_read_as_an_array(self, tmp_path):
        h = verify.GenericHypergraph(3, tuple(range(6)), tuple(itertools.combinations(range(6), 3)))
        cli.write_artifact(tmp_path / "h.json", {"hypergraph": h.to_json_dict()})
        edges = cli.read_artifact(tmp_path / "h.json")["hypergraph"]["edges"]
        assert isinstance(edges, np.ndarray) and edges.dtype == np.int64
        assert verify.GenericHypergraph.from_json_dict(
            cli.read_artifact(tmp_path / "h.json")["hypergraph"]) == h

    @pytest.mark.parametrize("text", [
        '{"a\\"edges": [[1, 2]], "hypergraph": {"edges": [[0, 1]]}}',  # a key that ends in edges
        '{"edges": [[1, 2]], "edges": [[3, 4]]}',  # a repeated key: json keeps the last
        '{"x": "\\"edges\\": [[1, 2]]", "edges": [[5, 6]]}',  # edges text inside a string
        '{"edges": [[1, 2]]',  # not JSON
    ])
    def test_edges_text_elsewhere_reads_as_json_does(self, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_text(text)
        try:
            want = json_route_read(path)
        except cli.UsageError as exc:
            with pytest.raises(cli.UsageError) as err:
                cli.read_artifact(path)
            assert str(err.value) == str(exc)
            return
        got = cli.read_artifact(path)
        assert json.loads(json.dumps(got, default=np.ndarray.tolist)) == want
