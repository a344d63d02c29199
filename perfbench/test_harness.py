"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q
"""
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Target, Tracer, self_time_by_name, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# self time

def test_self_times_on_nested_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.x", 5.5, 7.0, 3, 0),
        Span("b.y", 6.5, 8.0, 3, 0),   # overlaps b.x: the union counts once
        Span("c", 9.5, 12.0, 0, 0),    # runs past its parent: clipped to 0.5
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2, 1, 4 - 2.5, 1.5, 1.5, 2.5])


def test_self_times_sum_to_root_for_strict_nesting():
    spans = [Span("root", 0.0, 8.0, None, 0), Span("a", 1.0, 3.0, 0, 0),
             Span("b", 3.0, 7.0, 0, 0), Span("c", 4.0, 5.0, 2, 0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_tracer_spans_from_wrapped_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    mod = types.SimpleNamespace()

    def leaf():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.leaf()
        clock.now += 3.0
        return 7

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer()
    tracer.install([Target(mod, "leaf", "m.leaf"),
                    Target(mod, "outer", "m.outer",
                           hook=lambda count, a, k, r: count("m.outer.result", r))])
    tracer.begin_iteration()
    with tracer.span("pipeline"):
        assert mod.outer() == 7
        clock.now += 0.5
    tracer.uninstall()
    totals = self_time_by_name(tracer.spans, {0})
    assert totals == pytest.approx({"pipeline": 0.5, "m.outer": 4.0, "m.leaf": 2.0})
    assert tracer.counters[0] == {"m.leaf.calls": 1, "m.outer.calls": 1, "m.outer.result": 7}
    assert [s.parent for s in tracer.spans] == [None, 0, 1]


# ---------------------------------------------------------------------------
# wrappers restore what they replaced

class Thing:
    def method(self):
        return "m"

    @classmethod
    def build(cls):
        return cls.__name__


def test_uninstall_restores_functions_methods_and_classmethods():
    mod = types.SimpleNamespace(f=lambda: 1)
    before = (mod.f, Thing.__dict__["method"], Thing.__dict__["build"])
    tracer = Tracer()
    tracer.install([Target(mod, "f", "f"), Target(Thing, "method", "method"),
                    Target(Thing, "build", "build")])
    tracer.begin_iteration()
    assert mod.f() == 1 and Thing().method() == "m" and Thing.build() == "Thing"
    assert mod.f is not before[0] and Thing.__dict__["build"] is not before[2]
    tracer.uninstall()
    assert (mod.f, Thing.__dict__["method"], Thing.__dict__["build"]) == before
    assert tracer.counters[0] == {"f.calls": 1, "method.calls": 1, "build.calls": 1}


def test_uninstall_restores_every_program_target():
    import layers
    targets = layers.targets()

    def current():
        return [t.owner.__dict__[t.attr] if isinstance(t.owner, type)
                else getattr(t.owner, t.attr) for t in targets]

    before = current()
    tracer = Tracer()
    tracer.install(targets)
    assert all(a is not b for a, b in zip(current(), before))
    tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))


# ---------------------------------------------------------------------------
# correctness gate

HYPERGRAPH = {"k": 3,
              "vertices": [{"id": 0, "weight": [1, 2]}, {"id": 1, "weight": [1, 4]},
                           {"id": 2, "weight": [1, 4]}, {"id": 3, "weight": [1, 1]}],
              "edges": [[0, 1, 2], [1, 2, 3]]}


def test_canonical_digest_ignores_layout_but_not_content():
    d = gate.canonical_digest(HYPERGRAPH)
    shuffled = {"k": 3, "vertices": list(reversed(HYPERGRAPH["vertices"])),
                "edges": [[3, 2, 1], [2, 0, 1]]}
    shuffled["vertices"][3] = {"id": 0, "weight": [2, 4]}
    assert gate.canonical_digest(shuffled) == d
    tampered = json.loads(json.dumps(HYPERGRAPH))
    tampered["edges"][1] = [0, 2, 3]
    assert gate.canonical_digest(tampered) != d
    reweighted = json.loads(json.dumps(HYPERGRAPH))
    reweighted["vertices"][3]["weight"] = [2, 1]
    assert gate.canonical_digest(reweighted) != d


def test_independence_and_weight_helpers():
    assert gate.is_independent(HYPERGRAPH, [0, 1, 3])
    assert not gate.is_independent(HYPERGRAPH, [0, 1, 2])
    assert gate.weight_of(HYPERGRAPH, [0, 1]) == Fraction(3, 4)


def test_tampered_digest_or_wrong_verdict_is_a_failed_operation():
    expected = {"w": {"verdicts": {"two_colorable": True}, "facts": {"h": "abc"}}}
    ok = gate.Ledger()
    gate.check_pinned(ok, "w", {"two_colorable": True}, {"h": "abc"}, expected)
    assert ok.failed == 0

    tampered = gate.Ledger()
    gate.check_pinned(tampered, "w", {"two_colorable": True}, {"h": "abd"}, expected)
    assert tampered.failed == 1 and tampered.ops[0].name == "pinned.facts.h"

    wrong = gate.Ledger()
    gate.check_pinned(wrong, "w", {"two_colorable": False}, {"h": "abc"}, expected)
    assert wrong.failed == 1

    missing = gate.Ledger()
    gate.check_pinned(missing, "other", {}, {}, expected)
    assert missing.failed == 1


def test_gate_marks_the_checked_operation_failed():
    ledger = gate.Ledger()
    ledger.ops += [gate.Op("verify", True), gate.Op("decode", True)]
    ledger.gate("verify", True)
    ledger.gate("decode", False, "outcome=no_heavy")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.ops[1].detail == "outcome=no_heavy"


def test_repeat_mismatch_is_a_failure_not_averaged():
    ledger = gate.Ledger()
    gate.compare_fingerprints(ledger, {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, "run 2 vs run 1")
    assert ledger.failed == 1 and "run 2 vs run 1" in ledger.ops[0].detail


def test_workload_gate_rejects_a_wrong_decode_verdict(tmp_path, monkeypatch):
    from workloads import Dto1Decode
    monkeypatch.chdir(tmp_path)
    wl = Dto1Decode(seed=1)
    (wl.out / "decode.json").write_text(json.dumps({"decode": {"outcome": "no_influential"}}))
    ledger = gate.Ledger()
    ledger.ops.append(gate.Op("decode", True))
    verdicts, _, _, files = wl.check(ledger, {}, full=False)
    assert ledger.failed == 1 and verdicts["outcome"] == "no_influential"
    assert "sha256.decode" in files


def test_pinned_file_covers_every_workload():
    from workloads import WORKLOADS
    assert set(gate.load_expected()) == set(WORKLOADS)


# ---------------------------------------------------------------------------
# entry point

def test_run_refuses_a_directory_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark: non-zero
    exit and no result line."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dto1-yes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
