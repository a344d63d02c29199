"""Pipeline benchmark for gadgetlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (the program is
imported from `src/`). Set-up is measured by spawning several fresh
processes; the pipeline then runs in a closed loop in two fresh worker
processes, one after the other, each for half of `--seconds`, and the two
must agree exactly on verdicts, counters and artifact bytes.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
first worker runs untraced and the second traced, and it prints the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The exit
code is 0 when every operation passed the correctness gate, 1 when one
failed, 2 when the checkout holds no program.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import DEFAULT_SEED, Ledger, check_pinned, compare_fingerprints, load_expected  # noqa: E402

SETUP_PROBES = 5          # import-only processes; the two workers add two more samples
TIME_LIMIT = 170.0        # seconds for the whole run, workers included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    """Single-threaded numerics, no inherited output directory."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("GADGETLAB_OUT", None)
    return env


def spawn(args: list[str], result: Path, deadline: float) -> tuple[dict | None, float, str]:
    """Run one worker process to completion; returns (result, spawn time, error)."""
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, spawned, "worker exceeded the run's time limit"
    if rc != 0 or not result.exists():
        return None, spawned, f"worker exited with code {rc}"
    return json.loads(result.read_text()), spawned, ""


def run_processes(args, work: Path, ledger: Ledger) -> tuple[list[float], list[dict]]:
    """Set-up probes, then the two workers one after the other; returns the
    set-up samples and the workers' results."""
    deadline = time.monotonic() + TIME_LIMIT
    setup, workers = [], []
    for i in range(SETUP_PROBES):
        res, spawned, err = spawn(["--probe"], work / f"probe{i}.json", deadline)
        if res is None:
            ledger.fail(f"setup-probe-{i}", err)
            continue
        setup.append(res["ready"] - spawned)
    for i, traced in enumerate((0, args.trace)):
        res, spawned, err = spawn(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds / 2), "--trace", str(traced),
             "--work", str(work / f"w{i}")], work / f"worker{i}.json", deadline)
        if res is None:
            ledger.fail(f"worker-{i}", err)
            continue
        setup.append(res["ready"] - spawned)
        if not Path(res["gadgetlab_file"]).is_relative_to(ROOT / "src"):
            ledger.fail(f"worker-{i}", f"imported gadgetlab from {res['gadgetlab_file']}")
        workers.append(res)
    return setup, workers


def cross_check(args, workers: list[dict], ledger: Ledger) -> None:
    """Both workers ran the same seed: verdicts, observed values, artifact
    bytes and content facts must be identical (counters exist only in the
    traced worker, which compared them between its own iterations). At the
    default seed they must also match the pinned values."""
    if len(workers) != 2 or not all("fingerprint" in w for w in workers):
        ledger.fail("repeat", "fewer than two completed workers to compare")
        return
    a, b = ({k: v for k, v in w["fingerprint"].items() if not k.startswith("counter.")}
            for w in workers)
    compare_fingerprints(ledger, a, b, "worker 0 vs worker 1")
    compare_fingerprints(ledger, workers[0]["facts"], workers[1]["facts"],
                         "worker 0 vs worker 1")
    if args.seed == DEFAULT_SEED:
        check_pinned(ledger, args.workload, workers[0]["verdicts"], workers[0]["facts"],
                     load_expected())


def layer_report(workers: list[dict], ledger: Ledger) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced worker, its import times, and the
    tracing overhead against the untraced worker."""
    plain, traced = workers
    layer = {k: tuple(v) for k, v in traced["layers"].items()}
    for name, seconds in traced["imports"].items():
        layer[name] = (seconds, "s")
    t_wall = statistics.median(traced["walls"])
    plain_wall = statistics.median(plain["walls"])
    layer["trace.wall_s"] = (t_wall, "s")
    layer["trace.overhead_s"] = (t_wall - plain_wall, "s")
    # The two workers run at different moments of a machine whose speed
    # drifts, so the overhead is also given on the reference-loop scale.
    t_ref, plain_ref = (statistics.median(x / r for x, r in zip(w["walls"], w["refs"]))
                        for w in (traced, plain))
    layer["trace.overhead_frac"] = (t_ref / plain_ref - 1, "ratio")
    mean_wall = statistics.fmean(traced["walls"])
    ledger.gate("trace.self_time", traced["self_s_total"] <= mean_wall,
                f"layer self times {traced['self_s_total']} s exceed the traced wall {mean_wall} s")
    print(f"layer self times sum to {traced['self_s_total']:.6g} s of a traced mean wall of "
          f"{mean_wall:.6g} s; tracing overhead {t_wall - plain_wall:.6g} s on a median "
          f"untraced wall of {plain_wall:.6g} s, {t_ref / plain_ref - 1:.2%} in wall_ref")
    return layer


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gadgetlab" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'gadgetlab'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        setup, workers = run_processes(args, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cross_check(args, workers, ledger)

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
           **(workers[0]["versions"] if workers else {})}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    layer = {}
    if args.trace:
        if len(workers) == 2 and "layers" in workers[1]:
            layer = layer_report(workers, ledger)
        else:
            ledger.fail("trace", "the traced worker produced no layer metrics")

    attempted = sum(w["attempted"] for w in workers) + ledger.attempted
    failed = sum(w["failed"] for w in workers) + ledger.failed
    failures = [f for w in workers for f in w["failures"]]
    failures += [f"{op.name}: {op.detail}" for op in ledger.ops if not op.ok]
    untraced = [w for w in workers if not w["traced"]]
    walls = [x for w in untraced for x in w["walls"]]
    ratios = [x / r for w in untraced for x, r in zip(w["walls"], w["refs"])]
    oracle_calls = sum(w["oracle_calls"] for w in workers)
    summary = {
        "failed_frac": (failed / max(attempted, 1), "ratio"),
        "inconclusive_frac": (sum(w["inconclusive"] for w in workers) / oracle_calls
                              if oracle_calls else 0.0, "ratio"),
    }
    if walls and setup:
        summary["wall_s"] = (statistics.median(walls), "s")
        summary["wall_ref"] = (statistics.median(ratios), "ref_loops")
        summary["setup_s"] = (statistics.median(setup), "s")
        summary["peak_rss_mb"] = (max(w["maxrss_kb"] for w in workers) / 1024, "MB")
    for name, (value, unit) in summary.items():
        print(f"{name:<18} {value:12.6g} {unit}")
    if len(walls) > 1:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"  wall_s: median of {len(walls)} untraced iterations, q1 {q1:.6g} s, "
              f"q3 {q3:.6g} s; setup_s: median of {len(setup)} processes")
    layer["inconclusive_frac"] = summary["inconclusive_frac"]
    if args.trace:
        for name, (value, unit) in sorted(layer.items()):
            print(f"{name:<48} {value:14.6g} {unit}")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    chosen = layer if args.trace else summary
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": chosen[m["name"]][0], "unit": m["unit"]}
               for m in wanted if m["name"] in chosen}
    correct = failed == 0 and len(metrics) == len(wanted)
    report = {"env": env, "end_to_end": summary, "layers": layer, "failures": failures,
              "verdicts": workers[0].get("verdicts") if workers else None,
              "facts": workers[0].get("facts") if workers else None,
              "walls": [w["walls"] for w in workers], "setup": setup,
              "spans": workers[1].get("spans") if len(workers) == 2 else None}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
