"""The deal-market benchmark: one command, every metric, checked outputs.

Usage:
    python3 dealbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``headline``, ``protocol_mix``, ``congested_shards`` or ``all``.
Run it from the root of a checkout: it measures the ``repro`` package
in that checkout's ``src`` and refuses to run without one.

``--trace 0`` repeats the workload's closed batch, each time in a fresh
interpreter (``rep.py``), for about S seconds (at least three runs) and
reports the median of every end-to-end metric in BENCHMARK.json.
``--trace 1`` alternates untraced and traced runs (at least one pair)
and reports the per-layer metrics of the traced run with the median
wall time.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every run must end with no stuck deal and no invariant violation, with
no signature verdict carried into it, and with the same fingerprint
and report bytes as every other run of the same (workload, seed);
fingerprints are recorded in ``dealbench/out/fingerprints.json``.  A
run that fails counts all of its deals as failed.  Traced runs also
check the workload's expected zero / non-zero counters and that the
layers' self times plus the unattributed time add up to the run's wall
time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REP = os.path.join(HERE, "rep.py")

MIN_RUNS = 3
# Start no run that would end past this many seconds, so one invocation
# stays under three minutes.
DEADLINE_S = 165.0


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no result is printed)."""


def _preflight() -> dict:
    """Check the checkout and load the metric declarations."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    return spec


def _one_run(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run ``rep.py`` once; return its result or ``{"error": ...}``."""
    argv = [sys.executable, REP, workload, str(seed), "1" if trace else "0"]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        argv.append(os.path.join(OUT, f"spans-{workload}-seed{seed}-{time.time_ns()}.jsonl"))
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "wall_s": time.perf_counter() - started}
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return {"error": f"exit {proc.returncode}: {tail}", "wall_s": wall}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result printed", "wall_s": wall}
    result["wall_s"] = wall
    return result


def _record_fingerprint(workload: str, seed: int, fingerprint: str) -> str | None:
    """Record the (workload, seed) fingerprint; return a mismatch note."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "fingerprints.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    key = f"{workload}/{seed}"
    if key in known and known[key] != fingerprint:
        return f"fingerprint {fingerprint} differs from recorded {known[key]}"
    known[key] = fingerprint
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def _gate(run: dict, reference: dict | None) -> list[str]:
    """Correctness problems of one run (empty when it passes)."""
    if "error" in run:
        return [run["error"]]
    problems = []
    if run["invariant_violations"]:
        problems.append(f"{run['invariant_violations']} invariant violations")
    if run["stuck"]:
        problems.append(f"{run['stuck']} stuck deals")
    if run["batch_cache_size_at_start"]:
        problems.append("batch verdicts carried into the run")
    if reference is not None:
        for key in ("fingerprint", "render_sha256"):
            if run[key] != reference[key]:
                problems.append(f"{key} {run[key]} != {reference[key]}")
    return problems


def _expectations(workload: str, layers: dict) -> list[str]:
    from workloads import NONZERO, WORKLOADS

    problems = []
    for name, want in WORKLOADS[workload].expect:
        if name not in layers:
            continue
        value = layers[name]
        if (value != 0) != (want == NONZERO):
            problems.append(f"{name} = {value}, expected {want}")
    return problems


def _layer_sum_problem(layers: dict) -> str | None:
    from tracing import LAYERS

    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["trace.unattributed_s"]
    wall = layers["trace.wall_s"]
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        return f"layer self times + unattributed = {total:.6f} s != wall {wall:.6f} s"
    return None


def _print_run(run: dict, traced: bool) -> None:
    kind = "traced" if traced else "run"
    if "error" in run:
        print(f"  {kind}: FAILED ({run['error']})")
        return
    print(
        f"  {kind}: setup {run['setup_s']:.3f} s, sign {run['client_sign_s']:.3f} s, "
        f"server {run['server_s']:.3f} s, committed {run['committed']}/{run['deals_spawned']} "
        f"(aborted {run['aborted']}, rejected {run['rejected']}, stuck {run['stuck']}), "
        f"rss {run['peak_rss_mb']:.1f} MB, fingerprint {run['fingerprint']}"
    )


def _end_to_end(runs: list[dict]) -> dict:
    def median(key):
        return statistics.median(key(run) for run in runs)

    return {
        "server_deals_per_wall_s": median(lambda r: r["committed"] / r["server_s"]),
        "deals_per_wall_s": median(
            lambda r: r["committed"] / (r["setup_s"] + r["client_sign_s"] + r["server_s"])
        ),
        "client_sign_s": median(lambda r: r["client_sign_s"]),
        "setup_s": median(lambda r: r["setup_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "latency_p50_ticks": median(lambda r: r["latency_p50_ticks"]),
        "latency_p99_ticks": median(lambda r: r["latency_p99_ticks"]),
    }


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; return the result object (not printed)."""
    from workloads import WORKLOADS

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    pairs: list[tuple[dict, dict | None]] = []
    problems: list[str] = []
    reference = None
    while True:
        untraced = _one_run(workload, seed, False, deadline)
        _print_run(untraced, False)
        traced = None
        if trace and "error" not in untraced:
            traced = _one_run(workload, seed, True, deadline)
            _print_run(traced, True)
        pairs.append((untraced, traced))
        for run in (untraced, traced):
            if run is None:
                continue
            run_problems = _gate(run, reference)
            if not run_problems:
                reference = reference or run
                run_problems = _expectations(workload, run["layers"])
            if run is traced and not run_problems:
                note = _layer_sum_problem(run["layers"])
                run_problems = [note] if note else []
            run["problems"] = run_problems
            problems += run_problems
        if problems:
            break
        now = time.perf_counter()
        step = statistics.median(
            untraced["wall_s"] + (traced["wall_s"] if traced else 0.0)
            for untraced, traced in pairs
        )
        if now + step > deadline:
            break
        if (trace or len(pairs) >= MIN_RUNS) and now + step > started + seconds:
            break
    if reference is not None:
        note = _record_fingerprint(workload, seed, reference["fingerprint"])
        if note:
            problems.append(note)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    runs = [run for pair in pairs for run in pair if run is not None]
    # A run that died reported no deal count; charge it the batch size.
    spawned = [run.get("deals_spawned", WORKLOADS[workload].deals) for run in runs]
    metrics: dict[str, float] = {}
    if not problems:
        untraced_runs = [untraced for untraced, _ in pairs]
        if trace:
            traced_runs = sorted((t for _, t in pairs), key=lambda r: r["server_s"])
            chosen = traced_runs[(len(traced_runs) - 1) // 2]
            metrics.update(chosen["layers"])
            untraced_wall = statistics.median(r["server_s"] for r in untraced_runs)
            metrics["trace.overhead"] = chosen["server_s"] / untraced_wall - 1.0
        else:
            metrics.update(_end_to_end(untraced_runs))
    return {
        "correct": not problems,
        "attempted": sum(spawned),
        "failed": sum(n for n, run in zip(spawned, runs) if run["problems"]),
        "metrics": metrics,
    }


def _select(spec: dict, trace: bool, measured: dict) -> tuple[dict, list[str]]:
    """The declared metrics of this mode, with units; missing names."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for entry in declared:
        if entry["name"] in measured:
            metrics[entry["name"]] = {"value": measured[entry["name"]], "unit": entry["unit"]}
        else:
            missing.append(entry["name"])
    return metrics, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = _preflight()
    except BenchError as exc:
        print(f"dealbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"dealbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)} or 'all')", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("dealbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    print(f"dealbench: repro from {SRC}; python {sys.version.split()[0]}; nproc {nproc}")

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print(f"workload {name}, seed {args.seed}, trace {args.trace}:")
        result = bench(name, args.seed, args.seconds, bool(args.trace))
        selected, missing = _select(spec, bool(args.trace), result["metrics"])
        if result["correct"] and missing:
            print(f"  CHECK FAILED: metrics not measured: {', '.join(missing)}")
            result["correct"] = False
        for metric, entry in selected.items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            metrics = selected
        else:
            metrics.update({f"{name}.{metric}": entry for metric, entry in selected.items()})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
