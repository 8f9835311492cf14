"""Benchmark of padiczeta: three closed-loop workloads, each repetition in a
fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): ``verify-sweep``, ``oracle-deep``, ``value-grid``.
With ``--trace 0`` the run repeats the workload for about S seconds and prints
the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it makes
one untraced and one traced pass and prints the per-layer metrics.  Human-
readable lines come first; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a checkout: the package is imported from ``src/`` of the
checkout this file sits in.  Scratch files and the record of every run go to
``.perfbench_out/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from stats import beyond, highest_percentile, percentile  # noqa: E402

WORKLOADS = ("verify-sweep", "oracle-deep", "value-grid")
# Every run must end within 180 s; stop starting repetitions well before.
RUN_BUDGET_S = 165.0
# setup_s is a median of at least this many spawns: every pass, a set-up-only
# spawn after each pass (spreading them over the run), then more at the end.
SETUP_SAMPLES = 9
# Fixed tail percentile per workload: the highest rung of stats.LADDER with
# at least ten samples beyond it in a single repetition (2975 reports built,
# 192, 1070 values), so the tail means the same however many repetitions fit
# in a run.
TAIL = {"verify-sweep": 99.0, "oracle-deep": 90.0, "value-grid": 99.0}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def threads_for(workload: str) -> int:
    return min(nproc(), 4) if workload == "verify-sweep" else 1


def spawn(workload: str, seed: int, mode: str, deadline: float, check: bool = False):
    """Start a worker; return (setup seconds, elapsed seconds, result or None)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--out", str(OUT),
        "--threads", str(threads_for(workload)),
    ]
    if check:
        cmd.append("--check")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} pass overran the run budget")
    elapsed = perf_counter() - t0
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(
            f"worker {mode} failed (exit {proc.returncode}): {err.strip()[-2000:]}"
        )
    if mode == "setup":
        return setup, elapsed, None
    return setup, elapsed, json.loads(out.splitlines()[-1])


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.json")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def check_digest(workload: str, seed: int, digest: str) -> bool:
    """Outputs at one seed must be byte-identical across every run of this
    checkout: the first run's digest is kept and later runs compare to it."""
    path = OUT / "digests.json"
    known = load_json(path, {})
    key = f"{workload}:{seed}"
    if key not in known:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return known[key] == digest


def rep_failures(workload: str, seed: int, rep: dict) -> int:
    """Failed ops of one pass, including a changed output digest."""
    failed = rep["failed"]
    if rep["rc"] != 0:
        failed = max(failed, 1)
    if "check" in rep:
        failed += len(rep["check"]["bad"])
    if not check_digest(workload, seed, rep["digest"]):
        failed = rep["ops"]
    return failed


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    reps, setups = [], []
    start = perf_counter()
    while True:
        setup, elapsed, rep = spawn(
            workload, seed, "run", deadline, check=workload == "value-grid" and not reps
        )
        setups.append(setup)
        reps.append(rep)
        setups.append(spawn(workload, seed, "setup", deadline)[0])
        now = perf_counter()
        if now - start + elapsed > seconds or deadline - now < 2 * elapsed:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)[0])

    latencies = [dt for rep in reps for dt in rep["latencies"]]
    tail = TAIL[workload]
    if beyond(len(latencies), tail) < 10:
        raise BenchError(f"too few samples ({len(latencies)}) for a p{tail} latency")
    wall = median([r["wall_s"] for r in reps])
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "ops_per_s": reps[0]["ops"] / wall,
        "peak_rss_mb": median([r["maxrss_mb"] for r in reps]),
    }
    failed = sum(rep_failures(workload, seed, r) for r in reps)
    detail = {
        "reps": len(reps),
        "pass_walls_s": [r["wall_s"] for r in reps],
        "setup_samples": len(setups),
        # printed, not bounded: see README.md
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        f"op_p{tail:g}_ms": percentile(latencies, tail) * 1e3,
        "latency_samples": len(latencies),
        "highest_supported_percentile": highest_percentile(latencies),
        "digest": reps[0]["digest"],
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "oracle_depths": reps[0].get("check", {}).get("oracle_depths"),
    }
    return metrics, detail


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    _, _, plain = spawn(workload, seed, "run", deadline)
    _, _, rep = spawn(workload, seed, "trace", deadline)
    layers = dict(rep["layers"])
    layers["trace.overhead_frac"] = rep["wall_s"] / plain["wall_s"] - 1
    failed = rep_failures(workload, seed, plain) + rep_failures(workload, seed, rep)
    if rep["leftover_references"]:
        failed += 1
    reuse = load_json(OUT / "reuse.json", {})
    reuse[workload] = layers["zeta_czp.reuse_ratio"]
    (OUT / "reuse.json").write_text(json.dumps(reuse, indent=1, sort_keys=True))
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": rep["wall_s"],
        "leftover_references": rep["leftover_references"],
        "trace_notes": rep["trace_notes"],
        "trace_file": str(Path(rep["trace_file"]).relative_to(ROOT)),
        "digest": rep["digest"],
        "attempted": plain["ops"] + rep["ops"],
        "failed": failed,
    }
    return layers, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_json(ROOT / "BENCHMARK.json", None)
    if spec is None or not (ROOT / "src" / "padiczeta" / "__init__.py").is_file():
        print(f"perfbench: no BENCHMARK.json or src/padiczeta under {ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = perf_counter() + RUN_BUDGET_S
    try:
        # uncounted: compiles the package's bytecode and warms the file cache,
        # as an installed package would be
        spawn(args.workload, args.seed, "setup", deadline)
        if args.trace:
            values, detail = traced(args.workload, args.seed, deadline)
            wanted = spec["per_layer"]
        else:
            values, detail = untraced(args.workload, args.seed, args.seconds, deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "threads": threads_for(args.workload),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "reuse_ratio": load_json(OUT / "reuse.json", {}).get(args.workload),
    }
    attempted, failed = detail.pop("attempted"), detail.pop("failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance, "detail": detail, **result}) + "\n")

    for key, value in provenance.items():
        print(f"# {key}: {value}")
    for key, value in detail.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
