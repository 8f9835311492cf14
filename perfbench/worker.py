"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --out DIR
                                [--threads T] [--check]

MODE is ``setup`` (import and generate inputs, then exit), ``run`` (one
untraced pass over the workload's op stream) or ``trace`` (one traced pass).
The worker prints ``ready`` once the package is imported from this
checkout's ``src/`` and the inputs are generated, then, unless MODE is
``setup``, one JSON line with the pass's measurements.  Every repetition gets
its own interpreter because the package memoises values in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import grid  # noqa: E402  (this directory is first on sys.path)
from tracer import LAYERS, Tracer, summarise  # noqa: E402

PREC = 16
GUARD = 8
MAX_TERMS = 6000
# identities run by the oracle-deep workload
DEEP_IDENTITIES = "oracle-czp,integral-convergence,special-pos,ell-oracle"
# a report with one of these statuses passed (VerificationReport.passed)
PASSED = ("pass", "hypothesis-violation")


class SetupError(Exception):
    pass


def load_package() -> dict:
    """Import every layer of the package from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("padiczeta")
    except ImportError as exc:
        raise SetupError(f"cannot import padiczeta from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != (SRC / "padiczeta").resolve():
        raise SetupError(f"padiczeta imported from {package.__file__}, not {SRC}")
    # import_module, not attribute access: the package re-exports functions
    # under the names of the zeta_czp and zeta_char modules
    modules = {name: importlib.import_module(f"padiczeta.{name}") for name in LAYERS}
    modules["errors"] = importlib.import_module("padiczeta.errors")
    if modules["padic"].teichmuller_table.cache_info().currsize != 0:
        raise SetupError("Teichmuller cache is warm at start; the pass would not be cold")
    return modules


def _record_report_cpu(report_module) -> list[float]:
    """Per-report cost: in each thread, the thread's CPU time since it built
    its previous VerificationReport (or since the thread, or for the main
    thread this call, started).  CPU time of the building thread, so that
    time spent waiting for the interpreter lock while another thread works
    does not count.  Wraps VerificationReport construction."""
    cls = report_module.VerificationReport
    original = cls.__init__
    main_tid = threading.get_ident()
    last: dict[int, float] = {main_tid: thread_time()}
    samples: list[float] = []

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        now = thread_time()
        tid = threading.get_ident()
        samples.append(now - last.get(tid, 0.0))
        last[tid] = now

    cls.__init__ = init
    return samples


class Sweep:
    """``padiczeta verify`` through cli.main, JSON reports to a file."""

    def __init__(self, modules, args, extra: list[str]):
        self.modules = modules
        self.path = Path(args.out) / f"reports-{os.getpid()}.jsonl"
        self.argv = [
            "verify",
            "--format", "json",
            "--seed", str(args.seed),
            "--threads", str(args.threads),
            "-o", str(self.path),
            *extra,
        ]

    def run(self, tracer: Tracer | None) -> dict:
        main = self.modules["cli"].main
        if tracer is not None:
            main = tracer.wrap("bench.run", main)
        intervals = _record_report_cpu(self.modules["report"])
        t0 = perf_counter()
        rc = main(self.argv)
        wall = perf_counter() - t0
        try:
            body = self.path.read_bytes()
        finally:
            self.path.unlink(missing_ok=True)
        statuses = [json.loads(line)["status"] for line in body.splitlines()]
        failed = sum(status not in PASSED for status in statuses)
        return {
            "rc": rc,
            "wall_s": wall,
            "ops": len(statuses),
            "failed": failed,
            "digest": hashlib.sha256(body).hexdigest(),
            "latencies": intervals,
        }


def oracle_depth(p: int, cap: int) -> int:
    """Oracle depth for the value check: 3, or the largest N with p^N <= cap."""
    n = 0
    while n < 3 and p ** (n + 1) <= cap:
        n += 1
    return n


class ValueGrid:
    """A seeded stream of direct zeta_czp / zeta_char calls (see grid.py)."""

    def __init__(self, modules, args):
        self.modules = modules
        self.items = grid.generate(args.seed)
        padic = modules["padic"]
        chars = modules["characters"]
        self.ctx = {p: padic.PadicContext(p, PREC, GUARD) for p in grid.PRIMES}
        self.budget = modules["zeta_czp"].SeriesBudget(max_terms=MAX_TERMS, target_prec=PREC)
        self.calls = []
        for item in self.items:
            if item[0] == "czp":
                _, p, s, x = item
                self.calls.append(("czp", (self.ctx[p], s, x, self.budget)))
            else:
                _, p, s, x, v, k = item
                chi = chars.DirichletCharacter(p, v, k)
                self.calls.append(("char", (self.ctx[p], chi, s, x, self.budget)))

    def run(self, tracer: Tracer | None) -> dict:
        # resolved now, after any tracer has rebound the names
        fns = {
            "czp": self.modules["zeta_czp"].zeta_czp,
            "char": self.modules["zeta_char"].zeta_char,
        }
        error = self.modules["errors"].PadicError

        def stream():
            out = []
            for kind, call_args in self.calls:
                t = perf_counter()
                try:
                    value = fns[kind](*call_args)
                except error as exc:
                    value = exc
                out.append((perf_counter() - t, value))
            return out

        if tracer is not None:
            stream = tracer.wrap("bench.run", stream)
        t0 = perf_counter()
        timed = stream()
        wall = perf_counter() - t0
        self.values = [value for _, value in timed]
        to_json = self.modules["padic"].to_json_dict
        rendered = [
            {"error": type(v).__name__} if isinstance(v, Exception) else to_json(v)
            for v in self.values
        ]
        digest = hashlib.sha256(
            json.dumps(rendered, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        return {
            "rc": 0,
            "wall_s": wall,
            "ops": len(self.values),
            "failed": sum(isinstance(v, Exception) for v in self.values),
            "digest": digest,
            "latencies": [dt for dt, _ in timed],
        }

    def check(self) -> dict:
        """Precision and oracle agreement of every value, off the clock.

        Each value must carry absolute precision >= PREC and agree with the
        independent truncated-sum oracle at depth N to >= N - c, with c the
        calibrated slack of the oracle family.
        """
        mods = self.modules
        padic, czp, char = mods["padic"], mods["zeta_czp"], mods["zeta_char"]
        cap = mods["kernels"].EVALUATION_CAP
        slack = mods["verify"].default_slack()
        chars = mods["characters"]
        bad = []
        depths = {}
        for index, (item, value) in enumerate(zip(self.items, self.values)):
            if isinstance(value, Exception):
                continue  # already counted as failed by run()
            p = item[1]
            n = oracle_depth(p, cap)
            depths[p] = n
            # the oracle only has to resolve N digits; 2 spare keep the
            # comparison clear of its own last digit
            octx = padic.PadicContext(p, n + 2, 0)
            if item[0] == "czp":
                _, _, s, x = item
                oracle = czp.zeta_czp_oracle(octx, s, x, n)
                c = slack.get("oracle-czp", 0)
            else:
                _, _, s, x, v, k = item
                chi = chars.DirichletCharacter(p, v, k)
                oracle = char.zeta_char_oracle(octx, chi, s, x, n)
                c = slack.get("oracle-char", 0)
            absprec = value.absprec
            if absprec is None or absprec < PREC or padic.agreement_depth(value, oracle) < n - c:
                bad.append(index)
        return {"bad": bad, "oracle_depths": depths}


def layer_metrics(tracer: Tracer, modules, wall: float) -> dict:
    """Per-layer figures of one traced pass (see README.md for definitions)."""
    summary = summarise(tracer.names, tracer.threads())
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]

    def layer(name: str, key: str) -> float:
        return sum(v for n, v in summary[key].items() if n.startswith(name + "."))

    czp_calls = calls.get("zeta_czp.zeta_czp", 0)
    evaluated = summary["with_child"].get(("zeta_czp.zeta_czp", "padic.unit_power"), 0)
    char_calls = calls.get("zeta_char.zeta_char", 0)
    czp_in_char = summary["under"].get(("zeta_char.zeta_char", "zeta_czp.zeta_czp"), 0)
    kernel_terms = layer("kernels", "terms")
    kernel_self = layer("kernels", "self_s")
    verify_wait = layer("verify", "wait_s")
    out = {
        "kernels.calls": layer("kernels", "calls"),
        "kernels.self_s": kernel_self,
        "kernels.terms": kernel_terms,
        "kernels.ns_per_term": kernel_self / kernel_terms * 1e9 if kernel_terms else 0.0,
        "zeta_czp.calls": czp_calls,
        "zeta_czp.self_s": layer("zeta_czp", "self_s"),
        "zeta_czp.evaluated": evaluated,
        "zeta_czp.reuse_ratio": 1 - evaluated / czp_calls if czp_calls else 0.0,
        "padic.unit_power.calls": calls.get("padic.unit_power", 0),
        "padic.unit_power.self_s": self_s.get("padic.unit_power", 0.0),
        "padic.log.self_s": self_s.get("padic.log", 0.0),
        "padic.exp.self_s": self_s.get("padic.exp", 0.0),
        "padic.ops": tracer.ops(),
        "padic.teichmuller.misses": modules["padic"].teichmuller_table.cache_info().misses,
        "zeta_char.calls": char_calls,
        "zeta_char.self_s": layer("zeta_char", "self_s"),
        "zeta_char.czp_per_call": czp_in_char / char_calls if char_calls else 0.0,
        # busy time only: the main thread's wait on pool threads is verify.wait_s
        "verify.self_s": layer("verify", "self_s") - verify_wait,
        "verify.wait_s": verify_wait,
        "report.calls": layer("report", "calls"),
        "report.self_s": layer("report", "self_s"),
        "cli.self_s": layer("cli", "self_s"),
        "euler.calls": layer("euler", "calls"),
        "euler.self_s": layer("euler", "self_s"),
        "fermionic.self_s": layer("fermionic", "self_s"),
        "characters.char_eval.calls": calls.get("characters.char_eval", 0),
        "characters.self_s": layer("characters", "self_s"),
        "trace.wall_s": wall,
        "trace.spans": sum(calls.values()),
    }
    for identity in modules["verify"].IDENTITY_NAMES:
        out[f"verify.identity_s.{identity}"] = total_s.get(f"verify.identity:{identity}", 0.0)
    # self times of each thread cover the traced wall up to this gap (the
    # main thread runs inside the bench.run span; pool threads idle between
    # tasks)
    main_tid = threading.get_ident()
    gaps = {tid: wall - s for tid, s in summary["thread_self"].items()}
    out["trace.self_gap_s"] = gaps.get(main_tid, wall)
    out["trace.pool_idle_s"] = sum(g for tid, g in gaps.items() if tid != main_tid)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify-sweep", "oracle-deep", "value-grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True, help="directory for scratch files")
    ap.add_argument("--threads", type=int, default=1, help="verify-sweep worker threads")
    ap.add_argument("--check", action="store_true", help="value-grid: check every value")
    args = ap.parse_args(argv)
    try:
        modules = load_package()
    except SetupError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    if args.workload == "verify-sweep":
        work = Sweep(modules, args, [])
    elif args.workload == "oracle-deep":
        args.threads = 1
        work = Sweep(modules, args, ["--identity", DEEP_IDENTITIES, "--oracle-depth", "6"])
    else:
        work = ValueGrid(modules, args)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(modules)
        leftovers = tracer.leftover_references()
    result = work.run(tracer)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["maxrss_mb"] = usage / 1024.0  # ru_maxrss is in KiB on Linux
    if args.check and isinstance(work, ValueGrid):
        result["check"] = work.check()
    if tracer is not None:
        result["leftover_references"] = leftovers
        result["trace_notes"] = tracer.notes
        result["layers"] = layer_metrics(tracer, modules, result["wall_s"])
        trace_path = Path(args.out) / f"trace-{args.workload}-seed{args.seed}.spans"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
