"""Benchmark of the lambek package: membership, reduction and proving.

Run from the repository root, one workload per interpreter:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 25 --trace 0

The loop is closed: one query at a time, no threads.  Inputs come from
seeded generators in ``workloads.py``; every answer is checked against
an independent oracle and any wrong answer, or proof that does not
replay, makes the run exit with code 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in its own interpreter and prints their metrics.  ``--quick``
shrinks every input set, for a smoke check.  NOTES.md explains the
metrics and records the seed's numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import workloads as W
from hostspeed import HostSpeed
from tracing import LAYER_OF_CALL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15
TRACE_CAP_S = 120.0
CLI_CALLS = 40


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random, int], list]
    quick_round: Callable[[random.Random, int], list]
    grammar: bool  # set-up builds the a^n b^n c^n grammar
    tail: float  # percentile reported as latency_tail_ms


WORKLOADS = {
    "anbncn-short": Workload(
        W.anbncn_short_round,
        lambda rng, index: [q for q in W.anbncn_short_round(rng, index) if len(q.payload) <= 5],
        True,
        99.9,
    ),
    "anbncn-balanced": Workload(
        W.anbncn_balanced_round,
        partial(W.anbncn_balanced_round, sample=((9, 2),)),
        True,
        95.0,
    ),
    "reduction": Workload(
        W.reduction_round,
        partial(W.reduction_round, small=list(W.valid_instances(1, 16)), large={(3, 16): 1}, m5=False),
        False,
        # Not p99: that falls at the edge of the garbage-collection
        # pauses that land on random queries (NOTES.md, Tail percentile).
        95.0,
    ),
    "prove": Workload(
        W.prove_round,
        partial(W.prove_round, forward=4, random_count=4, chains=(10, 50)),
        False,
        99.0,
    ),
}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "answered_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "syntax.parse_s": "s",
    "syntax.format_s": "s",
    "analysis.validate_s": "s",
    "grammar.filter_s": "s",
    "grammar.assignments_total": "count",
    "grammar.assignments_searched": "count",
    "grammar.witness_ratio": "ratio",
    "prover.search_s": "s",
    "prover.nodes": "count",
    "prover.nodes_per_s": "1/s",
    "prover.memo_hit_ratio": "ratio",
    "prover.max_depth": "count",
    "prover.pruned_by_count_raw": "count",
    "checker.check_s": "s",
    "checker.proof_nodes_per_s": "1/s",
    "prooftree.to_json_s": "s",
    "prooftree.from_json_s": "s",
    "prooftree.json_bytes": "bytes",
    "reduction.build_s": "s",
    "reduction.solve3p_s": "s",
    "cli.call_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.queries": "count",
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Set-up: import the package from this checkout and build the grammar
# ---------------------------------------------------------------------------


def import_fresh():
    for name in [m for m in sys.modules if m == "lambek" or m.startswith("lambek.")]:
        del sys.modules[name]
    return importlib.import_module("lambek")


def setup(wl: Workload):
    """Median scaled time of SETUP_REPS fresh imports plus grammar builds."""
    if not (SRC / "lambek" / "__init__.py").is_file():
        raise SetupError(f"no lambek package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    speed = HostSpeed()
    starts, ends = [], []
    for _ in range(SETUP_REPS):
        speed.sample()
        gc.collect()
        starts.append(time.perf_counter())
        lib = import_fresh()
        state = lib.anbncn_grammar() if wl.grammar else None
        ends.append(time.perf_counter())
    speed.sample()
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported lambek from {lib.__file__}, not from {SRC}")
    importlib.import_module("lambek.cli")
    return statistics.median(speed.scale(starts, ends)), lib, state


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    """Latencies, failures and wrong answers of one measured loop."""

    def __init__(self, lib, speed: HostSpeed) -> None:
        self.lib = lib
        self.speed = speed
        self.starts = array("d")
        self.ends = array("d")
        self.failed = 0
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}
        self.digest = W.Digest()

    def run(self, api, state, q):
        runner = W.RUNNERS[q.kind]
        t0 = time.perf_counter()
        try:
            ans = runner(api, self.lib, state, q)
        except Exception as e:  # a crash is a failed query, never a "no"
            ans, reason = None, type(e).__name__
        else:
            reason = "unknown" if ans.verdict is None else None
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        if reason is not None:
            self.failed += 1
            self.failures[reason] = self.failures.get(reason, 0) + 1
        if ans is not None:
            error = W.check(self.lib, q, ans)
            if error is not None:
                self.errors.append(error)
        self.speed.maybe_sample()
        return ans

    def latencies(self) -> list[float]:
        """Scaled latencies (see hostspeed.py)."""
        return self.speed.scale(self.starts, self.ends)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(n: int, p: float) -> int:
    return n - max(1, math.ceil(p / 100 * n))


def plain_api(lib) -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(lib, name) for name in LAYER_OF_CALL})


def measure(wl: Workload, lib, state, stream, seconds: float):
    """Whole rounds until ``seconds`` have passed; the first is digested."""
    speed = HostSpeed()
    tally = Tally(lib, speed)
    api = plain_api(lib)
    speed.sample()
    deadline = time.perf_counter() + seconds
    for i, batch in enumerate(stream):
        for q in batch:
            ans = tally.run(api, state, q)
            if i == 0:
                tally.digest.add(q, ans)
        if time.perf_counter() >= deadline:
            break
    lat = sorted(tally.latencies())
    raw = sum(tally.ends) - sum(tally.starts)
    metrics = {
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, wl.tail) * 1e3,
        "answered_rate": 1 - tally.failed / len(lat),
    }
    notes = [
        f"latency_tail_ms is p{wl.tail:g}, with {beyond(len(lat), wl.tail)} of {len(lat)} samples beyond it",
        speed.note(),
        f"unscaled: items_per_s {len(lat) / raw:.6g} over {raw:.3f} s",
    ]
    return tally, metrics, notes


def measure_traced(lib, state, queries: list, workload: str):
    """Each query once untraced and once traced, alternating which goes first.

    Alternating the order cancels the advantage the second run of a
    query gets from the package's module-level caches.
    """
    speed = HostSpeed()
    speed.sample()
    plain, traced = Tally(lib, speed), Tally(lib, speed)
    tracer = Tracer()
    api, untraced_api = tracer.api(lib), plain_api(lib)

    def run_traced(q):
        tracer.install_hooks(lib)
        try:
            return traced.run(api, state, q)
        finally:
            tracer.remove_hooks()

    stats = {"nodes": 0, "cache_hits": 0, "pruned": 0, "max_depth": 0, "members": 0, "total": 0}
    proof_nodes = json_bytes = 0
    start = time.perf_counter()
    for i, q in enumerate(queries):
        if i % 2:
            ans = run_traced(q)
            plain.digest.add(q, plain.run(untraced_api, state, q))
        else:
            plain.digest.add(q, plain.run(untraced_api, state, q))
            ans = run_traced(q)
        stats["total"] += W.assignments_total(state, q)
        if ans is not None and ans.stats is not None:
            stats["nodes"] += ans.stats.nodes_expanded
            stats["cache_hits"] += ans.stats.cache_hits
            stats["pruned"] += ans.stats.pruned_by_count
            stats["max_depth"] = max(stats["max_depth"], ans.stats.max_depth)
        if ans is not None and ans.verdict and q.kind != "sequent":
            stats["members"] += 1
        if ans is not None and q.kind == "sequent" and ans.proof is not None:
            proof_nodes += W.proof_nodes(ans.proof)
            json_bytes += len(ans.json_text or "")
        if q.kind == "instance" and ans is not None:
            api.solve_3partition(ans.instance)
        if time.perf_counter() - start > TRACE_CAP_S:
            break
    n = len(traced.starts)
    cli_s = cli_calls(lib, queries[:n], traced) if workload == "prove" else 0.0

    sec = tracer.seconds
    search_s = sec["prover.search"]
    check_s = sec["checker.check"]
    searched = tracer.counts["grammar.assignments_searched"]
    metrics = {
        "syntax.parse_s": sec["syntax.parse"],
        "syntax.format_s": sec["syntax.format"],
        "analysis.validate_s": sec["analysis.validate"],
        "grammar.filter_s": sec["grammar.filter"],
        "grammar.assignments_total": stats["total"],
        "grammar.assignments_searched": searched,
        "grammar.witness_ratio": stats["members"] / searched if searched else 0.0,
        "prover.search_s": search_s,
        "prover.nodes": stats["nodes"],
        "prover.nodes_per_s": stats["nodes"] / search_s if search_s else 0.0,
        "prover.memo_hit_ratio": (
            stats["cache_hits"] / (stats["cache_hits"] + stats["nodes"]) if stats["nodes"] else 0.0
        ),
        "prover.max_depth": stats["max_depth"],
        "prover.pruned_by_count_raw": stats["pruned"],
        "checker.check_s": check_s,
        "checker.proof_nodes_per_s": proof_nodes / check_s if check_s else 0.0,
        "prooftree.to_json_s": sec["prooftree.to_json"],
        "prooftree.from_json_s": sec["prooftree.from_json"],
        "prooftree.json_bytes": json_bytes,
        "reduction.build_s": sec["reduction.build"],
        "reduction.solve3p_s": sec["reduction.solve3p"],
        "cli.call_s": cli_s,
    }
    # Layer times are sums over many queries: scale them by the factor
    # the traced queries' own latencies were scaled by on average.
    wall = sum(traced.latencies())
    factor = wall / (sum(traced.ends) - sum(traced.starts))
    for name, value in metrics.items():
        if name.endswith("per_s"):
            metrics[name] = value / factor
        elif name.endswith("_s"):
            metrics[name] = value * factor
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - sum(plain.latencies()[:n])
    metrics["trace.queries"] = n
    for name in tracer.unmeasured:
        metrics[name] = None
    notes = [f"{name}: unmeasured, {reason}" for name, reason in tracer.unmeasured.items()]
    notes += split_notes(metrics, wall)
    notes.append(speed.note())
    plain.errors += traced.errors
    return plain, traced, metrics, notes


def split_notes(m: dict, wall: float) -> list[str]:
    def share(name):
        return f"{name} = {m[name]:.3f} s, {m[name] / wall:.1%} of traced wall {wall:.3f} s"

    out = [share(name) for name in ("grammar.filter_s", "prover.search_s") if m[name]]
    json_s = m["prooftree.to_json_s"] + m["prooftree.from_json_s"]
    if m["prover.search_s"] is not None:
        out.append(f"proof JSON {json_s:.3f} s against search {m['prover.search_s']:.3f} s")
    return out


def cli_calls(lib, queries: list, tally: Tally) -> float:
    """Mean seconds of ``cli.main`` on the first CLI_CALLS short sequents.

    The exit code must agree with the library's verdict: 0 yes, 1 no,
    3 unknown.
    """
    picked = [q for q in queries if len(q.payload) < 200][:CLI_CALLS]
    api = plain_api(lib)
    elapsed = 0.0
    for q in picked:
        try:
            ans = W.run_sequent(api, lib, None, q)
        except Exception:  # counted as failed in the traced run already
            continue
        budget = lib.DEFAULT_BUDGET if q.expect else W.RANDOM_BUDGET
        argv = ["prove", q.payload, "--mode", q.mode, "--budget", str(budget)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = lib.cli.main(argv)
            elapsed += time.perf_counter() - t0
        want = {True: 0, False: 1, None: 3}[ans.verdict]
        if code != want:
            tally.errors.append(f"cli exit {code} on {q.payload!r} in {q.mode}, library says {ans.verdict}")
    return elapsed / len(picked) if picked else 0.0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> tuple[dict, list[str]]:
    wl = WORKLOADS[workload]
    setup_s, lib, state = setup(wl)
    stream = W.rounds(seed, wl.quick_round if quick else wl.make_round)
    if trace:
        queries = next(stream)
        tally, traced, metrics, notes = measure_traced(lib, state, queries, workload)
        units = PER_LAYER_UNITS
        attempted, failed = len(traced.starts), traced.failed
    else:
        tally, metrics, notes = measure(wl, lib, state, stream, seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
        attempted, failed = len(tally.starts), tally.failed
    notes.append(f"verdict digest of the first {tally.digest.count} queries: {tally.digest.hexdigest()}")
    if tally.failures:
        notes.append("failed queries: " + ", ".join(f"{k} x{v}" for k, v in sorted(tally.failures.items())))
    notes += [f"WRONG: {e}" for e in tally.errors[:10]]
    result = {
        "correct": not tally.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, notes


def run_all(args) -> int:
    """Every workload in a fresh interpreter; prints their metrics."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced inputs, for a smoke check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload} {name} = {value} {m['unit']}")
    for line in notes:
        print(f"{args.workload} note: {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
