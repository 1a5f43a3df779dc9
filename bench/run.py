"""The kbd benchmark: finite, diverge and query workloads.

    python3 bench/run.py --workload finite --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads in turn.  Each workload is a
closed loop with one caller: a case or query starts only after the
previous one returned.  Every case repetition runs in its own child
process (see ``child.py``), timed inside the child around ``cli.entry``.

With ``--trace 0`` the last output line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, measured with the wrappers of ``tracer.py``.  The lines
before it name every metric with its unit and sample count.  README.md
says what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import DETERMINISTIC, LAYERS
from workloads import CASES, QUERY_CLASSES, expected_answer, make_queries, \
    system_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"
CHILD_TIMEOUT = 170
# Each case is timed at least MIN_REPEATS times, spread over the run, and
# counts with the median of its times: on a shared machine other tenants
# change the speed of kbd's code by up to a half from one second to the
# next, and the median over a run moves less than its best time does.
MIN_REPEATS = 3
# Run length is a count fixed from --seconds, so that both sides of a
# comparison time the same work: these are the costs of one finite or
# diverge pass and of one query on the 2-core machine the bounds in
# BENCHMARK.json were set on.
PASS_S = {"finite": 3.5, "diverge": 11.3}
QUERY_S = 0.018
# Query sessions per untraced run; each query counts with the median of
# its times over the sessions.
QUERY_SESSIONS = 3
TRACED_QUERIES = 300   # queries per session with --trace 1
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = ("setup_s", "peak_rss_mb", "case_s_geomean", "case_s_max",
              "query_ms_p50", "query_ms_tail", "queries_per_s")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "case_s_geomean": "s",
         "case_s_max": "s", "query_ms_p50": "ms", "query_ms_tail": "ms",
         "queries_per_s": "1/s"}


class Outcome:
    """Attempted and failed checks of one workload run, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1):
        self.failed += count
        print("CHECK FAILED: %s" % what, file=sys.stderr)


def hash_seeds(seed: int) -> tuple[int, int]:
    """Two PYTHONHASHSEED values; repetitions alternate between them."""
    return (seed * 2 + 1) % 4294967295, (seed * 2 + 2) % 4294967295


def spawn(spec: dict, hash_seed: int) -> dict | None:
    """Run one child process to completion; None if it did not report."""
    spec = dict(spec, src=str(SRC))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)],
                              input=json.dumps(spec), capture_output=True,
                              text=True, env=env, timeout=CHILD_TIMEOUT,
                              cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        print("child timed out after %d s" % CHILD_TIMEOUT, file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("child exited with %d:\n%s" % (proc.returncode,
                                             proc.stderr[-2000:]),
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def tail(values: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), or the maximum when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], "p%g" % q
    return ordered[-1], "max"


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ------------------------------------------------------------ case runs

def trace_path(workload: str, case) -> Path:
    return WORK / workload / (case.name + ".trace")


def case_spec(workload: str, case, traced: bool, tag: str) -> dict:
    trace_file = trace_path(workload, case)
    spec = {"mode": "case", "case": case.name, "traced": traced,
            "argv": case.command() + ["--trace", str(trace_file)],
            "trace_file": str(trace_file), "golden": case.golden}
    if traced:
        spec["spans"] = str(WORK / workload / "spans" /
                            ("%s-%s.jsonl" % (tag, case.name)))
    return spec


def check_case(workload, case, res, first, outcome):
    """Status, golden or fuel cap, and equality with the first repetition."""
    if res is None:
        outcome.check(False, "%s: child process failed" % case.name)
        return
    status = res["output"].split("\n", 1)[0]
    if workload == "finite":
        ok = res["code"] == 0 and status == "SUCCESS" and res["golden_ok"]
        what = "%s: status %s, golden match %s" % (case.name, status,
                                                  res.get("golden_ok"))
    else:
        ok = res["code"] == 2 and status == "OUT-OF-FUEL" and \
            res["trace_len"] == case.fuel
        what = "%s: status %s, trace length %d, cap %d" % (
            case.name, status, res["trace_len"], case.fuel)
    if ok and first is not None:
        ok = (res["output"], res["trace_sha"]) == \
            (first["output"], first["trace_sha"])
        what = "%s: output or trace differs between repetitions " \
               "(DETERMINISM MISMATCH)" % case.name
    outcome.check(ok, what)


def replay_ok(workload: str, case, output: str) -> bool:
    """``kbd replay`` of the run's trace, under the run's own variant,
    must succeed and reach the printed system."""
    from kbd import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.entry(["replay", case.command()[1], "--script",
                          str(trace_path(workload, case)),
                          "--variant", case.variant]
                         + case.order_flags())
    return code == 0 and out.getvalue().startswith("SUCCESS") and \
        system_text(out.getvalue()) == system_text(output)


def run_cases(workload: str, seed: int, seconds: float, traced: bool,
              outcome: Outcome) -> dict:
    cases = CASES[workload]
    rng = random.Random(seed)
    seeds = hash_seeds(seed)
    runs = defaultdict(list)      # case name -> [(pass tag, result)]

    def one_pass(tag, traced_pass, hash_seed):
        order = list(cases)
        rng.shuffle(order)
        for case in order:
            res = spawn(case_spec(workload, case, traced_pass, tag),
                        hash_seed)
            first = runs[case.name][0][1] if runs[case.name] else None
            check_case(workload, case, res, first, outcome)
            if res is not None:
                runs[case.name].append((tag, res))

    if traced:
        one_pass("untraced", False, seeds[0])
        for tag, hs in (("traced", seeds[0]), ("traced-b", seeds[1])):
            one_pass(tag, True, hs)
    else:
        passes = max(MIN_REPEATS, int(seconds / PASS_S[workload]))
        for p in range(passes):
            one_pass("pass%d" % p, False, seeds[p % 2])

    for case in cases:
        if runs[case.name]:
            output = runs[case.name][0][1]["output"]
            if not replay_ok(workload, case, output):
                outcome.fail("%s: trace does not replay under %s to the "
                             "printed system" % (case.name, case.variant),
                             len(runs[case.name]))
    return {"runs": runs}


def summarize(times: dict, group: dict, setups: list, rss: list,
              unit: str) -> tuple[dict, dict, dict]:
    """End-to-end metrics from each unit's median time (a case on finite
    and diverge, a query on query), the units grouped into cases."""
    by_group = defaultdict(list)
    for key, t in times.items():
        by_group[group[key]].append(t)
    medians = {g: statistics.median(ts) for g, ts in by_group.items()}
    samples = [t * 1000 for t in times.values()]
    tail_ms, tail_label = tail(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "case_s_geomean": geomean(medians.values()),
        "case_s_max": max(medians.values()),
        "query_ms_p50": statistics.median(samples),
        "query_ms_tail": tail_ms,
        "queries_per_s": len(times) / sum(times.values()),
    }
    n = len(samples)
    counts = {"setup_s": "median of %d set-ups" % len(setups),
              "peak_rss_mb": "max of %d processes" % len(rss),
              "case_s_geomean": "%d cases" % len(medians),
              "case_s_max": "%d cases" % len(medians),
              "query_ms_p50": "%d %s" % (n, unit),
              "query_ms_tail": "%s of %d %s" % (tail_label, n, unit),
              "queries_per_s": "%d %s" % (n, unit)}
    return metrics, counts, by_group


def case_metrics(data: dict) -> tuple[dict, dict, dict]:
    # a traced run times its untraced pass only
    runs = {name: [r for tag, r in rs if not tag.startswith("traced")]
            for name, rs in data["runs"].items()}
    everything = [r for rs in runs.values() for r in rs]
    times = {name: statistics.median(r["wall_s"] for r in rs)
             for name, rs in runs.items() if rs}
    return summarize(times, {name: name for name in times},
                     [r["setup_s"] for r in everything],
                     [r["maxrss_mb"] for r in everything], "cases")


# --------------------------------------------------------------- queries

def run_query_sessions(seed: int, seconds: float, traced: bool,
                       outcome: Outcome) -> dict:
    """Sessions that each complete the base systems and then answer the
    same queries, alternating between the two hash seeds."""
    seeds = hash_seeds(seed)
    if traced:
        plan = [("untraced", False, seeds[0]), ("traced", True, seeds[0]),
                ("traced-b", True, seeds[1])]
        limit = TRACED_QUERIES
    else:
        plan = [("session%d" % i, False, seeds[i % 2])
                for i in range(QUERY_SESSIONS)]
        limit = max(100, int(seconds / QUERY_SESSIONS / QUERY_S))
    queries = make_queries(seed, limit)
    qfile = WORK / "query" / "queries.json"
    qfile.write_text(json.dumps(queries))
    expected = [expected_answer(q) for q in queries]
    sessions = []
    for tag, traced_session, hs in plan:
        spec = {"mode": "query", "queries": str(qfile),
                "traced": traced_session,
                "spans": str(WORK / "query" / "spans" / (tag + ".jsonl"))}
        res = spawn(spec, hs)
        outcome.attempted += limit
        if res is None:
            outcome.fail("query session %s: child process failed" % tag,
                         limit)
            continue
        if not res["setup_ok"]:
            outcome.fail("query session %s: base systems differ from their "
                         "goldens" % tag, limit)
            continue
        for k, (answer, want) in enumerate(zip(res["answers"], expected)):
            if answer != want:
                outcome.fail("query %d (%s): got %s, want %s" % (
                    k, queries[k][0], answer[:80], want[:80]))
        sessions.append((tag, res))
    return {"sessions": sessions, "queries": queries}


def query_metrics(data: dict) -> tuple[dict, dict, dict]:
    queries = data["queries"]
    # a traced run times its untraced session only
    sessions = [res for tag, res in data["sessions"]
                if not tag.startswith("traced")]
    times = {k: statistics.median(res["times"][k] for res in sessions)
             for k in range(len(queries))}
    return summarize(times, {k: q[0] for k, q in enumerate(queries)},
                     [res["setup_s"] for res in sessions],
                     [res["maxrss_mb"] for res in sessions], "queries")


# --------------------------------------------------------------- tracing

PER_LAYER_TIMES = {
    "completion.fairness_gap_s": "completion.fairness_gap",
    "completion.apply_inference_s": "completion.apply_inference",
    "completion.interreduce_s": "completion.interreduce",
    "completion.simplify_s": "completion.simplify_to_normal_form",
    "critical_pairs.overlaps_s": "critical_pairs.overlaps",
    "critical_pairs.extended_overlaps_s": "critical_pairs.extended_overlaps",
    "rewriting.normalize_s": "rewriting.normalize",
    "rewriting.ordered_normalize_s": "rewriting.ordered_normalize",
    "rewriting.conversion_oracle_s": "rewriting.conversion_oracle",
    "orders.gt_s": "orders.gt",
    "ordered.ground_joinable_s": "ordered.ground_joinable",
    "canonicity.rddot_s": "canonicity.rddot",
    "parsing.parse_problem_s": "parsing.parse_problem",
    "cli.show_system_s": "cli.show_system",
}
PER_LAYER_COUNTS = (
    "completion.fairness_gap.calls", "completion.inferences",
    "completion.inferences.orient", "completion.inferences.delete",
    "completion.inferences.deduce", "completion.inferences.simplify",
    "completion.inferences.compose", "completion.inferences.collapse",
    "critical_pairs.overlaps.calls", "critical_pairs.overlaps.found",
    "critical_pairs.extended_overlaps.calls",
    "rewriting.rewrite_step.calls", "rewriting.steps",
    "rewriting.ordered_step.calls", "orders.gt.calls",
    "terms.match.calls", "terms.unify.calls", "terms.apply_subst.calls",
    "terms.replace_at.calls", "terms.hash_eq.calls")
PEAKS = ("completion.R_peak", "completion.E_peak", "completion.e_union_peak")


def layer_metrics(summaries: list[dict]) -> dict:
    """Merge traced child summaries into the per-layer metrics."""
    total, self_s, counts, spans = defaultdict(float), defaultdict(float), \
        defaultdict(int), 0
    for s in summaries:
        for k, v in s["total_s"].items():
            total[k] += v
        for k, v in s["self_s"].items():
            self_s[k] += v
        for k, v in s["counts"].items():
            counts[k] = max(counts[k], v) if k in PEAKS else counts[k] + v
        spans += s["spans"]
    out = {name: total[key] for name, key in PER_LAYER_TIMES.items()}
    out.update({name: counts[name] for name in PER_LAYER_COUNTS + PEAKS})
    out["completion.fairness.useful_ratio"] = \
        counts["completion.inferences.deduce"] / \
        max(1, counts["completion.fairness.examined"])
    out["critical_pairs.prime_ratio"] = \
        counts["critical_pairs.prime_peaks"] / \
        max(1, counts["critical_pairs.peaks"])
    out["orders.gt.true_ratio"] = \
        counts["orders.gt.true"] / max(1, counts["orders.gt.calls"])
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
    out["trace.spans"] = spans
    return out


def compare_counts(a: dict, b: dict) -> list[str]:
    return [k for k in DETERMINISTIC
            if a["counts"].get(k, 0) != b["counts"].get(k, 0)]


def traced_report(workload: str, data: dict, outcome: Outcome) -> dict:
    """Per-layer metrics from the first traced pass; tracing overhead
    against the untraced pass; counts of the two traced passes (two hash
    seeds) must agree exactly."""
    if workload == "query":
        per_case = {"queries": dict(data["sessions"])}

        def elapsed(res):
            return sum(res["times"])
    else:
        per_case = {name: dict(rs) for name, rs in data["runs"].items()}

        def elapsed(res):
            return res["wall_s"]
    traced, untraced_s, traced_s = [], 0.0, 0.0
    for name, tags in sorted(per_case.items()):
        if not {"untraced", "traced", "traced-b"} <= set(tags):
            continue  # a failed child, already counted
        summary = tags["traced"]["trace"]
        diff = compare_counts(summary, tags["traced-b"]["trace"])
        if diff:
            outcome.fail("%s: DETERMINISM MISMATCH across PYTHONHASHSEED "
                         "in counts %s" % (name, ", ".join(diff)))
        traced.append(summary)
        untraced_s += elapsed(tags["untraced"])
        traced_s += elapsed(tags["traced"])
        if workload != "query":
            layers = layer_metrics([summary])
            top = sorted((layers[k], k) for k in PER_LAYER_TIMES)[-4:]
            print("  layers %-10s %s" % (name, "  ".join(
                "%s=%.3fs" % (k, v) for v, k in reversed(top))))
    metrics = layer_metrics(traced)
    metrics["trace.overhead_ratio"] = \
        traced_s / untraced_s - 1 if untraced_s else 0.0
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ------------------------------------------------------------------ main

def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    outcome = Outcome()
    print("== %s  seed=%d  seconds=%g  trace=%d  nproc=%d  python=%s" % (
        workload, seed, seconds, traced, os.cpu_count() or 0,
        sys.version.split()[0]))
    if workload == "query":
        data = run_query_sessions(seed, seconds, traced, outcome)
        have = any(not tag.startswith("traced")
                   for tag, _ in data["sessions"])
        measure = query_metrics
    else:
        data = run_cases(workload, seed, seconds, traced, outcome)
        have = any(not tag.startswith("traced")
                   for rs in data["runs"].values() for tag, _ in rs)
        measure = case_metrics
    metrics: dict = {}
    if have:
        e2e, counts, by_group = measure(data)
        for name, times in sorted(by_group.items()):
            if workload == "query":
                ms = sorted(t * 1000 for t in times)
                print("  case.%s.%s_s  %.6f s  (median over %d queries of "
                      "each one's median time; p90 %.1f ms, p95 %.1f ms)" % (
                          workload, name, statistics.median(times), len(ms),
                          ms[math.ceil(0.90 * len(ms)) - 1],
                          ms[math.ceil(0.95 * len(ms)) - 1]))
            else:
                print("  case.%s.%s_s  %.6f s  (median repetition)" % (
                    workload, name, times[0]))
        if traced:
            metrics = traced_report(workload, data, outcome)
            metrics["fail_ratio"] = outcome.failed / max(1, outcome.attempted)
            for name in sorted(metrics):
                print("  %-40s %.6g %s" % (name, metrics[name],
                                           layer_unit(name)))
        else:
            for name in END_TO_END:
                print("  %-16s %.6f %s  (%s)" % (name, e2e[name],
                                                 UNITS[name], counts[name]))
            metrics = {k: e2e[k] for k in END_TO_END}
    print("  %-16s %.6f  (%d failed of %d attempted)" % (
        "fail_ratio", outcome.failed / max(1, outcome.attempted),
        outcome.failed, outcome.attempted))
    unit = layer_unit if traced else UNITS.get
    return {"correct": outcome.failed == 0,
            "attempted": max(1, outcome.attempted), "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": unit(k)}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["finite", "diverge", "query", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kbd" / "cli.py").is_file():
        print("kbd sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # replay checks run kbd in this process
    workloads = ["finite", "diverge", "query"] if args.workload == "all" \
        else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
