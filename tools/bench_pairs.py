"""Paired parent/change runs of perfbench, summarized into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 17 \\
        --seeds 1701-1710 --claim oracle_suite.peak_rss_mb \\
        [--change-note TEXT] [--out BENCH_17.json]

Each seed is one pair: `python3 perfbench/run.py --workload all --seed S
--trace 0` runs in the parent checkout and in the change checkout, one
after the other, each from its own tree. Every workload runs, so each is
checked against its bound, and the run length is perfbench's own default. The side that runs
first flips from pair to pair (the parent first in the first pair). Both
checkouts must hold the same perfbench/.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles, the number of pairs where the change read lower,
the relative change of the medians, whether the change stays within the
metric's bound in BENCHMARK.json, and the gain verdict: the change better
in at least 9/10 of the pairs and its median better than the parent's by
more than the parent's interquartile range. It also compares the same-seed
output digests of the two sides and counts failed ops. The file is
rewritten after every pair, so an interrupted session keeps what it ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RESULTS = os.path.join(".perfbench", "results")


def seed_range(text):
    """"1701-1710" or "1701,1705" -> a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(runs):
    """Median and quartiles (the inclusive method: numpy's linear percentile)."""
    if len(runs) == 1:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0], "runs": list(runs)}
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": list(runs)}


def compare(parent, change, better="lower", bound=None):
    """The paired summary of one metric: parent[i] and change[i] are pair i.

    change_better_in counts the pairs where the change reads better (ties
    count for neither side). The gain is met when that is at least 9/10 of
    the pairs and the medians differ, in the change's favour, by more than
    the parent's interquartile range. within_bound (when a relative bound is
    given) is False when the change's median is worse than the parent's by
    more than bound times the parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    gain = sign * (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    out = {"parent": p, "change": c, "better": better,
           "change_better_in": "%d/%d" % (wins, len(parent)),
           "relative_change": (c["median"] - p["median"]) / p["median"],
           "parent_iqr": iqr, "gain_met": 10 * wins >= 9 * len(parent) and gain > iqr}
    if bound is not None:
        out["within_bound"] = -gain <= bound * abs(p["median"])
    return out


def summarize(pairs, metrics):
    """pairs: [{"seed", "first", "parent": side, "change": side}], a side being
    {"metrics": {"<workload>.<metric>": value}, "failed", "digests": {workload: {...}}}.
    metrics: {"<metric>": {"better", "bound"}} from BENCHMARK.json's end_to_end."""
    names = sorted(pairs[0]["parent"]["metrics"])
    e2e = {}
    for name in names:
        workload, metric = name.split(".", 1)
        spec = metrics.get(metric, {})
        e2e.setdefault(workload, {})[metric] = compare(
            [pr["parent"]["metrics"][name] for pr in pairs],
            [pr["change"]["metrics"][name] for pr in pairs],
            spec.get("better", "lower"), spec.get("bound"))
    digests = {}
    for workload in pairs[0]["parent"]["digests"]:
        differing = []
        for pr in pairs:
            a, b = pr["parent"]["digests"][workload], pr["change"]["digests"].get(workload, {})
            keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            if keys:
                differing.append({"seed": pr["seed"], "keys": keys})
        digests[workload] = {"identical_seeds": "%d/%d" % (len(pairs) - len(differing), len(pairs)),
                             "differing": differing}
    return {"seeds": [pr["seed"] for pr in pairs],
            "first": [pr["first"] for pr in pairs],
            "end_to_end": e2e,
            "runs_with_failed_ops": {side: sum(1 for pr in pairs if pr[side]["failed"])
                                     for side in ("parent", "change")},
            "digests_parent_vs_change": digests}


COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", "SEED", "--trace", "0"]


def run_side(checkout, seed):
    """One untraced perfbench run of every workload in checkout: its metrics,
    failed-op count, digests per workload (from the results files) and machine."""
    argv = [sys.executable] + [str(seed) if a == "SEED" else a for a in COMMAND]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    names = sorted({k.split(".", 1)[0] for k in metrics})
    digests, machine = {}, None
    for name in names:
        with open(os.path.join(checkout, RESULTS, "%s-seed%d-trace0.json" % (name, seed))) as fh:
            record = json.load(fh)
        digests[name], machine = record["digests"], record["machine"]
    return {"metrics": metrics, "failed": res["failed"], "attempted": res["attempted"],
            "digests": digests, "machine": machine}


def git_head(checkout):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1701-1710 (one pair per seed)")
    p.add_argument("--claim", default=None, help="<workload>.<metric> the change claims a gain on")
    p.add_argument("--change-note", default="", help="one line: what the change does")
    p.add_argument("--out", default=None, help="default BENCH_<pr>.json in the change checkout")
    ns = p.parse_args()
    out = ns.out or os.path.join(ns.change, "BENCH_%d.json" % ns.pr)
    with open(os.path.join(ns.change, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    pairs = []
    for k, seed in enumerate(ns.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(getattr(ns, side), seed)
            print("seed %d %s: %s" % (seed, side, json.dumps(pair[side]["metrics"])), flush=True)
        pairs.append(pair)
        doc = {"pr": ns.pr, "change": ns.change_note, "parent": git_head(ns.parent),
               "command": "python3 " + " ".join(COMMAND),
               "protocol": "%d pairs, seeds %s; each side from its own checkout; the side run first "
                           "flips every pair, the parent first in the first"
                           % (len(pairs), ", ".join(map(str, ns.seeds[:len(pairs)]))),
               "machine": pairs[0]["change"]["machine"]}
        doc.update(summarize(pairs, metrics))
        if ns.claim:
            workload, metric = ns.claim.split(".", 1)
            got = doc["end_to_end"][workload][metric]
            doc["claim"] = {"workload": workload, "metric": metric,
                            "parent_median": got["parent"]["median"], "change_median": got["change"]["median"],
                            "relative_change": got["relative_change"], "change_better_in": got["change_better_in"],
                            "parent_iqr": got["parent_iqr"], "met": got["gain_met"]}
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
