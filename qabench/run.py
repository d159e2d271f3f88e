#!/usr/bin/env python3
"""qabench: end-to-end and per-layer benchmark of the qastream simulator.

Run from the root of a checkout:

  python3 qabench/run.py --workload farm_churn500 --seed 1 --seconds 20 --trace 0
  python3 qabench/run.py --workload fig2_observed --seed 1 --seconds 20 --trace 1
  python3 qabench/run.py --compare PARENT_DIR CHANGE_DIR
  python3 qabench/run.py --pin 0-99

The first call builds qabench/qa_bench (the library sources in src/ plus the
measuring binary) into $CARGO_TARGET_DIR, default .bench_build. Timed runs
(--trace 0) print every end-to-end metric; the traced pass (--trace 1)
prints every per-layer metric and writes .bench_out/<workload>/trace_pass.json.
Every scenario digest is checked against qabench/digests.json. The last line
of standard output is the JSON result. NOTES.md explains the workloads and
the metric -> layer -> workload map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "digests.json"
CHILD_TIMEOUT_S = 170
PAIRS = 10  # compare mode: alternating parent/change pairs per workload
# The fig-2 scenario draws nothing random, so one pin serves every seed.
SEEDLESS = {"fig2_observed"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("qabench: " + msg)
    sys.exit(code)


def benchmark_spec():
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        fail("BENCHMARK.json not found at %s" % ROOT)
    return json.loads(spec.read_text())


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once, then (re)builds qa_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources at %s/src; nothing to build" % ROOT)
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "qa_bench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bdir / "qa_bench"


def run_child(binary, mode, workload, seed, seconds, out):
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s %s timed out" % (mode, workload))
    if r.returncode != 0:
        fail("%s %s exited %d" % (mode, workload, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---- Correctness ------------------------------------------------------------


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def judge(workload, seed, reps, checks):
    """Counts attempted/failed scenarios and returns the reps whose every
    digest matches: the pinned digest for (workload, seed) when one exists,
    otherwise the first digest seen for that scenario in this run."""
    key = "*" if workload in SEEDLESS else str(seed)
    pinned = load_pins().get(workload, {}).get(key)
    ref = dict(pinned or {})
    attempted = failed = 0
    good = []
    seen = set()
    for rep in reps:
        bad = 0
        for o in rep["outcomes"]:
            attempted += 1
            seen.add(o["scenario"])
            want = ref.setdefault(o["scenario"], o["digest"])
            if o["digest"].startswith("error") or o["digest"] != want:
                bad += 1
        failed += bad
        if bad == 0:
            good.append(rep)
    # A pinned scenario the run never produced counts as failed.
    missing = set(pinned or {}) - seen
    attempted += len(missing)
    failed += len(missing)
    for c in checks:
        attempted += 1
        if not c["ok"]:
            failed += 1
            log("check failed: %s (%s)" % (c["name"], c["detail"]))
    if failed:
        log("%d of %d scenarios failed (%s digests)" %
            (failed, attempted, "pinned" if pinned else "self-consistent"))
    return attempted, failed, good, pinned is not None


# ---- Statistics -------------------------------------------------------------


def summary(values):
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def timed(binary, args, out):
    raw = run_child(binary, "timed", args.workload, args.seed, args.seconds,
                    out)
    attempted, failed, good, pinned = judge(args.workload, args.seed,
                                            raw["reps"], raw["checks"])
    reps = good or raw["reps"]  # a failed run still reports, as incorrect

    def per_rep(f):
        return [f(r) for r in reps]

    def total(r, key):
        return sum(o[key] for o in r["outcomes"])

    stats = {
        "wall_s": summary(per_rep(lambda r: r["wall_s"])),
        "cpu_s": summary(per_rep(lambda r: r["cpu_s"])),
        "sim_speed": summary(per_rep(lambda r: total(r, "sim_s") /
                                     r["wall_s"])),
        "packets_per_cpu_s": summary(per_rep(lambda r: total(r, "packets") /
                                             r["cpu_s"])),
        "peak_rss_mb": summary([raw["peak_rss_bytes"] / 2**20]),
        "setup_s": summary(raw["setup_s"]),
        "ok_rate": summary([(attempted - failed) / attempted]),
    }
    result = {"workload": args.workload, "seed": args.seed,
              "input": raw["input"], "pinned": pinned,
              "attempted": attempted, "failed": failed,
              "reps_discarded": len(raw["reps"]) - len(good),
              "stats": stats, "checks": raw["checks"]}
    return attempted, failed, stats, result


def traced(binary, args, out):
    raw = run_child(binary, "traced", args.workload, args.seed, args.seconds,
                    out)
    attempted, failed, _, pinned = judge(args.workload, args.seed,
                                         raw["reps"], raw["checks"])
    stats = {k: {"median": v["value"], "q1": v["value"], "q3": v["value"],
                 "n": 1, "unit": v["unit"]}
             for k, v in raw["metrics"].items()}
    result = {"workload": args.workload, "seed": args.seed, "pinned": pinned,
              "attempted": attempted, "failed": failed, "stats": stats,
              "checks": raw["checks"],
              "artifact": str(out / "trace_pass.json")}
    return attempted, failed, stats, result


def measure(args):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(names)))
    binary = build()
    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    section = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed, stats, result = (traced if args.trace else timed)(
        binary, args, out)
    missing = [m["name"] for m in section if m["name"] not in stats]
    if missing:
        log("metrics not produced: " + ", ".join(missing))
    (out / ("result_trace.json" if args.trace else "result.json")).write_text(
        json.dumps(result, indent=1) + "\n")
    print("%-30s %14s %14s %14s %4s %s" %
          ("metric", "median", "q1", "q3", "n", "unit"))
    metrics = {}
    for m in section:
        s = stats.get(m["name"])
        if s is None:
            continue
        print("%-30s %14.6g %14.6g %14.6g %4d %s" %
              (m["name"], s["median"], s["q1"], s["q3"], s["n"], m["unit"]))
        metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ---- Compare mode (choosing-metrics section 8) -------------------------------


def run_side(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    r = subprocess.run([sys.executable, "qabench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"], cwd=checkout, env=env,
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("%s: %s seed %d exited %d" % (checkout, workload, seed,
                                           r.returncode))
    line = json.loads(r.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        fail("%s: %s seed %d reported incorrect output" % (checkout,
                                                           workload, seed))
    return {k: v["value"] for k, v in line["metrics"].items()}


def verdict(metric, parent, change):
    """One metric of one workload: gain, worse, unresolved or no-worse."""
    bound = metric["bound"]

    def beats(a, b):
        return a < b if metric["better"] == "lower" else a > b

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    losses = sum(beats(p, c) for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    iqr_p = ps["q3"] - ps["q1"]
    diff = cs["median"] - ps["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0
                 for s in (ps, cs))
    # Every change run reads better than every parent run.
    separated = all(beats(c, p) for c in change for p in parent)
    if spread > bound and not separated:
        v = "unresolved"
    elif wins >= 0.9 * len(parent) and beats(cs["median"], ps["median"]) \
            and abs(diff) > iqr_p:
        v = "gain"
    elif beats(ps["median"], cs["median"]) and \
            abs(diff) > bound * abs(ps["median"]):
        v = "worse"
    else:
        v = "no-worse"
    return {"verdict": v, "wins": wins, "losses": losses,
            "pairs": len(parent), "parent": ps, "change": cs,
            "spread": spread, "bound": bound}


def compare(args):
    parent, change = (Path(p).resolve() for p in args.compare)
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    for w in (x["name"] for x in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = args.seed + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                runs[side].append(run_side(checkout, w, seed, seconds))
            log("%s pair %d/%d done" % (w, i + 1, PAIRS))
        report[w] = {m["name"]: verdict(m, [r[m["name"]] for r in runs["parent"]],
                                        [r[m["name"]] for r in runs["change"]])
                     for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"]]
    print("%-16s " % "workload" + " ".join("%-22s" % n for n in names))
    for w, row in report.items():
        print("%-16s " % w + " ".join(
            "%-22s" % ("%s %d/%d" % (row[n]["verdict"], row[n]["wins"],
                                     row[n]["pairs"])) for n in names))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({w: {n: r["verdict"] for n, r in row.items()}
                      for w, row in report.items()}))


# ---- Pin mode -----------------------------------------------------------------


def pin(args):
    lo, _, hi = args.pin.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    binary = build()
    pins = load_pins()
    for w in (x["name"] for x in benchmark_spec()["workloads"]):
        out = ROOT / ".bench_out" / w
        out.mkdir(parents=True, exist_ok=True)
        for seed in seeds[:1] if w in SEEDLESS else seeds:
            raw = run_child(binary, "digests", w, seed, 0, out)
            key = "*" if w in SEEDLESS else str(seed)
            pins.setdefault(w, {})[key] = {
                o["scenario"]: o["digest"] for o in raw["reps"][0]["outcomes"]}
            bad = [c["name"] for c in raw["checks"] if not c["ok"]]
            if bad:
                fail("%s seed %d: checks failed while pinning: %s" %
                     (w, seed, bad))
        log("pinned %s for seeds %s" % (w, args.pin))
    write_pins(pins)


def write_pins(pins):
    # One line per (workload, seed) keeps the file short and diffable.
    lines = []
    for w in sorted(pins):
        seeds = sorted(pins[w], key=lambda s: -1 if s == "*" else int(s))
        rows = ['  "%s": %s' % (seed, json.dumps(pins[w][seed], sort_keys=True))
                for seed in seeds]
        lines.append(' "%s": {\n%s\n }' % (w, ",\n".join(rows)))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring window (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--pin", metavar="LO-HI",
                    help="record scenario digests for seeds LO..HI")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.compare:
        compare(args)
    elif args.pin:
        pin(args)
    elif args.workload:
        args.seconds = args.seconds or benchmark_spec()["run_seconds"]
        measure(args)
    else:
        ap.print_usage(sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
