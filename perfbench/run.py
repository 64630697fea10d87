#!/usr/bin/env python3
"""The RHEEM-CPP benchmark: builds the system and its harness from source,
runs one workload, checks every answer, and prints the metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The report lines come first; the last line is one JSON
      object {"correct", "attempted", "failed", "metrics"} holding the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1). The full result, with every metric the run
      measured and the host/build stamp, is saved under .bench_out/.

  python3 perfbench/run.py all [--seed N] [--seconds S]
      Runs every workload once and prints every end-to-end metric, those
      of BENCHMARK.json and those perfbench/catalog.json lists for the
      workload, by name and unit.

  python3 perfbench/run.py steady [--runs N] [--seconds S]
                                  [--workloads a,b] [--out DIR]
      Runs each workload N times with seeds 1..N, saves every result under
      DIR/<workload>/, and prints each metric's median, quartiles and
      spread (IQR / median) against its bound. Exits 1 when an end-to-end
      metric's spread exceeds its bound (setup_s is reported, not gated).

  python3 perfbench/run.py pair PARENT_ROOT [--runs N] [--seconds S]
                                [--workloads a,b] [--out DIR]
      Measures the checkout at PARENT_ROOT (with its own perfbench/run.py)
      against this one: for seeds 1..N, one run of each side, alternating
      which side runs first. Saves DIR/parent and DIR/change, then prints
      `compare` of the two.

  python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
      Compares two result sets (runs paired by seed): per workload and
      metric, each side's median and quartiles, the fraction of pairs the
      change wins, and a verdict: improved, no worse, regressed or
      unresolved. Sets whose runs did not alternate in time (two `steady`
      batches) get no verdict but `unresolved`, since drift of the host
      between the batches lands on one side only.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "rheem_perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DATA_DIR = os.path.join(ROOT, ".bench_data")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def catalog():
    return load_json(os.path.join(HERE, "catalog.json"))


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def build():
    """Configures and builds the harness (incremental after the first run)."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    with open(build_log, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                with open(build_log) as f:
                    tail = f.read()[-4000:]
                log(tail)
                log("build failed (%s); full log in %s" % (" ".join(cmd), build_log))
                return False
    return True


def source_digest():
    """Content hash of the sources built, for stamping runs outside git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_binary(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, full result dict or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(DATA_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", OUT_DIR, "--data-dir", DATA_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, None
    lines = stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        log("no result from %s (exit %d)" % (workload, proc.returncode))
        return proc.returncode or 1, None
    result["stamp"]["git_commit"] = git_commit()
    result["stamp"]["source_digest"] = source_digest()
    result["stamp"]["finished_unix"] = time.time()
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return proc.returncode, result


def result_line(result, trace):
    """The last output line: only the metrics BENCHMARK.json declares."""
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            log("metric %s missing from the %s result" % (name, result["workload"]))
            return None
        metrics[name] = result["metrics"][name]
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def cmd_run(args):
    if args.workload not in [w["name"] for w in benchmark_spec()["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    if not build():
        return 1
    rc, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return rc or 1
    line = result_line(result, args.trace)
    if line is None:
        return 1
    print(json.dumps(line), flush=True)
    return rc


def metric_info(spec, cat, name):
    """Kind, unit, direction and bound of a metric: from BENCHMARK.json for
    the metrics it declares, from catalog.json for the rest."""
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            if m["name"] == name:
                return dict(m, kind=kind)
    return cat["metrics"].get(name, {})


def e2e_names(spec, cat, workload):
    return [m["name"] for m in spec["end_to_end"]] + [
        m for m, d in cat["metrics"].items()
        if d.get("kind") == "end_to_end" and workload in d["workloads"]]


def cmd_all(args):
    if not build():
        return 1
    spec = benchmark_spec()
    cat = catalog()
    worst = 0
    for w in [x["name"] for x in spec["workloads"]]:
        rc, result = run_binary(w, args.seed, args.seconds, False, echo=False)
        worst = max(worst, rc)
        print("\n== %s (seed %d, %g s): correct=%s attempted=%s failed=%s" % (
            w, args.seed, args.seconds, result and result["correct"],
            result and result["attempted"], result and result["failed"]))
        if result is None:
            continue
        for name in e2e_names(spec, cat, w):
            m = result["metrics"].get(name)
            print("  %-22s %14s %s" % (name, "%.4f" % m["value"] if m else "MISSING",
                                       metric_info(spec, cat, name)["unit"]))
        s = result["stamp"]
        print("  stamp: nproc=%s build=%s %s compiler=%s commit=%s digest=%s" % (
            s.get("nproc"), s.get("build_type"), s.get("build_flagged"), s.get("compiler"),
            s.get("git_commit"), s.get("source_digest")))
    return worst


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_set(directory):
    """{workload: {seed: result}} from a `steady` output directory or one
    side of a `pair` output directory."""
    out = {}
    for workload in sorted(os.listdir(directory)):
        wdir = os.path.join(directory, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if name.endswith(".json"):
                r = load_json(os.path.join(wdir, name))
                out.setdefault(workload, {})[int(r["seed"])] = r
    return out


def cmd_steady(args):
    if not build():
        return 1
    cat = catalog()
    spec = benchmark_spec()
    workloads = workload_list(args, spec)
    out = args.out or os.path.join(OUT_DIR, "steady-%d" % int(time.time()))
    failed = False
    for w in workloads:
        os.makedirs(os.path.join(out, w), exist_ok=True)
        results = []
        for seed in range(1, args.runs + 1):
            rc, r = run_binary(w, seed, args.seconds, False, echo=False)
            if r is None or rc != 0:
                log("%s seed %d failed (exit %d)" % (w, seed, rc))
                failed = True
                continue
            with open(os.path.join(out, w, "seed%d.json" % seed), "w") as f:
                json.dump(r, f, indent=1)
            results.append(r)
        print("\n== %s: %d runs of %g s" % (w, len(results), args.seconds))
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            info = metric_info(spec, cat, name)
            bound, kind = info.get("bound"), info.get("kind")
            verdict = ""
            if bound is not None and kind == "end_to_end" and med:
                over = spread > bound
                gated = name != "setup_s"
                verdict = "%s (bound %.2f, a third %.3f)" % (
                    "OVER BOUND" if over else ("ok" if spread < bound / 3 else "ok, above a third"),
                    bound, bound / 3)
                if over and gated:
                    failed = True
            print("  %-34s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  %s" % (
                name, med, q1, q3, spread, verdict))
        # Time the hypervisor gave to other tenants widens every spread; show
        # it per run so a noisy host is told apart from a noisy benchmark.
        print("  cpu_steal_share per run: %s" % " ".join(
            "%.3f" % r["stamp"].get("cpu_steal_share", float("nan")) for r in results))
    print("\nresults saved in %s" % out)
    return 1 if failed else 0


def interleaved(parent_runs, change_runs):
    """True when the two sides' runs alternated in time, as `pair` runs
    them; two batches run one after the other are not."""
    times = [(r["stamp"].get("finished_unix"), side)
             for side, runs in (("p", parent_runs), ("c", change_runs)) for r in runs]
    if any(t is None for t, _ in times):
        return False
    sides = [side for _, side in sorted(times)]
    switches = sum(1 for a, b in zip(sides, sides[1:]) if a != b)
    return switches >= len(parent_runs) - 1 and len(parent_runs) > 1


def compare_sets(parent, change):
    cat = catalog()
    spec = benchmark_spec()
    print("%-16s %-28s %12s %12s %7s %7s  %s" % (
        "workload", "metric", "parent p50", "change p50", "delta", "wins", "verdict"))
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        alternated = interleaved([parent[w][s] for s in seeds],
                                 [change[w][s] for s in seeds])
        if not alternated:
            print("%-16s runs of the two sides did not alternate in time: "
                  "every verdict is unresolved (use `pair`)" % w)
        names = sorted({n for s in seeds for n in parent[w][s]["metrics"]} &
                       {n for s in seeds for n in change[w][s]["metrics"]})
        for name in names:
            info = metric_info(spec, cat, name)
            better = info.get("better")
            if better not in ("lower", "higher"):
                continue
            pv = [parent[w][s]["metrics"][name]["value"] for s in seeds
                  if name in parent[w][s]["metrics"] and name in change[w][s]["metrics"]]
            cv = [change[w][s]["metrics"][name]["value"] for s in seeds
                  if name in parent[w][s]["metrics"] and name in change[w][s]["metrics"]]
            if not pv:
                continue
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(1 for p, c in zip(pv, cv) if sign * (p - c) > 0)
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            worse_by = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
            bound = info.get("bound")
            spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
            all_better = (max(cv) < min(pv)) if better == "lower" else (min(cv) > max(pv))
            if not alternated:
                verdict = "unresolved (not interleaved)"
            elif wins >= 0.9 * len(pv) and sign * (pmed - cmed) > (pq3 - pq1):
                verdict = "improved"
            elif bound is not None and spread > bound and not all_better:
                verdict = "unresolved (parent spread %.3f > bound %.2f)" % (spread, bound)
            elif bound is not None and worse_by > bound:
                verdict = "regressed (bound %.2f)" % bound
            elif bound is None:
                verdict = "no bound (layer metric)"
            else:
                verdict = "no worse"
            print("%-16s %-28s %12.4f %12.4f %+6.1f%% %3d/%-3d  %s   [parent q1 %.4f q3 %.4f; "
                  "change q1 %.4f q3 %.4f]" % (
                      w, name, pmed, cmed, 100.0 * (cmed - pmed) / pmed if pmed else 0.0,
                      wins, len(pv), verdict, pq1, pq3, cq1, cq3))
    return 0


def cmd_compare(args):
    return compare_sets(load_set(args.parent), load_set(args.change))


def run_parent(root, workload, seed, seconds):
    """One run of the benchmark of the checkout at `root`, built in its own
    tree; returns its full result or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        rc = subprocess.call(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                             timeout=RUN_TIMEOUT_S + 900)
    except subprocess.TimeoutExpired:
        log("parent run of %s seed %d timed out" % (workload, seed))
        return None
    path = os.path.join(root, ".bench_out", "result-%s-seed%d-trace0.json" % (workload, seed))
    if rc != 0 or not os.path.exists(path):
        log("parent run of %s seed %d failed (exit %d)" % (workload, seed, rc))
        return None
    result = load_json(path)
    result["stamp"]["finished_unix"] = time.time()
    return result


def cmd_pair(args):
    if not build():
        return 1
    root = os.path.abspath(args.parent_root)
    out = args.out or os.path.join(OUT_DIR, "pair-%d" % int(time.time()))
    failed = False
    for w in workload_list(args, benchmark_spec()):
        for side in ("parent", "change"):
            os.makedirs(os.path.join(out, side, w), exist_ok=True)
        for seed in range(1, args.runs + 1):
            # Odd seeds run the parent first, even seeds the change.
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                if side == "parent":
                    r = run_parent(root, w, seed, args.seconds)
                else:
                    rc, r = run_binary(w, seed, args.seconds, False, echo=False)
                    r = r if rc == 0 else None
                if r is None:
                    failed = True
                    continue
                with open(os.path.join(out, side, w, "seed%d.json" % seed), "w") as f:
                    json.dump(r, f, indent=1)
    print("results saved in %s\n" % out)
    compare_sets(load_set(os.path.join(out, "parent")), load_set(os.path.join(out, "change")))
    return 1 if failed else 0


def workload_list(args, spec):
    return args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("all", "steady", "pair", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        sub = sys.argv[1]
        if sub == "compare":
            p.add_argument("parent")
            p.add_argument("change")
            return cmd_compare(p.parse_args(sys.argv[2:]))
        p.add_argument("--seconds", type=float,
                       default=benchmark_spec()["run_seconds"])
        if sub == "all":
            p.add_argument("--seed", type=int, default=1)
            return cmd_all(p.parse_args(sys.argv[2:]))
        if sub == "pair":
            p.add_argument("parent_root")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--workloads", default="")
        p.add_argument("--out", default="")
        args = p.parse_args(sys.argv[2:])
        return cmd_pair(args) if sub == "pair" else cmd_steady(args)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
