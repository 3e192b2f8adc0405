#!/usr/bin/env python3
"""The somr benchmark: one command that builds the tree it sits in, runs
one seeded workload against the real entry points, checks the outputs and
prints every metric by name with its unit. The last line of standard
output is the JSON result.

  python3 perfbench/run.py --workload lake_match --seed 3 --trace 0
  python3 perfbench/run.py compare old.jsonl new.jsonl
  python3 perfbench/run.py selftest

Workloads, metrics, bounds and the run length (run_seconds, unless
--seconds is given) are declared in BENCHMARK.json at the root of the
checkout. Build output goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); every run is appended to results.jsonl there, or
to --results.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import results

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workload binary kills itself after this long; run.py waits a little more.
WATCHDOG_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def cache_value(out, key):
    """The value of `key` in the CMakeCache.txt of build dir `out`, or
    None."""
    try:
        with open(os.path.join(out, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(targets):
    """Configures (once per source tree) and builds `targets`; returns the
    build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no somr source tree next to perfbench/ (looked in %s)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a", encoding="utf-8") as log:
        source = cache_value(out, "CMAKE_HOME_DIRECTORY")
        if source is not None and \
                os.path.realpath(source) != os.path.realpath(HERE):
            # Configured from another checkout: building there would
            # measure that checkout's code.
            print("perfbench: build dir was configured from %s; "
                  "reconfiguring for %s" % (source, HERE), file=log)
            os.remove(os.path.join(out, "CMakeCache.txt"))
            shutil.rmtree(os.path.join(out, "CMakeFiles"), ignore_errors=True)
            source = None
        if source is None:
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            log.flush()
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                fail("configure failed, see " + log_path)
        command = ["cmake", "--build", out, "-j", str(jobs()), "--target"]
        if subprocess.call(command + targets, stdout=log, stderr=log) != 0:
            fail("build failed, see " + log_path)
    return out


def commit():
    """The git commit when the checkout is a repository, otherwise a hash
    of the sources the benchmark builds."""
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if len(git) == 2 and os.path.samefile(git[0], ROOT):
            return git[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if "__pycache__" not in d for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(out, args, work_dir):
    report_path = os.path.join(work_dir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [os.path.join(out, "perfbench_workload"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--serve-bin=" + os.path.join(out, "somr", "tools", "somr_serve"),
               "--work-dir=" + work_dir, "--out=" + report_path,
               "--watchdog=%d" % WATCHDOG_S]
    # Own process group: a timeout kills the workload binary and its daemon.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=WATCHDOG_S + 5)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload binary timed out", 1)
    if not os.path.isfile(report_path):
        fail("workload binary exited %d without a report" % code, 1)
    with open(report_path, encoding="utf-8") as f:
        return json.load(f)


def print_human(record, benchmark):
    info = record["info"]
    stamp = record["stamp"]
    print("== perfbench %s seed=%d trace=%d ==" % (
        record["workload"], record["seed"], record["trace"]))
    print("stamp: commit=%s build=%s nproc=%d hardware_concurrency=%d "
          "loadavg=%s->%s host_probe_s=%.4f/%.4f" % (
              stamp["commit"], stamp["build_type"], stamp["nproc"],
              stamp["hardware_concurrency"], stamp["loadavg_before"],
              stamp["loadavg_after"], stamp["host_probe_before_s"],
              stamp["host_probe_after_s"]))
    attempted, failed = record["attempted"], record["failed"]
    print("failed_ratio: %d/%d = %.6f" % (
        failed, attempted, failed / attempted if attempted else 0.0))
    for error in record.get("errors", []):
        print("  error: " + error)
    for name, _ in results.declared_metrics(benchmark, record["trace"]):
        metric = record["metrics"].get(name)
        if metric is not None:
            print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    for key in sorted(info):
        if key.endswith(("_samples", "_rule_percentile")) or key == "passes":
            print("  [%s = %g]" % (key, info[key]))
    if record.get("layer_table"):
        print("layers (self time, traced pass):")
        print(record["layer_table"].rstrip())


def run(args):
    start = time.monotonic()
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    out = build(["perfbench_workload", "somr_serve"])
    work_dir = os.path.join(out, "work", "%s-trace%d" % (
        args.workload, args.trace))
    os.makedirs(work_dir, exist_ok=True)
    load_before = os.getloadavg()[0]
    report = run_workload(out, args, work_dir)
    info = report["info"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": {
            "commit": commit(),
            "build_type": cache_value(out, "CMAKE_BUILD_TYPE") or "unknown",
            "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": int(info.get("hardware_concurrency", 0)),
            "loadavg_before": round(load_before, 2),
            "loadavg_after": round(os.getloadavg()[0], 2),
            "host_probe_before_s": info.get("host_probe_before_s", 0.0),
            "host_probe_after_s": info.get("host_probe_after_s", 0.0),
            "wall_s": round(time.monotonic() - start, 3),
        },
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
        "info": info,
        "errors": report["errors"],
        "layer_table": report["layer_table"],
    }
    print_human(record, benchmark)
    try:
        line = results.final_line(record, benchmark, args.trace)
    except ValueError as error:
        fail(str(error), 1)
    results.write_record(args.results or os.path.join(out, "results.jsonl"),
                         record)
    sys.stdout.flush()
    print(line)
    return 0 if json.loads(line)["correct"] else 1


def compare(args):
    benchmark = load_benchmark()
    rows = results.compare(results.read_records(args.old),
                           results.read_records(args.new), benchmark)
    print(results.format_compare(rows))
    regressions = [r for r in rows if r["verdict"] == "regression"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print("%d metric(s) compared: %d regression(s), %d unresolved" % (
        len(rows), len(regressions), len(unresolved)))
    return 1 if regressions else 0


def selftest(_args):
    out = build(["perfbench_tests"])
    code = subprocess.call([os.path.join(out, "perfbench_tests")])
    code |= subprocess.call(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests")], env=dict(os.environ, PYTHONPATH=HERE))
    return code


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "selftest"):
        parser = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            parser.add_argument("old", help="result file of the parent")
            parser.add_argument("new", help="result file of the change")
            return compare(parser.parse_args(sys.argv[2:]))
        return selftest(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="result file to append the run to")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
