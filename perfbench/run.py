#!/usr/bin/env python3
"""End-to-end trusted-service benchmark launcher.

Run from the repository root:

  python3 perfbench/run.py --workload dir_latency --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --compare A.json B.json

The first form builds the benchmark into .bench_build (CMake, RelWithDebInfo;
a no-op when up to date), runs one workload and passes its report through.
The last stdout line is the result JSON.  Every run also writes a record with
the host facts and the result to .bench_build/results/.

--smoke runs every workload of BENCHMARK.json briefly, in both modes, and
checks that each metric BENCHMARK.json names is printed with its unit and
that no request failed.

--compare refuses two records whose host facts (build type, compiler,
nproc, crypto config, workload, mode, CPU model) differ, and otherwise prints
their metrics side by side.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 175
SMOKE_SECONDS = "2"
# Host facts two records must share to be comparable (seed and commit may differ).
COMPARABLE = ("build_type", "compiler", "nproc", "crypto", "n", "t", "workload",
              "trace", "threads", "cpu_model", "seconds")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step, its output to stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def source_digest():
    """SHA-256 over the benchmark's and the library's sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace):
    """Run the binary once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log("e2e_bench timed out")
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or ""))
        return 3, []
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def save_record(lines, result):
    host = {}
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    host["cpu_model"] = cpu_model()
    host["commit"] = commit()
    host["source_sha256"] = source_digest()
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    name = "%s-seed%s-trace%s-%d.json" % (host.get("workload"), host.get("seed"),
                                          host.get("trace"), int(time.time() * 1000))
    path = os.path.join(BUILD_DIR, "results", name)
    with open(path, "w") as f:
        json.dump({"host": host, "result": result}, f, indent=1)
    return path


def bench(args):
    if not build():
        log("build failed")
        return 1
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if not lines:
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a result: " + lines[-1])
        return code or 1
    path = save_record(lines, result)
    print("record " + path)
    print(lines[-1], flush=True)
    return code


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if not build():
        log("build failed")
        return 1
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_workload(workload["name"], 1, SMOKE_SECONDS, trace)
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:
                result = {}
            metrics = result.get("metrics", {})
            problems = []
            if code != 0 or not result.get("correct"):
                problems.append("exit %d, correct=%s" % (code, result.get("correct")))
            if result.get("failed", 1) != 0:
                problems.append("error_rate is not 0 (%s failed)" % result.get("failed"))
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append("missing " + metric["name"])
                elif got.get("unit") != metric["unit"]:
                    problems.append("%s unit %s != %s" % (metric["name"], got.get("unit"),
                                                          metric["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("unlisted metrics: " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-15s trace=%d %s" % (workload["name"], trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def compare(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    a, b = (r["host"] for r in records)
    differ = [k for k in COMPARABLE if a.get(k) != b.get(k)]
    if differ:
        for k in differ:
            log("refusing to compare: %s differs (%r vs %r)" % (k, a.get(k), b.get(k)))
        return 2
    ma, mb = (r["result"]["metrics"] for r in records)
    print("%-45s %16s %16s %9s" % ("metric", "A", "B", "B/A"))
    for name in sorted(set(ma) | set(mb)):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        ratio = "%.3f" % (vb / va) if va and vb is not None else "-"
        print("%-45s %16s %16s %9s" % (name, va, vb, ratio))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
