#!/usr/bin/env python3
"""Host-time benchmark of the incidental-computing simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]
    python3 perfbench/run.py --pin FIRST-LAST

The first form builds the simulator and the benchmark from source into
.bench_build/perfbench (Release), runs one workload and prints, as its
last stdout line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1. The lines before it
record the host facts and the output digest. The exit status is nonzero
when any output check failed. See perfbench/README.md for every metric.

--self-test checks the benchmark itself on every workload. --pin
recomputes the pinned digests of perfbench/pins.json for a seed range;
every pinned digest is also checked against the reference engine.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("outage_dense", "steady_power", "campaign_grid",
             "outage_dense_arena")

# The fleet comparison of the traced campaign run: the Fig. 28 kernels
# on all five profiles, one variant, this many simulated seconds a job.
FLEET_SECONDS = 1
PAPER_FP_GAIN = 4.28


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configure (once) and build perfbench and nvpsim. Exits nonzero
    when the sources are missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the simulator sources (src/) are not next to "
            "perfbench/; run from a full checkout")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(build_threads()), "--target", "perfbench",
                    "nvpsim"], check=True, stdout=sys.stderr)


def cache_entry(name):
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(name + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host_facts():
    """nproc, compiler and version, build type and flags, CPU model."""
    compiler = cache_entry("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        version = out.splitlines()[0] if out else ""
    build_type = cache_entry("CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cache_entry("CMAKE_CXX_FLAGS"),
        cache_entry("CMAKE_CXX_FLAGS_" + build_type.upper())]))
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "compiler": version or compiler,
        "build_type": build_type,
        "cxx_flags": flags,
        "cpu_model": cpu,
    }


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_perfbench(args):
    """Run the benchmark binary; return (exit code, parsed last line)."""
    proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench")] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def fleet_compare(seed):
    """Time `nvpsim sweep --jobs N` and `nvpsim serve --workers N` on one
    campaign file. Returns (metrics, attempted, failed)."""
    nvpsim = os.path.join(BUILD_DIR, "tools", "nvpsim")
    n = str(build_threads())
    work = os.path.join(TMP_DIR, "fleet-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # Relative paths inside `work` keep the Unix socket path short.
        with open(os.path.join(work, "campaign.json"), "w") as f:
            json.dump({"kernels": "all", "profiles": "all",
                       "seconds": FLEET_SECONDS, "seed": seed}, f)
        runs = {
            "sweep": [nvpsim, "sweep", "--kernels", "all", "--profiles",
                      "all", "--seconds", str(FLEET_SECONDS), "--seed",
                      str(seed), "--jobs", n, "--out", "sweep.csv"],
            "serve": [nvpsim, "serve", "campaign.json", "--workers", n,
                      "--fleet-dir", "fleet", "--out", "serve.csv"],
        }
        seconds = {}
        failed = 0
        for name, cmd in runs.items():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            seconds[name] = time.perf_counter() - t0
            failed += proc.returncode != 0
        with open(os.path.join(work, "sweep.csv"), "rb") as a, \
                open(os.path.join(work, "serve.csv"), "rb") as b:
            if a.read() != b.read():
                log("perfbench: serve output differs from sweep output")
                failed = 2
    except OSError as e:
        log("perfbench: fleet comparison failed: %s" % e)
        return zero_fleet(), 2, 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "fleet.serve_s": {"value": seconds["serve"], "unit": "s"},
        "fleet.sweep_s": {"value": seconds["sweep"], "unit": "s"},
        "fleet.serve_over_sweep": {
            "value": seconds["serve"] / seconds["sweep"], "unit": "ratio"},
    }, 2, failed


def zero_fleet():
    return {name: {"value": 0.0, "unit": unit} for name, unit in
            (("fleet.serve_s", "s"), ("fleet.sweep_s", "s"),
             ("fleet.serve_over_sweep", "ratio"))}


def run_workload(opts):
    build()
    print("host: " + json.dumps(host_facts()))
    os.makedirs(TMP_DIR, exist_ok=True)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--tmp", TMP_DIR]
    pinned = load_pins().get(opts.workload, {}).get(str(opts.seed))
    args += ["--expect", pinned] if pinned else ["--crosscheck"]
    code, result = run_perfbench(args)
    if result is None:
        log("perfbench: the benchmark printed no result")
        return 1

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    correct = result["correct"] and code == 0
    print("digest: %s %s seed %d (%s)" % (
        result["digest"], opts.workload, opts.seed,
        "pinned" if pinned else "not pinned; checked against the "
        "reference engine"))
    if "fig28_mean_fp_gain" in result:
        print("fig28: mean FP gain %.3fx over 10 kernels x 5 profiles "
              "(paper: %.2fx)" % (result["fig28_mean_fp_gain"],
                                  PAPER_FP_GAIN))
    if opts.trace:
        if opts.workload == "campaign_grid":
            fleet, fleet_attempted, fleet_failed = fleet_compare(opts.seed)
            attempted += fleet_attempted
            failed += fleet_failed
            correct = correct and fleet_failed == 0
            metrics.update(fleet)
        else:
            metrics.update(zero_fleet())
        metrics["fail_frac"]["value"] = failed / max(1, attempted)

    names = metric_names(opts.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        log("perfbench: metrics missing from the result: %s" % missing)
        return 1
    print("extra: " + json.dumps(
        {k: v for k, v in metrics.items() if k not in names}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: metrics[n] for n in names}}))
    return 0 if correct else 1


def self_test(seed):
    build()
    os.makedirs(TMP_DIR, exist_ok=True)
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench"),
                               "--self-test", "--workload", w, "--seed",
                               str(seed), "--tmp", TMP_DIR])
        ok = ok and proc.returncode == 0
    print("self-test: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def pin(seed_range):
    """Recompute pins.json entries for seeds FIRST..LAST inclusive."""
    first, last = (int(x) for x in seed_range.split("-"))
    build()
    os.makedirs(TMP_DIR, exist_ok=True)
    pins = load_pins() if os.path.exists(PINS) else {}
    for w in WORKLOADS:
        for seed in range(first, last + 1):
            code, result = run_perfbench([
                "--workload", w, "--seed", str(seed), "--seconds", "1",
                "--trace", "0", "--crosscheck", "--tmp", TMP_DIR])
            if code != 0 or not result or not result["correct"]:
                log("perfbench: %s seed %d failed its checks" % (w, seed))
                return 1
            pins.setdefault(w, {})[str(seed)] = result["digest"]
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--pin", metavar="FIRST-LAST")
    opts = p.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if opts.self_test:
        return self_test(opts.seed)
    if opts.pin:
        return pin(opts.pin)
    if not opts.workload:
        p.error("--workload is required")
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
