#!/usr/bin/env python3
"""End-to-end benchmark of MAO: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload corpus_align --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles MAO from ../src)
into $CARGO_TARGET_DIR, default .bench_build; later calls only re-check the
build. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (see README.md). The metrics are
checked against BENCHMARK.json and, for --trace 1, against
perfbench/layers.json: every per-layer metric a workload measures must be
printed, and the others read 0.

--selftest runs every workload at a tiny scale, applies those checks, and
checks that a deliberately corrupted output (one flipped byte) makes the
run report correct=false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: MAO sources (src/CMakeLists.txt) not found "
                 "next to perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary from the repository root, capturing its
    standard output; its standard error goes straight through."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    # A relative work directory keeps the maod socket path short.
    cmd = [binary, "--work-dir", os.path.relpath(work, ROOT)] + args
    return subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def measured_per_layer(layers, workload):
    """The per-layer metrics layers.json says the workload measures."""
    names = set()
    for layer in layers["layers"]:
        only_on = layer.get("only_on", {})
        for name in layer["metrics"]:
            if workload in only_on.get(name, layer["measured_on"]):
                names.add(name)
    return names


def complete(result, workload, trace, bench, layers):
    """Checks the binary's metrics against BENCHMARK.json and layers.json,
    puts them in BENCHMARK.json's order, and in a traced run gives every
    per-layer metric the workload does not measure the value 0. Returns
    the problems found."""
    declared = {m["name"]: m["unit"] for m in
                bench["end_to_end" if trace == "0" else "per_layer"]}
    measured = (set(declared) if trace == "0"
                else measured_per_layer(layers, workload))
    got = result["metrics"]
    problems = []
    for name, metric in got.items():
        if name not in declared:
            problems.append("%s is not declared in BENCHMARK.json" % name)
        elif metric["unit"] != declared[name]:
            problems.append("%s has unit %s, BENCHMARK.json says %s"
                            % (name, metric["unit"], declared[name]))
        elif name not in measured:
            problems.append("%s is printed, but layers.json does not list it "
                            "as measured on %s" % (name, workload))
    # A traced run that already failed a check may stop short of a layer.
    if trace == "0" or result["correct"]:
        for name in sorted(measured - set(got)):
            problems.append("%s measures %s but did not print it"
                            % (workload, name))
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in declared.items()}
    return problems


def run_workload(binary, workload, args, trace):
    """Runs one workload; returns (exit code, result or None, problems).
    Prints the run's human-readable lines."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    proc = run_binary(binary, ["--workload", workload, "--trace", trace]
                      + args)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if proc.returncode < 0:
            print("perfbench: the workload died from signal %d before it "
                  "could report" % -proc.returncode, file=sys.stderr)
            return 128 - proc.returncode, None, []
        return proc.returncode or 1, None, []
    result = json.loads(lines[-1])
    return 0, result, complete(result, workload, trace, bench, layers)


def selftest(binary):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []

    per_layer = {m["name"] for m in bench["per_layer"]}
    mapped = {m for layer in layers["layers"] for m in layer["metrics"]}
    for name in sorted(per_layer - mapped):
        problems.append("per-layer metric %s has no layer in layers.json"
                        % name)
    for name in sorted(mapped - per_layer):
        problems.append("layers.json names %s, which BENCHMARK.json lacks"
                        % name)
    for layer in layers["layers"]:
        for name in sorted(set(layer.get("only_on", {})) -
                           set(layer["metrics"])):
            problems.append("layers.json: only_on names %s outside its layer "
                            "%s" % (name, layer["layer"]))

    for workload in workloads:
        for trace in ("0", "1"):
            for corrupt in (False, True):
                if corrupt and trace == "1" and workload != "corpus_align":
                    continue  # One traced corruption case is enough.
                args = ["--seed", "7", "--seconds", "1", "--quick"]
                if corrupt:
                    args.append("--corrupt")
                label = "%s trace=%s%s" % (workload, trace,
                                           " corrupt" if corrupt else "")
                code, result, found = run_workload(binary, workload, args,
                                                   trace)
                if result is None:
                    problems.append("%s: exit %d, no result" % (label, code))
                    continue
                problems += ["%s: %s" % (label, p) for p in found]
                if corrupt:
                    if result["correct"] or result["failed"] == 0:
                        problems.append("%s: the flipped byte went unnoticed"
                                        % label)
                    else:
                        print("selftest: %s caught" % label, file=sys.stderr)
                    continue
                if not result["correct"] or result["failed"]:
                    problems.append("%s: %d of %d checks failed" % (
                        label, result["failed"], result["attempted"]))
                print("selftest: %s %s" % (label, "ok" if not found else
                                           "FAILED"), file=sys.stderr)
    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: %s" % ("passed" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.selftest:
        return selftest(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, result, problems = run_workload(
        binary, args.workload, ["--seed", args.seed, "--seconds",
                                args.seconds], args.trace)
    if result is None:
        return code
    if problems:
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
