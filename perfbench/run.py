#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload bt49-fig5 --seed 1 --seconds 15 --trace 0

Builds perfbench/perfbench.exe and its speed probe from the checkout's
sources (release profile, build directory .bench_build/), runs the
workload in a fresh process of its own, checks its simulated observables against the stored
reference (perfbench/reference.json, default seed only), writes the full
record (machine, fingerprint, passes, metrics) to perfbench/out/, and
prints one JSON result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes the traced run's spans to perfbench/out/).
--write-reference re-records the default seed's digests for the
workload; use it only for a change that is meant to alter simulated
behaviour, and say so in the change.

Exits non-zero, printing no result, when the simulator sources are not
next to perfbench/ or the build or the workload fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PROFILE = "release"
DEFAULT_SEED = 1
WORKLOAD_TIMEOUT_S = 170
# Sources whose content the machine record hashes, so that two results
# can be tied to the code that produced them without a git checkout.
SOURCE_DIRS = ["lib", "perfbench"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the simulator sources (dune-project, lib/) are not next to perfbench/; "
             "run from the root of a checkout of the repository")
    dune = shutil.which("dune")
    cmd = [dune] if dune else (["opam", "exec", "--", "dune"] if shutil.which("opam") else None)
    if cmd is None:
        fail("dune is not on PATH")
    proc = subprocess.run(
        cmd + ["build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", PROFILE,
               "./perfbench/perfbench.exe", "./perfbench/probe.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out" and not d.startswith((".", "_")))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def run_workload(workload, seed, seconds, trace, spans):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    # Its own process group, so that a timeout also stops the explorer's
    # forked branches and the speed probes it may have running.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s did not finish within %d s" % (workload, WORKLOAD_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail("workload %s exited with code %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail("workload %s printed nothing" % workload)
    return json.loads(lines[-1])


def fingerprint(digests):
    return hashlib.md5("".join(digests).encode()).hexdigest()


def differing(ref, digests):
    """Digests that differ from the stored ones (all of them without a reference)."""
    if ref is None:
        return len(digests)
    want = ref["digests"]
    return (sum(1 for i, d in enumerate(digests) if i >= len(want) or want[i] != d)
            + max(0, len(want) - len(digests)))


def check_metrics(record, expected):
    """The metric names and units must be exactly BENCHMARK.json's."""
    got = record["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        fail("metric set differs from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m["unit"] != want[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (name, m["unit"], want[name]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s has no finite value" % name)


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if args.write_reference and args.seed != DEFAULT_SEED:
        fail("--write-reference records the default seed (%d) only" % DEFAULT_SEED)

    build()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(OUT, "spans-%s.json" % tag) if args.trace else None
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, spans)
    check_metrics(record, bench["per_layer" if args.trace else "end_to_end"])

    reference = load_json(REFERENCE) if os.path.isfile(REFERENCE) else {}
    digests = record["digests"]
    checks = {c["check"]: c["digests"] for c in record["checks"]}
    if args.write_reference:
        if record["failed"]:
            fail("refusing to record a reference from a run with failed checks")
        for name, ds in [(args.workload, digests)] + sorted(checks.items()):
            reference[name] = {"fingerprint": fingerprint(ds), "digests": ds}
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    # At the default seed every digest must equal the stored one. Every
    # pass reproduces the first (the workload counts any pass that does
    # not), so a first-pass digest that differs is wrong in every pass.
    ref_match = None
    failed = record["failed"]
    if args.seed == DEFAULT_SEED:
        ref_match = args.workload in reference
        failed += differing(reference.get(args.workload), digests) * record["passes"]
        for name, ds in checks.items():
            if name in reference:
                failed += differing(reference[name], ds)
                ref_match = ref_match and reference[name]["digests"] == ds
        ref_match = ref_match and reference[args.workload]["digests"] == digests
    failed = min(failed, record["attempted"])
    result = {
        "correct": failed == 0 and ref_match is not False,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }
    record["machine"].update({"commit": commit(), "source_sha256": source_digest(),
                              "build_profile": PROFILE})
    full = dict(record, reference_match=ref_match,
                wrong_runs=failed / record["attempted"], result=result)
    del full["digests"]
    full["checks"] = [{"check": c["check"], "fingerprint": fingerprint(c["digests"])}
                      for c in record["checks"]]
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(full, f, indent=1)
        f.write("\n")
    print("machine: %s" % json.dumps(record["machine"], sort_keys=True))
    print("fingerprint %s %s seed %d: %s" % (
        args.workload, record["fingerprint"], args.seed,
        {None: "no stored reference for this seed", True: "matches the reference",
         False: "DIFFERS from the reference"}[ref_match]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
