#!/usr/bin/env python3
"""Build and run the S4 benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, or "all" to run each in turn.

Builds perfbench/bin/s4bench.exe with dune (dune's shared cache off, so
nothing is written outside the tree), stamps the run with the source
revision, runs one workload pinned to one CPU (see pinned_cpu) and
passes its report through. The last
line of standard output is the run's JSON result. Before passing it on,
the metric names and units are checked against BENCHMARK.json. Exits
non-zero, without a result, when the build fails or the result does not
match.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/bin/s4bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "s4bench.exe")
RUN_TIMEOUT_S = 170



def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        dune + ["build", "--root", ROOT, TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=12"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_units(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        changed = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
             % (missing, extra, changed))


def option(argv, name, default):
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
    return default


def pinned_cpu():
    """Every run is pinned to one CPU. Unpinned, each hand-off between
    threads or domains (postmark-tcp's client and server threads,
    sync-array's router and its worker domains) waits for a cross-CPU
    wake-up; on a small virtual machine that costs more than the work
    handed off and varies from run to run with the host's other load,
    and the two-domain router path ran slower than on one pinned CPU."""
    return {sorted(os.sched_getaffinity(0))[-1]}


def run(argv):
    trace = option(argv, "--trace", "0")
    cpus = pinned_cpu()
    try:
        stamp = ["--rev", revision(), "--nproc", str(os.cpu_count()), "--cpus", str(len(cpus))]
        done = subprocess.run([EXE] + stamp + argv,
                              cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("benchmark exited %d without a result" % done.returncode)
    check_result(lines[-1], trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main(argv):
    build()
    if option(argv, "--workload", "") != "all":
        return run(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    at = argv.index("--workload") + 1
    return max(run(argv[:at] + [name] + argv[at + 1:]) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
