#!/usr/bin/env python3
"""Golden gate for modeled outputs.

Runs the table-only pass (--benchmark_filter=XXX) of every E-table bench,
keeping both its printed tables and its BENCH_<name>.json (which holds the
modeled times to the picosecond), and a fixed matrix of `hardsnap run`,
`hardsnap fuzz` and `hardsnap exec` commands. It strips the few fields that
measure host time and compares the rest byte for byte with the files in
this directory.

    golden.py --build BUILD_DIR            check (exit 1 on any difference)
    golden.py --build BUILD_DIR --regen    rewrite the golden files

A change that means to move the model regenerates the files and shows
the diff; any other change must leave them untouched.
"""

import argparse
import concurrent.futures
import difflib
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIRMWARE = "examples/firmware/vulnerable_parser.s"
EXEC_TOUR = "tests/golden/exec_tour.s"

# bench_checkpoint and bench_remote_target print wall-clock tables only.
BENCHES = [
    "snapshot_latency", "io_forwarding", "scanchain_overhead",
    "symex_speedup", "consistency", "state_transfer", "fuzzing", "replay",
    "snapshot_delta", "parallel_fuzzing", "fault_tolerance",
]


def cli_cases():
    """(name, argv after `hardsnap`) for the CLI matrix."""
    cases = []
    for target in ("sim", "fpga", "both"):
        for search in ("bfs", "dfs"):
            argv = ["run", FIRMWARE, "--symbolic-mem=0x10000000:8",
                    f"--target={target}", f"--search={search}"]
            cases.append((f"run {target} {search}", argv))
            cases.append((f"run {target} {search} --json", argv + ["--json"]))
    for workers in (1, 2, 4):
        for seed in (1, 2, 2026):
            cases.append((f"fuzz workers={workers} seed={seed}", [
                "fuzz", FIRMWARE, f"--workers={workers}", f"--seed={seed}"]))
    cases.append(("fuzz fpga", ["fuzz", FIRMWARE, "--target=fpga"]))
    for target in ("sim", "fpga"):
        for firmware in (FIRMWARE, EXEC_TOUR):
            name = os.path.basename(firmware)
            cases.append((f"exec {name} {target}",
                          ["exec", firmware, f"--target={target}"]))
        cases.append((f"exec {os.path.basename(EXEC_TOUR)} {target} budget",
                      ["exec", EXEC_TOUR, f"--target={target}",
                       "--max-instr=500"]))
        cases.append((f"run {os.path.basename(EXEC_TOUR)} {target} --json",
                      ["run", EXEC_TOUR, f"--target={target}", "--json"]))
    return cases


# --- host-time stripping ----------------------------------------------------

WALL_COLUMN = re.compile(r"\s+[0-9.]+$")
FIRST_NUMBER = re.compile(r"\s+-?[0-9.]+")
HOST_KEYS = re.compile(
    r'("[^"]*(wall_seconds|_ns_per_op|framing\.overhead_pct)": )[^,\n]+')


def strip_bench(text):
    """Masks E10's and E11b's wall-s column and E11a's ns/op rows."""
    out, table = [], ""
    for line in text.splitlines():
        if not line.strip():
            table = ""
        elif re.match(r"E[0-9]+[a-z]?:", line):
            table = line.split(":", 1)[0]
        elif table in ("E10", "E11b") and line[:1].isdigit():
            line = WALL_COLUMN.sub(" <wall>", line)
        elif table == "E11a" and not line.startswith(("path", "modeled")):
            line = FIRST_NUMBER.sub(" <ns>", line, count=1)
        out.append(line)
    return "\n".join(out) + "\n"


def strip_cli(text):
    return re.sub(r" \| wall [0-9.]+s$", "", text, flags=re.M)


# --- running ------------------------------------------------------------------

def run(argv, cwd):
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=600)
    return f"[exit {proc.returncode}]\n{proc.stdout}"


def bench_output(build, name, tmp):
    cwd = os.path.join(tmp, name)
    os.makedirs(cwd)
    exe = os.path.join(build, "bench", "bench_" + name)
    tables = strip_bench(run([exe, "--benchmark_filter=XXX"], cwd))
    json_path = os.path.join(cwd, f"BENCH_{name}.json")
    metrics = open(json_path).read() if os.path.exists(json_path) else ""
    metrics = HOST_KEYS.sub(r"\1<host>", metrics)
    return f"{tables}### BENCH_{name}.json\n{metrics}"


def cli_output(build, tmp):
    exe = os.path.join(build, "tools", "hardsnap")
    cases = cli_cases()
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(lambda c: run([exe] + c[1], REPO), cases))
    text = ""
    for (name, _), out in zip(cases, outs):
        text += f"### {name}\n{strip_cli(out)}"

    # A persisted 200-exec leg resumed to 600 execs.
    state = os.path.join(tmp, "persist")
    base = [exe, "fuzz", FIRMWARE, "--workers=2", "--seed=2026"]
    for name, flags in (("persist", ["--execs=200", f"--persist={state}"]),
                        ("resume", ["--execs=600", f"--resume={state}"])):
        out = run(base + flags, REPO).replace(state, "<DIR>")
        text += f"### fuzz {name} workers=2 seed=2026\n{strip_cli(out)}"
    return text


def collect(build):
    with tempfile.TemporaryDirectory(prefix="hs-golden-") as tmp:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            benches = {b: pool.submit(bench_output, build, b, tmp)
                       for b in BENCHES}
            files = {f"bench_{b}.txt": f.result() for b, f in benches.items()}
        files["cli.txt"] = cli_output(build, tmp)
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, help="CMake build dir")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the golden files")
    args = parser.parse_args()

    failed = []
    for name, actual in collect(os.path.abspath(args.build)).items():
        path = os.path.join(HERE, name)
        if args.regen:
            with open(path, "w") as f:
                f.write(actual)
            continue
        expected = open(path).read() if os.path.exists(path) else ""
        if actual != expected:
            failed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(True), actual.splitlines(True),
                "golden/" + name, "actual/" + name))
    if args.regen:
        print(f"regenerated golden files in {HERE}")
    elif failed:
        print("golden mismatch: " + ", ".join(failed))
        return 1
    else:
        print("golden outputs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
