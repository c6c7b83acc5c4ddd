#!/usr/bin/env python3
"""Steadiness record for the benchmark.

Runs each workload ten times, with seeds 1 to 10, at BENCHMARK.json's
run_seconds, and reports for every end-to-end metric its median,
quartiles and spread (the distance between the first and third quartile,
as statistics.quantiles(values, n=4) gives them, as a share of the
median) next to the metric's bound. It then reruns seed 1 once per
workload and checks that the deterministic outputs (the run's
"fingerprint:" line) are identical.

The exit status is 1 if a run fails its correctness gate, if the
deterministic outputs differ, or if a spread other than setup_s's exceeds
its bound. The target of a spread below a third of its bound is reported,
setup_s included, but not enforced: every metric above it is listed under
"Above the target".

With --out, the generated text replaces what lies between the two
"steadiness.py" marker comments of that file, so the record's hand-written
prose stays and its tables come only from this script.

Run from the repository root:

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.md
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

RUNS = 10
FIRST_SEED = 1
BEGIN = "<!-- begin: generated by steadiness.py -->"
END = "<!-- end: generated by steadiness.py -->"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def go_version():
    try:
        out = subprocess.run(["go", "version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    fingerprint = next((l for l in lines if l.startswith("fingerprint:")), "")
    gomaxprocs = next((l.split("GOMAXPROCS ")[1].split()[0] for l in lines if "GOMAXPROCS" in l), "?")
    return result, fingerprint, gomaxprocs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default every workload")
    ap.add_argument("--out", default="", help="record file whose generated section to replace")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    out = []
    above = []
    gomaxprocs = "?"
    failures = 0
    for w in names:
        values = {}
        fps = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result, fp, gomaxprocs = run_once(bench, w, seed)
            if not result["correct"]:
                failures += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            fps.append(fp)
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())), flush=True)
        _, again, _ = run_once(bench, w, FIRST_SEED)
        same = again == fps[0]
        if not same:
            failures += 1
        out.append(f"### {w}\n")
        out.append(f"{RUNS} runs, seeds {FIRST_SEED}..{FIRST_SEED + RUNS - 1}, {seconds} s each; "
                   f"seed {FIRST_SEED} rerun: deterministic outputs {'identical' if same else 'DIFFER'}.\n")
        out.append("| metric | unit | median | q1 | q3 | spread | bound | spread / bound |")
        out.append("|---|---|---|---|---|---|---|---|")
        for name in [m["name"] for m in bench["end_to_end"]]:
            xs = values.get(name, [])
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds[name]["bound"]
            verdict = f"{spread / b:.2f}"
            if name != "setup_s" and spread > b:
                failures += 1
                verdict += " OVER"
            if spread > b / 3:
                above.append(f"- {w} `{name}`: spread {100 * spread:.2f}%, {spread / b:.2f} of its bound.")
            out.append(f"| {name} | {bounds[name]['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                       f"{100 * spread:.2f}% | {100 * b:.0f}% | {verdict} |")
        out.append("")

    out.append("### Above the target\n")
    out.append("Spreads above a third of their bound (reported, not enforced):\n")
    out += above or ["- none"]

    header = [
        f"Machine: nproc {os.cpu_count()}, GOMAXPROCS {gomaxprocs}, {go_version()}, "
        f"CPU {cpu_model()}.",
        "",
    ]
    text = "\n".join(header + out)
    print(text)
    if args.out:
        with open(args.out) as f:
            record = f.read()
        head, sep, rest = record.partition(BEGIN)
        _, sep2, tail = rest.partition(END)
        if not sep or not sep2:
            raise SystemExit(f"{args.out}: marker comments not found")
        with open(args.out, "w") as f:
            f.write(head + BEGIN + "\n\n" + text + "\n\n" + END + tail)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
