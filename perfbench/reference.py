"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py                      # 10 seeds, every workload
    python3 perfbench/reference.py --workloads aniso_slab16 --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed and workload with ``--trace 0`` and
once per workload with ``--trace 1``, one run at a time, with the run
length from BENCHMARK.json. Prints, per workload and metric, the median,
the quartiles and the spread (quartile distance over median), and writes
every run's result line to perfbench/out/reference.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = p.parse_args()

    out = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds, "runs": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(json.dumps(out["machine"]))
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(wl, seed, args.seconds, 0)
            print(wl, seed, json.dumps(res), flush=True)
            runs.append(res)
        traced = None if args.no_trace else run_once(wl, args.seeds[0], args.seconds, 1)
        out["runs"][wl] = {"untraced": runs, "traced": traced}
        print(f"\n{wl}: {len(runs)} runs, {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print("| metric | median | q1 | q3 | spread | bound |\n| --- | --- | --- | --- | --- | --- |")
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in runs])
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {name} ({unit}) | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                  f"{100 * s['spread']:.1f}% | {100 * bounds[name]:g}% |")
        if traced is not None:
            with open(os.path.join(HERE, "out", f"result-{wl}-seed{args.seeds[0]}-trace1.json")) as f:
                rec = json.load(f)
            traced_s = statistics.median(rec["traced_segment_samples"])
            print(f"\ntraced, seed {args.seeds[0]}: segment {traced_s:.3f} s traced, "
                  f"{rec['untraced_segment_s']:.3f} s untraced in the same run")
            for name, m in traced["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w") as f:
        json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
