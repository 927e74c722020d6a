"""Segment-and-evaluate benchmark over the seeded scenes in workloads.py.

    python3 perfbench/run.py --workload iso_clustered --seed 1 --seconds 52 --trace 0

A run sets its scene up, then repeats whole rounds of one ``segment``
call (single-threaded) and one ``evaluate`` call, at least two, for
about ``--seconds``: a round starts while it is expected to end less
than half a round past that. Every result is checked (checks.py).
Every round of an untraced run segments a new input of the scene
(``workloads.round_input``); a traced run repeats one input, and every
repeat must give the same result byte for byte. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of tracing.py with ``--trace 1``. A fuller
record, and with ``--trace 1`` the spans, go to perfbench/out/.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here: imports, scene, first weights

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback

from checks import check_result

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
OPS_PER_ROUND = 2  # one segment, one evaluate
MIN_ROUNDS = 2  # so every run's median spans two inputs, or a repeat in a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time the set-up alone and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def load_program():
    """Import nucsplit from this checkout's src/, never from anywhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import nucsplit
    except ImportError as exc:
        sys.exit(f"cannot import nucsplit from {SRC}: {exc}")
    if not os.path.abspath(nucsplit.__file__).startswith(SRC + os.sep):
        sys.exit(f"nucsplit was imported from {nucsplit.__file__}, not from {SRC}")
    return nucsplit


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Runner:
    """Runs rounds on inputs of one scene and checks their results."""

    def __init__(self, nucsplit, wl, seed, intensity, truth):
        self.ns = nucsplit
        self.wl = wl
        self.seed = seed
        self.scene = (intensity, truth)  # as generated; rounds see orient()ed copies
        self.current = None  # (round input, intensity, truth, partitioner config)
        self.failures = []
        self.failed_ops = 0
        self.seen = {}  # round input -> (labels digest, objects, report) of its first result
        self.pairings = []  # the benchmark's own pairing of every checked input

    def inputs(self, r):
        """(intensity, truth, partitioner config) of round input ``r``; one input is
        held at a time, so memory does not grow with the rounds."""
        if self.current is None or self.current[0] != r:
            from workloads import orient, round_input

            self.current = None
            k, part_seed = round_input(self.seed, r)
            intensity, truth = self.scene
            self.current = (r, orient(intensity, k), orient(truth, k),
                            self.ns.PartitionerConfig(seed=part_seed))
        return self.current[1:]

    def round(self, r):
        """One segment and one evaluate call on round input ``r``:
        (result, report, segment_s, evaluate_s), or None when either raised."""
        intensity, truth, part_cfg = self.inputs(r)
        try:
            t0 = time.perf_counter()
            result = self.ns.segment(intensity, self.wl.params, bin_cfg=self.wl.bin_cfg,
                                     edge_cfg=self.wl.edge_cfg, part_cfg=part_cfg, threads=1)
            t1 = time.perf_counter()
        except Exception:
            log(traceback.format_exc())
            self.failed_ops += OPS_PER_ROUND  # evaluate has nothing to evaluate
            return None
        try:
            report = self.ns.evaluate(truth, result.labels)
        except Exception:
            log(traceback.format_exc())
            self.failed_ops += 1
            return None
        return result, report, t1 - t0, time.perf_counter() - t1

    def check(self, r, result, report) -> None:
        """All checks on the first result of input ``r``; a repeat must equal it byte for byte."""
        got = (hashlib.sha256(result.labels.data.tobytes()).hexdigest(), result.objects, report)
        if r not in self.seen:
            intensity, truth, _ = self.inputs(r)
            mask, _ = self.ns.binarize(intensity, self.wl.bin_cfg)
            failures, pairing = check_result(self.wl, mask.data, truth.data, result, report)
            self.failures += failures
            self.pairings.append(pairing)
            self.seen[r] = got
        elif got != self.seen[r]:
            self.failures.append(f"a repeated round on input {r} gave a different result")


def run_rounds(runner, seconds, before_round=None, min_rounds=MIN_ROUNDS, repeat=None):
    """Whole rounds while the next is expected to end less than half a round past
    ``seconds``, so runs last ``seconds`` on average; at least ``min_rounds``.
    Round ``i`` runs on input ``i``, or on input ``repeat`` in every round if given.
    Returns (rounds, segment times, evaluate times) of the rounds that completed."""
    seg, ev = [], []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        if before_round is not None:
            before_round(rounds)
        r = rounds if repeat is None else repeat
        out = runner.round(r)
        if out is not None:
            result, report, seg_s, ev_s = out
            runner.check(r, result, report)
            seg.append(seg_s)
            ev.append(ev_s)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= min_rounds and elapsed + elapsed / rounds / 2 > seconds:
            return rounds, seg, ev


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, runner, setup_s, record):
    # setup_s is the median of this process's set-up and two fresh ones, taken
    # after the first and after the last round: the host's speed drifts over
    # tens of seconds, and samples spread over the run average that drift
    # where back-to-back samples share it
    setups = [setup_s]
    rounds, seg, ev = run_rounds(runner, args.seconds,
                                 lambda i: setups.append(setup_sample(args)) if i == 1 else None)
    setups.append(setup_sample(args))
    if not seg:
        sys.exit("no round completed; nothing to report")
    record.update(setup_samples=setups, segment_samples=seg, evaluate_samples=ev)
    return rounds, {
        "setup_s": metric(statistics.median(setups), "s"),
        "segment_s": metric(statistics.median(seg), "s"),
        "evaluate_s": metric(statistics.median(ev), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "matched": metric(statistics.median(p.matched for p in runner.pairings), "count"),
    }


def per_layer(args, runner, tracer, record):
    """An untraced reference round, then traced rounds; per-layer medians."""
    from tracing import UNITS

    tracer.active = False
    setup_layers = tracer.setup_metrics()
    phases = [("setup", tracer.spans)]
    tracer.reset()
    t0 = time.perf_counter()
    ref = runner.round(0)
    if ref is None:
        sys.exit("the untraced reference round failed; nothing to compare")
    runner.check(0, *ref[:2])
    per_round = []

    def collect():
        if tracer.spans:
            per_round.append(tracer.phase_metrics())
            phases.append(("round", tracer.spans))
        tracer.reset()

    def next_round(_):
        collect()
        tracer.active = True

    rounds, seg, _ = run_rounds(runner, args.seconds - (time.perf_counter() - t0), next_round, 1, repeat=0)
    tracer.active = False
    collect()
    tracer.uninstall()
    runner.failures += tracer.failures
    if not per_round:
        sys.exit("no traced round completed; nothing to report")
    layers = {m: statistics.median(r[m] for r in per_round) for m in per_round[0]}
    layers.update(setup_layers)
    if seg:
        log(f"tracing overhead: traced segment {statistics.median(seg):.3f} s, "
            f"untraced {ref[2]:.3f} s, difference {statistics.median(seg) - ref[2]:+.3f} s")
    record.update(untraced_segment_s=ref[2], traced_segment_samples=seg)
    spans = [dict(phase=ph, name=s[0], start=s[1] - T_START, end=s[2] - T_START, parent=s[3])
             for ph, sp in phases for s in sp]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as f:
        json.dump(spans, f)
    return rounds + 1, {m: metric(layers[m], unit) for m, unit in UNITS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    nucsplit = load_program()
    from workloads import WORKLOADS, round_input

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    intensity, truth = nucsplit.generate(wl.scene)
    nucsplit.cut_metric_weights(intensity.spacing)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(nucsplit, wl, args.seed, intensity, truth)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    if tracer is None:
        rounds, metrics = end_to_end(args, runner, setup_s, record)
    else:
        rounds, metrics = per_layer(args, runner, tracer, record)

    for msg in runner.failures:
        log(f"CHECK FAILED: {msg}")
    out = {
        "correct": not runner.failures,
        "attempted": OPS_PER_ROUND * rounds,
        "failed": runner.failed_ops,
        "metrics": metrics,
    }
    record.update(rounds=rounds, inputs=[round_input(args.seed, r) for r in runner.seen],
                  report=next(iter(runner.seen.values()))[2].to_dict(),
                  pairings=[vars(p) for p in runner.pairings])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({**record, **out}, f, indent=1)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
