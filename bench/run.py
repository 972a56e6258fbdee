"""Benchmark entry point.

    python3 bench/run.py --workload vgg16-joint --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. One workload runs per process; with
``--workload all`` each workload runs in a fresh child process. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``). The lines before it give the
same metrics as a table and a host reference timing taken before and
after the workload. ``--smoke`` runs every workload's checks at tiny
sizes in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("vgg16-joint", "mobilenet-finetune", "toy-pipeline")

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_images_per_s": "1/s",
    "realised_speedup": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.batch_ms": "ms",
    "hierarchy.forward_all_ms": "ms",
    "hierarchy.forward_frozen_ms": "ms",
    "hierarchy.route_gamma_gradients_ms": "ms",
    "hierarchy.refresh_masks_ms": "ms",
    "hierarchy.forward_slot_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.conv2d_fwd_ms": "ms",
    "autodiff.conv2d_fwd_gmac": "GMAC",
    "autodiff.conv2d_fwd_gmac_per_s": "GMAC/s",
    "autodiff.dwconv_fwd_ms": "ms",
    "autodiff.dwconv_fwd_gmac_per_s": "GMAC/s",
    "autodiff.batch_norm_ms": "ms",
    "autodiff.max_pool_ms": "ms",
    "autodiff.relu_ms": "ms",
    "masking.surrogate_conv_gmac": "GMAC",
    "masking.surrogate_ms": "ms",
    "masking.build_mask_ms": "ms",
    "distill.slot_loss_ms": "ms",
    "optim.weight_step_ms": "ms",
    "optim.score_step_ms": "ms",
    "arch.count_stats_ms": "ms",
    "arch.nominal_speedup": "ratio",
    "checkpoint.save_ms": "ms",
    "checkpoint.size_bytes": "bytes",
    "training.step_ms": "ms",
    "training.step_self_ms": "ms",
    "trace.overhead_ms": "ms",
}

# per workload: full size, then smoke size. setups and round_setups are
# the set-up samples taken before the warm-up and after every round; the
# toy takes one from each round's `train` command instead.
SIZES = {
    "vgg16-joint": ({"batch": 32, "eval_pairs": 6, "setups": 3, "round_setups": 1},
                    {"batch": 2, "eval_pairs": 1, "setups": 1, "round_setups": 1}),
    "mobilenet-finetune": ({"batch": 32, "eval_pairs": 4, "setups": 7, "round_setups": 3},
                           {"batch": 2, "eval_pairs": 1, "setups": 1, "round_setups": 1}),
    "toy-pipeline": ({"samples": 256, "epochs": (2, 2, 1), "eval_pairs": 64},
                     {"samples": 128, "epochs": (2, 2, 1), "eval_pairs": 1}),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="cascadeprune benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads, capped at the CPU count (default: 1)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: checks only, figures meaningless")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh child process; the last line maps
    workload names to their results."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def host_reference_ms() -> float:
    """Median time of a fixed batch of 20 float32 GEMMs of size 384."""
    import time

    import numpy as np

    a = np.random.default_rng(0).standard_normal((384, 384)).astype(np.float32)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def make_workload(name: str, seed: int, smoke: bool):
    from workloads import OUT_DIR, CascadeWorkload, ToyWorkload

    size = SIZES[name][1 if smoke else 0]
    if name == "vgg16-joint":
        return CascadeWorkload(name, "vgg16_cifar10", "joint", seed, **size)
    if name == "mobilenet-finetune":
        return CascadeWorkload(name, "mobilenetv1_cifar100", "finetune", seed, **size)
    return ToyWorkload(seed, out_dir=os.path.join(OUT_DIR, f"{name}-{os.getpid()}"),
                       **size)


def run_one(args) -> dict:
    import resource
    import shutil
    import time

    import numpy as np

    import tracing
    from workloads import OUT_DIR, BenchError, Ops, Tally

    wl = make_workload(args.workload, args.seed, args.smoke)
    ref_before = host_reference_ms()
    ops, tally = Ops(), Tally()
    st = wl.prepare(tally)
    tracer = tracing.Tracer() if args.trace else None
    try:
        # the warm-up's operations are not counted, so that every run's
        # count is whole rounds; a failed one stops the run
        warm = Ops()
        wl.warm_up(st, warm)
        if warm.failed:
            raise BenchError("warm-up failed: " + "; ".join(warm.unexpected + warm.known))
        start, rounds = time.perf_counter(), 0
        while True:
            traced = tracer is not None and rounds % 2 == 0
            if traced:
                tracer.install()
            try:
                wl.round(st, ops, tally, traced)
            finally:
                if traced:
                    tracer.remove()
            wl.after_round(st, ops, tally)
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop at the round boundary nearest to the run's length
            if rounds >= (2 if tracer else 1) \
                    and elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
        wl.finish(st, ops)
        summary = wl.summary(st)
    finally:
        if getattr(wl, "out_dir", None):
            shutil.rmtree(wl.out_dir, ignore_errors=True)
    ref_after = host_reference_ms()

    if tracer is None:
        metrics = {
            "setup_s": float(np.median(tally.setup_s)),
            "train_samples_per_s": tally.train_samples / tally.train_s,
            "eval_images_per_s": tally.student_images / tally.student_s,
            "realised_speedup": tally.top_s / tally.student_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["arch.nominal_speedup"] = summary["nominal_speedup"]
        traced, plain = tally.step_s[True], tally.step_s[False]
        metrics["trace.overhead_ms"] = 1e3 * (float(np.mean(traced)) - float(np.mean(plain)))
        units = PER_LAYER
        trace_file = os.path.join(OUT_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracing.write_spans(tracer.spans, trace_file)

    for name, unit in units.items():
        print(f"{name:<40}{metrics[name]:>16.6g} {unit}")
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "timed_s": round(elapsed, 3), "host_ref_ms": {"before": round(ref_before, 3),
                                                          "after": round(ref_after, 3)}}
    if tracer is not None:
        info["trace_file"] = os.path.relpath(trace_file)
    if "student_top1" in summary:
        info["student_top1"] = summary["student_top1"]
    if ops.known:
        info["known_faults"] = sorted(set(ops.known))
    if ops.unexpected:
        info["failures"] = ops.unexpected[:10]
    print(json.dumps(info))
    return {"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cascadeprune", "__init__.py")):
        print("error: run from the root of a cascadeprune checkout "
              "(src/cascadeprune not found)", file=sys.stderr)
        return 2
    threads = str(max(1, min(args.blas_threads, os.cpu_count() or 1)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # read once, when numpy loads BLAS
    sys.path.insert(0, os.path.join(root, "src"))
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
