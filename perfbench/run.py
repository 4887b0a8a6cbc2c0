#!/usr/bin/env python3
"""The repository benchmark: simulator speed end to end and per layer.

    python3 perfbench/run.py --workload spec --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It builds perfbench_sim (an optimized
CMake build of perfbench/ and ../src) under $CARGO_TARGET_DIR, default
.bench_build; generates the workload's inputs from --seed as a fastd job
document; runs perfbench_sim on them; and prints labelled results
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run.  Workloads, metrics and the layer-to-metric
mapping are described in perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import random
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
PR_SET_CHILD_SUBREAPER = 36  # linux/prctl.h
# perfbench_sim's set-up, gate and probes take well under this beyond the
# timed window; a run that takes longer has hung.
RUN_MARGIN_S = 140

WORKLOADS = ("spec", "os-idle", "smp-service", "sweep")

# The metric names and units the benchmark reports.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
# Printed as labelled lines only: self-check inputs and the reference.
LAYER_EXTRA = ("fast.tick_coverage", "tm.replay_committed_frac",
               "baseline.mono_kips")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def scaled(rng, base):
    """A run length within 5% of `base`: seeds vary inputs, not cost."""
    return max(1, round(base * rng.uniform(0.95, 1.05)))


def make_jobs(workload, seed):
    """The workload's fastd job document for this seed."""
    rng = random.Random(seed)
    if workload == "spec":
        bases = (("164.gzip", 1200), ("181.mcf", 360),
                 ("186.crafty", 900), ("Sweep3D", 300))
        points = [{"workload": w, "scale": scaled(rng, s)} for w, s in bases]
        return {"batch": workload, "defaults": {"checkpoint_every": 0},
                "points": points}
    if workload == "os-idle":
        timer = scaled(rng, 4000)
        points = [{"workload": w, "scale": 1, "timer_interval": timer}
                  for w in ("Linux-2.4", "Linux-2.6", "WindowsXP")]
        points.append({"workload": "253.perlbmk", "scale": scaled(rng, 100),
                       "timer_interval": timer})
        return {"batch": workload, "defaults": {"checkpoint_every": 0},
                "points": points}
    if workload == "smp-service":
        return {"batch": workload, "defaults": {"checkpoint_every": 0},
                "points": [{"workload": "service", "num_cores": 4,
                            "scale": scaled(rng, 600)}]}
    # sweep: 4 images x 3 knob sets; the 12 knob sets are every
    # combination below, dealt to the images in a seeded order.  A third
    # of the spec scales: a batch takes 2-3.5 s, so the samplers time
    # about 30 of them in a 20 s window, and every point still crosses
    # the default checkpoint interval.
    bases = (("164.gzip", 400), ("181.mcf", 125), ("186.crafty", 300),
             ("Sweep3D", 100))
    knobs = [(w, bp, m) for w in (2, 4) for bp in ("twobit", "gshare")
             for m in (0, 4, 8)]
    rng.shuffle(knobs)
    points = []
    for i, (name, base) in enumerate(bases):
        scale = scaled(rng, base)
        for j, (width, bp, mshrs) in enumerate(knobs[3 * i:3 * i + 3]):
            points.append({"workload": name, "scale": scale,
                           "issue_width": width, "bp": bp, "mshrs": mshrs,
                           "label": f"p{3 * i + j:02d}-{name}"})
    return {"batch": workload, "points": points}


def build(build_root):
    """Configure (once) and build perfbench_sim; returns its path."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        raise RuntimeError(f"simulator sources not found at {SRC}")
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench_sim"), build_type(bdir)


def build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def end_to_end(raw):
    """End-to-end metrics from the untraced rounds."""
    points = raw["points"]
    secs = sum(stats.best_times(raw["rounds"]))
    insts = sum(p["insts"] for p in points)
    cycles = sum(p["cycles"] for p in points)
    ops = sum(p["ops"] for p in points)
    return {
        "kips": insts / 1e3 / secs,
        "kcycles_per_s": cycles / 1e3 / secs,
        "ops_per_s": ops / secs,
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def service_layers(workload, raw):
    """service.point_inproc_s, the median in-process executePoint time of
    a point, and on sweep service.overhead_frac, 1 - the summed in-process
    point times / (median batch wall x workers)."""
    inproc = raw["inproc_s"]
    overhead = 0.0
    if workload == "sweep":
        wall = stats.median([r[0] for r in raw["rounds"]])
        overhead = 1.0 - sum(inproc) / (wall * raw["sweep_workers"])
    return {"service.point_inproc_s": stats.median(inproc),
            "service.overhead_frac": overhead}


def self_check(workload, layers):
    """Traced-run self-checks; returns a list of failures."""
    bad = []
    if workload in ("spec", "os-idle") and layers["fast.tick_coverage"] < 0.95:
        bad.append("tick spans cover %.3f of the traced rounds' wall time "
                   "(< 0.95)" % layers["fast.tick_coverage"])
    if layers["tm.replay_committed_frac"] != 1.0:
        bad.append("TM replay committed %.4f of its trace"
                   % layers["tm.replay_committed_frac"])
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary, btype = build(build_root)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    work = os.path.abspath(os.path.join(build_root, "work",
                                        f"{args.workload}-{args.seed}"))
    os.makedirs(work, exist_ok=True)
    jobs = os.path.join(work, "jobs.json")
    with open(jobs, "w") as f:
        json.dump(make_jobs(args.workload, args.seed), f, indent=1)

    result = os.path.join(work, "result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [binary, "--workload", args.workload, "--jobs", jobs,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", result]
    # Its own process group: on a timeout the sampler processes and fastd
    # workers it started are stopped with it, and, re-parented here as
    # orphans, reaped.
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
        log("perfbench: perfbench_sim timed out")
        return 1
    if code != 0:
        log(f"perfbench: perfbench_sim exited {code}")
        return 1
    with open(result) as f:
        raw = json.load(f)

    host = host_info()
    host["build_type"] = btype
    print("host: " + json.dumps(host))
    if not raw["optimized"] or btype not in ("Release", "RelWithDebInfo"):
        log("perfbench: refusing to report timings from an unoptimized "
            f"build (CMAKE_BUILD_TYPE={btype!r})")
        return 1

    for err in raw["errors"]:
        print("failure: " + err)
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"fail_frac: {failed / attempted:.6f} ({failed} of {attempted} "
          "ops)")

    sim = raw["sim"]
    for key in sorted(sim):
        print(f"sim.{key}: {sim[key]}")
    fp = stats.fold(sim)
    with open(FINGERPRINTS) as f:
        recorded = json.load(f).get(args.workload, {}).get(str(args.seed))
    match = None if recorded is None else recorded == fp
    print(f"sim.fingerprint: {fp}")
    print("sim_match: " + ("unknown (no fingerprint recorded for this seed)"
                           if match is None else str(match).lower()))

    if args.workload == "spec":
        print(f"par_kips: {raw['par_kips']:.6g} kinst/s (reference: one "
              "untimed parallel-runner run of each point in the gate)")

    op_times = [t for r in raw["rounds"] for t in r]
    q1, q2, q3 = stats.quartiles(op_times)
    tail = stats.tail_percentile(op_times)
    print(f"op_time_s: median {q2:.6f}, quartiles {q1:.6f} {q3:.6f}" +
          (f", p{tail[0]:.0f} {tail[1]:.6f}" if tail else "") +
          f" over {len(op_times)} samples")

    correct = failed == 0
    metrics = {}
    if args.trace:
        layers = dict(raw["layers"], **service_layers(args.workload, raw))
        for key in LAYER_EXTRA:
            print(f"{key}: {layers[key]:.6g}")
        if args.workload == "smp-service":
            frac = layers["fast.idle_cycle_frac"]
            print("smp.tick_ns: %.6g ns (all ticks)"
                  % (layers["fast.tick_ns.busy"] * (1 - frac) +
                     layers["fast.tick_ns.idle"] * frac))
        for problem in self_check(args.workload, layers):
            print("self-check failed: " + problem)
            correct = False
        for key, unit in LAYER_UNITS.items():
            metrics[key] = {"value": layers[key], "unit": unit}
    else:
        values = end_to_end(raw)
        for key, unit in E2E_UNITS.items():
            metrics[key] = {"value": values[key], "unit": unit}
        if args.workload == "sweep":
            print(f"points_per_s: {values['ops_per_s']:.6g} 1/s")
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
