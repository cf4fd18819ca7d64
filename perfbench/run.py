#!/usr/bin/env python3
"""aqsim benchmark: whole-run and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload scale-ep --seed 1 --seconds 25 \\
        --trace 0

Builds `perfbench/` (the driver plus the library from `src/`) as a
Release tree under `.bench_build/perfbench`, then for one workload:

1. runs the SequentialEngine reference of the configuration in its own
   untimed process (and, for adaptive-is with `--trace 1`, the
   fixed:1us ground truth);
2. runs timed simulations, each in a fresh driver process, until
   `--seconds` have passed, checking every one against the reference;
3. builds the cluster alone in fresh processes until enough set-up
   samples exist;
4. with `--trace 1`, runs one more simulation with the engine's phase
   timers and timeline on, and reports the per-layer metrics from it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (medians over the timed runs), with
`--trace 1` the per-layer ones. The workloads and metrics are
documented in perfbench/README.md.

`--smoke` swaps in tiny configurations (used by perfbench/test_run.py);
`--wrong-reference` runs the reference on another seed, so that every
output check must fail.

Exit codes: 0 with a result line; 1 when the reference fails; 2 when
the build fails; 3 when the host or the build is refused.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "aqsim_perfbench"
SCRATCH = BUILD_DIR / "runs"
# Temporary files of the compiler and the driver stay in the checkout.
ENV = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))

# Everything after the build must end within this many seconds; a
# driver process still running at the deadline counts as failed.
RUN_BUDGET_S = 165
# Set-up is the median of at least MIN_SETUP_SAMPLES samples; cheap
# set-ups get more set-up-only processes, up to SETUP_EXTRA_S seconds
# or MAX_SETUP_SAMPLES samples.
MIN_SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 50
SETUP_EXTRA_S = 1.0


@dataclass(frozen=True)
class Workload:
    app: str
    nodes: int
    scale: float
    engine: str
    policy: str
    workers: int = 0
    checkpoint_every: int = 0
    ground_truth: str = ""

    @property
    def cpus_needed(self):
        # Workers run beside the driver thread (threaded) or the
        # coordinator process (distributed).
        return 1 if self.engine == "sequential" else self.workers + 1


WORKLOADS = {
    "scale-ep": Workload(app="nas.ep", nodes=2048, scale=1.0,
                         engine="sequential", policy="fixed:1us",
                         checkpoint_every=64),
    "sync-namd": Workload(app="namd", nodes=64, scale=32.0,
                          engine="threaded", workers=3,
                          policy="fixed:1us"),
    "adaptive-is": Workload(app="nas.is", nodes=256, scale=4.0,
                            engine="sequential",
                            policy="dyn:1.03:0.02:1us:1000us",
                            ground_truth="fixed:1us"),
    "dist-ep": Workload(app="nas.ep", nodes=1024, scale=1.0,
                        engine="distributed", workers=3,
                        policy="fixed:1us"),
}

SMOKE = {
    "scale-ep": dict(nodes=64, scale=0.25, checkpoint_every=256),
    "sync-namd": dict(nodes=8, scale=0.1, workers=2),
    "adaptive-is": dict(nodes=16, scale=1.0),
    "dist-ep": dict(nodes=64, scale=0.25, workers=2),
}

# name -> unit; the order is the order of the output.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cluster.build_rss_mb": "MB",
    "cluster.teardown_s": "s",
    "cluster.hash_s": "s",
    "engine.run_s": "s",
    "engine.run_ms_per_quantum": "ms",
    "engine.unattributed_ms": "ms",
    "phase.sort_ms": "ms",
    "phase.exchange_ms": "ms",
    "phase.merge_ms": "ms",
    "phase.dispatch_ms": "ms",
    "core.quanta": "count",
    "core.mean_quantum_us": "us",
    "core.stragglers": "count",
    "core.next_quantum_deliveries": "count",
    "core.lateness_us": "us",
    "accuracy_err_pct": "%",
    "net.packets": "count",
    "net.packets_per_s": "1/s",
    "mpi.retransmits": "count",
    "ckpt.images": "count",
    "ckpt.bytes": "B",
    "ckpt.write_s": "s",
    "ckpt_mb": "MB",
    "host.user_s": "s",
    "host.sys_s": "s",
    "host.vol_csw": "count",
    "host.invol_csw": "count",
    "peers.cpu_s": "s",
    "peers.peak_rss_mb": "MB",
    "span_coverage": "ratio",
    "trace.overhead_pct": "%",
}

# RunResult fields every timed run must reproduce exactly.
CHECKED_FIELDS = ("sim_ticks", "quanta", "packets", "stragglers",
                  "next_quantum", "lateness_ticks", "metric",
                  "state_hash")

MB = 1e6


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build the Release driver; False on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    Path(ENV["TMPDIR"]).mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "aqsim_perfbench"]]
    # An existing tree keeps its build type, so that a tree configured
    # otherwise is refused rather than silently changed.
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=ENV)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def fingerprint():
    try:
        governor = Path("/sys/devices/system/cpu/cpu0/cpufreq/"
                        "scaling_governor").read_text().strip()
    except OSError:
        governor = "unknown"
    info = json.loads(subprocess.run(
        [str(DRIVER), "--mode", "info"], stdout=subprocess.PIPE,
        text=True, check=True).stdout)
    return {
        "cpus_total": os.cpu_count(),
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "governor": governor,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "compiler": info["compiler"],
        "cmake_build_type": info["build_type"],
        "optimized": info["optimized"],
        "ndebug": info["ndebug"],
    }


class Runner:
    """Launches driver processes for one workload and seed."""

    def __init__(self, workload, sim_seed):
        self.workload = workload
        self.sim_seed = sim_seed
        self.serial = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def time_left(self):
        return self.deadline - time.monotonic()

    def run(self, mode="run", engine=None, policy=None, seed=None,
            trace=False):
        """One driver process; its parsed JSON, or None on failure."""
        w = self.workload
        cmd = [str(DRIVER), "--mode", mode, "--app", w.app,
               "--nodes", str(w.nodes), "--scale", repr(w.scale),
               "--seed", str(self.sim_seed if seed is None else seed),
               "--policy", policy or w.policy,
               "--engine", engine or w.engine,
               "--workers", str(w.workers)]
        if trace:
            cmd.append("--trace")
        ckpt_dir = None
        if mode == "run" and w.checkpoint_every:
            self.serial += 1
            ckpt_dir = SCRATCH / f"{os.getpid()}-{self.serial}"
            shutil.rmtree(ckpt_dir, ignore_errors=True)
            cmd += ["--checkpoint-every", str(w.checkpoint_every),
                    "--checkpoint-dir", str(ckpt_dir)]
        # Its own session, so a timeout can stop the distributed
        # engine's worker processes along with the driver.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=ENV, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1, self.time_left()))
        except subprocess.TimeoutExpired:
            stop_group(proc)
            log("perfbench: timed out at the run deadline: "
                + " ".join(cmd))
            return None
        except BaseException:
            stop_group(proc)
            raise
        finally:
            if ckpt_dir is not None:
                shutil.rmtree(ckpt_dir, ignore_errors=True)
        if proc.returncode != 0:
            log(err[-2000:])
            log(f"perfbench: exit {proc.returncode}: " + " ".join(cmd))
            return None
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            log("perfbench: unreadable driver output: " + out)
            return None


def stop_group(proc):
    """SIGKILL @p proc's process group and wait until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def mismatch(sample, reference):
    """Why @p sample differs from the reference run ('' if it agrees)."""
    got, want = sample["result"], reference["result"]
    diffs = [f"{k}={got[k]} (reference {want[k]})"
             for k in CHECKED_FIELDS if got[k] != want[k]]
    if got["retransmits"] or got["dropped"]:
        diffs.append("retransmits/drops on a perfect network")
    want_ckpt, got_ckpt = reference["ckpt_check"], sample["ckpt_check"]
    if want_ckpt is not None:
        if not got_ckpt or not got_ckpt["decoded"]:
            diffs.append("checkpoint image did not decode")
        elif (got_ckpt["files"], got_ckpt["image_hash"]) != (
                want_ckpt["files"], want_ckpt["image_hash"]):
            diffs.append(f"checkpoint {got_ckpt} (reference {want_ckpt})")
    return "; ".join(diffs)


def cpu_s(sample):
    return (sample["self"]["user_s"] + sample["self"]["sys_s"] +
            sample["children"]["user_s"] + sample["children"]["sys_s"])


def peak_rss_mb(sample):
    return max(sample["self"]["maxrss_kb"],
               sample["children"]["maxrss_kb"]) * 1024 / MB


def end_to_end_metrics(samples, setups):
    med = statistics.median
    return {
        "wall_s": med(s["spans"]["wall_s"] for s in samples),
        "setup_s": med(s["spans"]["setup_s"] for s in setups),
        "cpu_s": med(cpu_s(s) for s in samples),
        "peak_rss_mb": med(peak_rss_mb(s) for s in samples),
    }


def per_layer_metrics(traced, samples, setups, ground_truth, workload):
    spans, res = traced["spans"], traced["result"]
    if workload.engine == "distributed":
        # The engine builds and frees its clusters inside run(); the
        # cluster figures come from the set-up-only processes.
        build_rss_kb = statistics.median(s["build_rss_kb"] for s in setups)
        teardown_s = statistics.median(s["spans"]["teardown_s"]
                                       for s in setups)
    else:
        build_rss_kb = traced["build_rss_kb"]
        teardown_s = spans["teardown_s"]
    phases_ms = {p: res[f"phase_{p}_ns"] / 1e6
                 for p in ("sort", "exchange", "merge", "dispatch")}
    run_ms = spans["run_s"] * 1e3
    ckpt_ms = res["ckpt_write_ns"] / 1e6
    untraced_wall = statistics.median(s["spans"]["wall_s"]
                                      for s in samples)
    accuracy = 0.0
    if ground_truth is not None:
        want = ground_truth["result"]["metric"]
        accuracy = abs(res["metric"] - want) / abs(want) * 100
    covered = (spans["setup_s"] + spans["run_s"] + spans["hash_s"] +
               spans["teardown_s"])
    return {
        "cluster.build_rss_mb": build_rss_kb * 1024 / MB,
        "cluster.teardown_s": teardown_s,
        "cluster.hash_s": spans["hash_s"],
        "engine.run_s": spans["run_s"],
        "engine.run_ms_per_quantum": run_ms / res["quanta"],
        "engine.unattributed_ms":
            run_ms - sum(phases_ms.values()) - ckpt_ms,
        "phase.sort_ms": phases_ms["sort"],
        "phase.exchange_ms": phases_ms["exchange"],
        "phase.merge_ms": phases_ms["merge"],
        "phase.dispatch_ms": phases_ms["dispatch"],
        "core.quanta": res["quanta"],
        "core.mean_quantum_us": res["mean_quantum_ticks"] / 1e3,
        "core.stragglers": res["stragglers"],
        "core.next_quantum_deliveries": res["next_quantum"],
        "core.lateness_us": res["lateness_ticks"] / 1e3,
        "accuracy_err_pct": accuracy,
        "net.packets": res["packets"],
        "net.packets_per_s": res["packets"] / spans["run_s"],
        "mpi.retransmits": res["retransmits"],
        "ckpt.images": res["ckpt_images"],
        "ckpt.bytes": res["ckpt_bytes"],
        "ckpt.write_s": ckpt_ms / 1e3,
        "ckpt_mb": res["ckpt_bytes"] / MB,
        "host.user_s": traced["self"]["user_s"],
        "host.sys_s": traced["self"]["sys_s"],
        "host.vol_csw": traced["self"]["vol_csw"],
        "host.invol_csw": traced["self"]["invol_csw"],
        "peers.cpu_s": (traced["children"]["user_s"] +
                        traced["children"]["sys_s"]),
        "peers.peak_rss_mb": traced["children"]["maxrss_kb"] * 1024 / MB,
        "span_coverage": covered / spans["wall_s"],
        "trace.overhead_pct":
            (spans["wall_s"] - untraced_wall) / untraced_wall * 100,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args()
    # Unwinds through Runner.run, which stops the running driver.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE[args.workload])

    if not build():
        return 2
    host = fingerprint()
    print("# host " + json.dumps(host), flush=True)
    if host["cmake_build_type"] != "Release" or not host["optimized"]:
        log(f"perfbench: refusing to time a non-Release build; delete "
            f"{BUILD_DIR} to rebuild it as Release")
        return 3
    if host["cpus_affinity"] < workload.cpus_needed:
        log(f"perfbench: {args.workload} needs {workload.cpus_needed} "
            f"CPUs, affinity allows {host['cpus_affinity']}")
        return 3

    # The simulation's master seed; never 0.
    sim_seed = 1 + args.seed % (2**31 - 1)
    runner = Runner(workload, sim_seed)
    SCRATCH.mkdir(parents=True, exist_ok=True)

    reference = runner.run(
        engine="sequential",
        seed=sim_seed + 1 if args.wrong_reference else None)
    if reference is None:
        log("perfbench: the reference run failed")
        return 1
    ground_truth = None
    if workload.ground_truth and args.trace:
        ground_truth = runner.run(engine="sequential",
                                  policy=workload.ground_truth)
        if ground_truth is None:
            log("perfbench: the ground-truth run failed")
            return 1

    attempted = failed = 0

    def checked(sample):
        nonlocal attempted, failed
        attempted += 1
        if sample is None:
            failed += 1
            return None
        why = mismatch(sample, reference)
        if why:
            failed += 1
            log("perfbench: output differs from the reference: " + why)
        return sample

    samples = []
    start = time.monotonic()
    while runner.time_left() > 0 and (
            time.monotonic() - start < args.seconds or not attempted):
        sample = checked(runner.run())
        if sample is not None:
            samples.append(sample)
    setups = [] if workload.engine == "distributed" else list(samples)
    setup_start = time.monotonic()
    while runner.time_left() > 0 and (
            len(setups) < MIN_SETUP_SAMPLES or
            (time.monotonic() - setup_start < SETUP_EXTRA_S and
             len(setups) < MAX_SETUP_SAMPLES)):
        attempted += 1
        setup = runner.run(mode="setup")
        if setup is None:
            failed += 1
            break
        setups.append(setup)
    if not samples or not setups:
        log("perfbench: no run completed")
        return 1

    if args.trace:
        traced = checked(runner.run(trace=True))
        if traced is None:
            log("perfbench: the traced run failed")
            return 1
        if traced["result"]["timeline_quanta"] != traced["result"]["quanta"]:
            failed += 1
            log("perfbench: the timeline misses quanta")
        values = per_layer_metrics(traced, samples, setups, ground_truth,
                                   workload)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(samples, setups)
        units = END_TO_END

    print("# samples " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "sim_seed": sim_seed, "timed_runs": len(samples),
        "setup_samples": len(setups),
        "wall_s": [round(s["spans"]["wall_s"], 6) for s in samples],
    }), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
