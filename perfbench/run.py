#!/usr/bin/env python3
"""End-to-end sweep benchmark for the ACCEVAL evaluation harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (a package of its own in this directory) from
the repository's sources, then runs the chosen workload cold in fresh
processes, one after another: one unmeasured warm-up process, then measured
ones for about `--seconds`. Every process runs the paper-scale datasets, so
each artifact row it produces is checked against the committed `results/`
files. The seed permutes benchmark submission order only: a run cycles
through every submission order of the workload's benchmarks, in an order the
seed decides, and measures the whole cycles that end nearest `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics over
the run's processes, host times net of hypervisor steal (see `net`); with
`--trace 1` it reports the per-layer metrics of traced processes, each
paired with an untraced one so the tracing overhead is their wall-time
difference. Protocol metadata, the per-layer
self-time table and every process's raw numbers go to stderr and to
`.bench_build/perfbench/runs/`.

Load is one process whose sweep uses `nproc` worker threads in a closed loop
(a worker takes its next task when its previous one finishes). Every knob is
left at its default except the persistent launch store, which is detached
for the cold workloads and pointed at a scratch directory for `fig1_warm`;
nothing is ever written under `results/`.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
WORK_DIR = os.path.join(".bench_build", "perfbench")
REQUIRED = [
    "Cargo.toml",
    "crates/core/Cargo.toml",
    "results/figure1.csv",
    "results/figure1_paper_scale.txt",
]
# A run stops starting processes once this much wall time has passed, so it
# always exits within three minutes.
HARD_STOP_S = 150.0

# Each workload is a fixed slice of the paper-scale evaluation, sized so
# that a run can cycle through every submission order of its benchmarks.
WORKLOADS = {
    # Oracle-heavy and tail-bound: CFD's CPU oracle and the long CFD and NW
    # PGI/ACC tasks set the critical path, as BFS's do in the full figure.
    "fig1_notune": {"benches": ["CFD", "NW", "CG"], "tuning": False, "warm": False},
    # Every distinct tuning point: compile memo hits, geometry retargets
    # and launch-cache hits dominate, while the oracle share is small.
    "fig1_tuned": {"benches": ["SPMUL", "NW"], "tuning": True, "warm": False},
    # fig1_notune against a store that one earlier cold process filled:
    # oracles and launches load from disk and simulation is bypassed.
    "fig1_warm": {"benches": ["CFD", "NW", "CG"], "tuning": False, "warm": True},
}

MODEL_SHORT = {"pgi": "PGI", "openacc": "ACC", "hmpp": "HMPP", "openmpc": "MPC", "cuda": "CUDA"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sweep_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "benchmarks.dataset_s": "s",
    "cpu.oracle_s": "s",
    "cpu.oracle_ops": "count",
    "cpu.oracle_mops_per_s": "Mop/s",
    "compile.lower_s": "s",
    "compile.lowerings": "count",
    "compile.retarget_s": "s",
    "compile.memo_hit_ratio": "ratio",
    "eval.run_s": "s",
    "eval.us_per_launch": "us",
    "runtime.kernels_launched": "count",
    "runtime.transfers": "count",
    "runtime.h2d_bytes": "bytes",
    "runtime.d2h_bytes": "bytes",
    "launch_cache.hits": "count",
    "launch_cache.misses": "count",
    "launch_cache.hit_ratio": "ratio",
    "launch_cache.evictions": "count",
    "launch_cache.digest_s": "s",
    "launch_cache.resident_mb": "MB",
    "store.disk_hits": "count",
    "store.disk_misses": "count",
    "store.probe_s": "s",
    "store.quarantined": "count",
    "store.spills": "count",
    "store.spill_bytes": "bytes",
    "store.spill_drops": "count",
    "store.fill_s": "s",
    "opt.kernels": "count",
    "opt.ops_pre": "count",
    "opt.ops_post": "count",
    "opt.cse_hits": "count",
    "native.launches": "count",
    "native.promotions": "count",
    "native.ineligible": "count",
    "sweep.parallel_efficiency": "ratio",
    "sweep.critical_path_s": "s",
    "sweep.tail_parallel_tasks": "count",
    "sweep.workers": "count",
    "sweep.idle_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """A broken checkout or build: no result line, non-zero exit."""
    log(f"perfbench: {msg}")
    sys.exit(2)


# ---------------------------------------------------------------------------
# Expected artifact rows.
# ---------------------------------------------------------------------------


def read_lines(path):
    with open(path) as f:
        return [l.rstrip("\n") for l in f if l.strip()]


def expected_cells(wl):
    """(device, benchmark, model) -> the committed row fields to compare."""
    cells = {}
    for line in read_lines("results/figure1.csv")[1:]:
        f = line.split(",")
        if f[0] in wl["benches"]:
            # With tuning the band columns widen; the default point's
            # speedup and validity must still match the committed figure.
            cells[("fermi", f[0], f[1])] = tuple(f[2:4]) if wl["tuning"] else tuple(f[2:])
    return cells


def parse_table_line(line):
    """A Figure-1 table line -> {model: (speedup cell, band token)}."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 7:
        return None, {}
    models = ["PGI", "ACC", "HMPP", "MPC", "CUDA"]
    bands = {t.split(":")[0]: t for t in parts[6].split()}
    return parts[0], {m: (parts[1 + i], bands.get(m, "")) for i, m in enumerate(models)}


def expected_bands(wl):
    """(benchmark, model) -> (printed speedup, printed band) from the table."""
    out = {}
    for line in read_lines("results/figure1_paper_scale.txt"):
        if "|" not in line:
            continue
        name, cells = parse_table_line(line)
        if name in wl["benches"]:
            for m, v in cells.items():
                out[(name, m)] = v
    return out


def produced_cells(wl, rows):
    cells = {}
    for line in rows:
        f = line.split(",")
        cells[("fermi", f[0], f[1])] = tuple(f[2:4]) if wl["tuning"] else tuple(f[2:])
    return cells


def cell_of(task_key):
    device, bench, model, _ = task_key.split("/", 3)
    return (device, bench, MODEL_SHORT[model])


def score(wl, out, exp_cells, exp_bands):
    """Failed task keys of one process: invalid against the oracle, in a
    cell whose artifact row differs or is missing, or absent altogether."""
    keys = out["task_keys"]
    failed = {k for k, _ in out["invalid"]}
    bad_cells = set()
    got = produced_cells(wl, out["rows"])
    for cell, want in exp_cells.items():
        if got.get(cell) != want:
            bad_cells.add(cell)
    for cell in got:
        if cell not in exp_cells:
            bad_cells.add(cell)
    if wl["tuning"]:
        got_bands = {}
        for line in out["table_rows"]:
            name, cells = parse_table_line(line)
            for m, v in cells.items():
                got_bands[(name, m)] = v
        for (bench, m), want in exp_bands.items():
            if got_bands.get((bench, m)) != want:
                bad_cells.add(("fermi", bench, m))
    failed |= {k for k in keys if cell_of(k) in bad_cells}
    present = {cell_of(k) for k in keys}
    missing = [c for c in exp_cells if c not in present]
    return len(failed) + len(missing)


def tamper_self_check(wl, out, exp_cells, exp_bands):
    """A tampered expected row must be counted as a failure."""
    if not exp_cells:
        return False
    cell = sorted(exp_cells)[0]
    tampered = dict(exp_cells)
    tampered[cell] = ("0.0000",) + tuple(exp_cells[cell][1:])
    return score(wl, out, tampered, exp_bands) >= 1


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


def submission_orders(benches, seed):
    """Every permutation of the workload's benchmarks, in a seeded order.

    Which benchmarks share the two workers at a time changes how much work
    the launch cache saves and which tasks form the tail, so one order is
    not a steady sample. A run cycles through all of them instead; the seed
    decides the order in which they are run.
    """
    orders = [list(p) for p in itertools.permutations(benches)]
    random.Random(seed).shuffle(orders)
    return orders


def child_env(store):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACCEVAL_") and k != "RAYON_NUM_THREADS"}
    env["ACCEVAL_STORE"] = store
    return env


class Runner:
    def __init__(self, binary, wl, t_start):
        self.binary = binary
        self.wl = wl
        self.t_start = t_start
        self.proc = None

    def run(self, order, store, spans=None):
        """One fresh measured process submitting benchmarks in `order`;
        returns its parsed output or None."""
        args = [
            self.binary,
            "--benches",
            ",".join(order),
            "--tuning",
            "1" if self.wl["tuning"] else "0",
        ]
        if spans:
            args += ["--traced", spans]
        timeout = max(1.0, 170.0 - (time.monotonic() - self.t_start))
        ticks0 = cpu_ticks()
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(store), text=True
        )
        try:
            stdout, stderr = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            log("perfbench: process timed out")
            return None
        code = self.proc.returncode
        self.proc = None
        if code != 0:
            log(f"perfbench: process exited with {code}:\n{stderr[-4000:]}")
            return None
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        steal = steal_share(ticks0, cpu_ticks())
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
            out["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
            out["steal_share"] = steal
            return out
        except (ValueError, IndexError):
            log(f"perfbench: unparsable process output:\n{stdout[-2000:]}")
            return None

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, (100 * (n - 10)) // n) if n > 10 else 0


def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, -(-p * len(v) // 100) - 1))
    return v[k]


def net(proc):
    """The share of a process's wall time the hypervisor did not steal.

    Host times are reported net of steal: on a shared VM, steal spells last
    minutes and would otherwise move a whole run by 20-50%. Steal is taken
    as a share of the machine's non-idle time, so a process that leaves a
    vCPU idle is not credited for steal it could not suffer there.
    """
    return 1.0 - (proc["steal_share"] or 0.0)


def per_order_mean(procs, value):
    """Mean over submission orders of each order's median `value`.

    Orders set different tails (on `fig1_warm` some take 40% longer than
    others), so a plain median over a run's processes falls between the two
    groups and jumps with a single sample; each order weighs the same here.
    """
    by_order = {}
    for p in procs:
        by_order.setdefault(tuple(p["meta"]["submission_order"]), []).append(value(p))
    return statistics.fmean(statistics.median(v) for v in by_order.values())


def source_digest():
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", BENCH_DIR]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the git checkout rooted here, or None outside one."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath("."):
        return None
    return lines[1]


def cpu_ticks():
    """(steal, non-idle) jiffies of the whole machine, or None off Linux.

    Non-idle is user, nice, system, irq, softirq and steal: the time the
    vCPUs had work, whether they ran it or the hypervisor ran something else.
    """
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
    except (OSError, ValueError, IndexError):
        return None


def steal_share(t0, t1):
    """Share of the machine's non-idle CPU time the hypervisor took between
    two `cpu_ticks()` samples, or None when either is missing."""
    return (t1[0] - t0[0]) / max(1, t1[1] - t0[1]) if t0 and t1 else None


def results_snapshot():
    snap = {}
    for d, _, fs in os.walk("results"):
        for f in fs:
            p = os.path.join(d, f)
            st = os.stat(p)
            snap[p] = (st.st_size, st.st_mtime_ns)
    return snap


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_fingerprint(workload, wl, binary, fps):
    """Every process of a run, and every run of one build and workload
    definition, must agree on the simulated fingerprint."""
    distinct = {json.dumps(fp, sort_keys=True) for fp in fps}
    if len(distinct) != 1:
        log(f"perfbench: simulated fingerprints disagree within the run: {sorted(distinct)}")
        return False
    fp = json.loads(distinct.pop())
    path = os.path.join(WORK_DIR, f"fingerprint-{workload}.json")
    identity = {"build": file_sha(binary), "workload": wl}
    try:
        with open(path) as f:
            rec = json.load(f)
    except (OSError, ValueError):
        rec = {}
    if rec.get("identity") == identity and rec.get("fingerprint") != fp:
        log(f"perfbench: simulated fingerprint differs from an earlier run of this build: {rec['fingerprint']} vs {fp}")
        return False
    with open(path, "w") as f:
        json.dump({"identity": identity, "fingerprint": fp}, f)
    return True


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        fail_setup("build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(binary):
        fail_setup(f"built binary not found at {binary}")
    return os.path.abspath(binary)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail_setup(f"not a repository checkout (missing {', '.join(missing)}); run from the repository root")
    binary = build()
    os.makedirs(os.path.join(WORK_DIR, "runs"), exist_ok=True)

    wl = WORKLOADS[a.workload]
    orders = submission_orders(wl["benches"], a.seed)
    exp_cells = expected_cells(wl)
    exp_bands = expected_bands(wl) if wl["tuning"] else {}
    before = results_snapshot()
    ticks0 = cpu_ticks()
    t_start = time.monotonic()
    runner = Runner(binary, wl, t_start)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    store = "off"
    fill = None
    store_dir = os.path.abspath(os.path.join(WORK_DIR, f"store-{os.getpid()}"))
    procs, traced = [], []
    attempted = failed = 0
    self_check_ok = None
    crashed = False
    try:
        # One unmeasured process first, so no measured process pays for
        # paging the binary in. For the warm workload it is the process that
        # fills the store.
        if wl["warm"]:
            shutil.rmtree(store_dir, ignore_errors=True)
            store = store_dir
        first = runner.run(orders[0], store)
        if first is None:
            attempted = failed = len(exp_cells)
            crashed = True
        elif wl["warm"]:
            fill = first
        else:
            attempted += first["tasks"]
            failed += score(wl, first, exp_cells, exp_bands)
        k = 0
        t_measure = time.monotonic()
        # Whole cycles only, so every run submits each order equally often.
        # Another cycle starts only while it would end nearer `--seconds`
        # than stopping now does.
        while not crashed:
            if k and k % len(orders) == 0:
                elapsed = time.monotonic() - t_measure
                if elapsed + elapsed / (k // len(orders)) / 2 >= a.seconds:
                    break
            if time.monotonic() - t_start > HARD_STOP_S:
                break
            order = orders[k % len(orders)]
            out = runner.run(order, store)
            # A process that crashed fails every task it would have run.
            n_expected = procs[0]["tasks"] if procs else len(exp_cells)
            if out is None:
                attempted += n_expected
                failed += n_expected
                crashed = True
                break
            attempted += out["tasks"]
            failed += score(wl, out, exp_cells, exp_bands)
            for key, why in out["invalid"][:5]:
                log(f"perfbench: invalid {key}: {why}")
            if self_check_ok is None:
                self_check_ok = tamper_self_check(wl, out, exp_cells, exp_bands)
            procs.append(out)
            if a.trace:
                spans = os.path.join(WORK_DIR, "runs", f"{a.workload}-spans.json")
                t_out = runner.run(order, store, spans=spans)
                if t_out is None:
                    attempted += n_expected
                    failed += n_expected
                    crashed = True
                    break
                attempted += t_out["tasks"]
                failed += len(t_out["invalid"])
                traced.append(t_out)
            k += 1
    finally:
        runner.kill()
        shutil.rmtree(store_dir, ignore_errors=True)

    steal = steal_share(ticks0, cpu_ticks())
    fps = [p["fingerprint"] for p in procs + traced]
    fp_ok = bool(fps) and check_fingerprint(a.workload, wl, binary, fps)
    clean = results_snapshot() == before
    if not clean:
        log("perfbench: files under results/ changed during the run")
    if not self_check_ok:
        log("perfbench: row-check self-test failed (a tampered expected row was not caught)")
    correct = bool(procs) and failed == 0 and fp_ok and clean and bool(self_check_ok)
    if procs and not (fp_ok and clean):
        failed = max(failed, attempted)

    tasks_per_proc = procs[0]["tasks"] if procs else 0
    tail_p = tail_percentile(len(orders) * tasks_per_proc)
    metrics = {}
    if procs and not a.trace:
        walls = [w * net(p) for p in procs for w in p["task_walls"]]
        # A task whose launches race another task's for the launch cache is
        # long in some processes and short in others; its median over the
        # run's processes is its typical cost.
        per_task = {}
        for p in procs:
            for key, w in zip(p["task_keys"], p["task_walls"]):
                per_task.setdefault(key, []).append(w * net(p))
        values = {
            "wall_s": per_order_mean(procs, lambda p: p["wall_s"] * net(p)),
            "setup_s": per_order_mean(procs, lambda p: p["setup_s"] * net(p)),
            "sweep_s": per_order_mean(procs, lambda p: p["sweep_s"] * net(p)),
            "task_p50_s": statistics.median(statistics.median(v) for v in per_task.values()),
            "task_tail_s": percentile(walls, tail_p),
            "peak_rss_mb": per_order_mean(procs, lambda p: p["peak_rss_mb"]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    elif traced:
        layer = {k: statistics.median(dict(t["layers"])[k] for t in traced) for k in dict(traced[0]["layers"])}
        layer["trace.overhead_s"] = statistics.median(t["wall_s"] * net(t) for t in traced) - statistics.median(
            p["wall_s"] * net(p) for p in procs
        )
        sw = [p["sweep"] for p in procs]
        layer["sweep.parallel_efficiency"] = statistics.median(s["parallel_efficiency"] for s in sw)
        layer["sweep.critical_path_s"] = statistics.median(s["critical_path_s"] for s in sw)
        layer["sweep.tail_parallel_tasks"] = statistics.median(s["tail_parallel_tasks"] for s in sw)
        layer["sweep.workers"] = statistics.median(s["workers"] for s in sw)
        fill_store = fill["store"] if fill else {}
        for k in ["spills", "spill_bytes", "spill_drops"]:
            layer[f"store.{k}"] = fill_store.get(k, 0)
        layer["store.fill_s"] = fill["wall_s"] if fill else 0.0
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    meta = procs[0]["meta"] if procs else {}
    record = {
        "workload": a.workload,
        "benches": wl["benches"],
        "tuning": wl["tuning"],
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "nproc": meta.get("nproc"),
        "workers": meta.get("workers"),
        "scale": meta.get("scale"),
        "policies": {k: meta.get(k) for k in ["engine", "opt", "launch_cache", "launch_par", "store"]},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "processes": len(procs) + len(traced),
        # Share of CPU time the hypervisor took from this machine during the
        # run: context for a noisy run, never folded into a metric.
        "steal_share": steal,
        "task_samples": len(procs) * tasks_per_proc,
        "task_tail_percentile": tail_p,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "fingerprint": fps[0] if fps else None,
        "metrics": metrics,
        "raw": [
            {k: p[k] for k in ["wall_s", "setup_s", "sweep_s", "cpu_s", "steal_share", "peak_rss_mb", "meta"]}
            for p in procs + traced
        ],
    }
    with open(os.path.join(WORK_DIR, "runs", f"{a.workload}-seed{a.seed}-trace{a.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    log(
        f"perfbench: {a.workload} seed={a.seed} processes={record['processes']} nproc={record['nproc']} "
        f"workers={record['workers']} scale={record['scale']} policies={record['policies']} "
        f"commit={record['git_commit']} source={record['source_digest']} "
        f"steal={steal} fail_ratio={record['fail_ratio']:.4f} tail=p{tail_p} of {record['task_samples']} task samples"
    )
    if traced:
        log(traced[-1]["layer_table"])
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
