//! One measured process of the end-to-end sweep benchmark.
//!
//! Builds the datasets and CPU oracles of the selected benchmarks (the
//! set-up phase), then runs the Figure-1 sweep over them at paper scale,
//! and prints one JSON object on stdout: phase wall times, per-task wall
//! times, peak resident memory, the artifact rows the sweep produced, every
//! task's oracle validation, the simulated-invariance fingerprint, and the
//! library's reported policies. Benchmarks are submitted to the sweep in
//! the order `--benches` lists them. `run.py` drives this binary, one fresh
//! process per sample, and checks the rows against the committed `results/`
//! files.
//!
//! ```text
//! perfbench --benches EP,JACOBI --tuning 0|1 [--traced SPANS.json]
//! ```
//!
//! The untraced mode calls the library's own sweep (`sweep::run_sweep`),
//! exactly what `report` runs. The traced mode runs the same task list
//! through a closed loop of its own that calls the layer entry points the
//! library sweep calls (`compile_port`, `CompiledProgram::with_geometry`,
//! `eval::run_compiled`), recording a span around each, so the per-layer
//! table is measured from outside the program.

mod trace;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use acceval::benchmarks::{all_benchmarks, Benchmark, Scale};
use acceval::compile::{compile_port, CompiledProgram};
use acceval::eval::run_compiled;
use acceval::figures::Figure1;
use acceval::ir::interp::gpu::{engine_name, launch_par, launch_par_name, set_launch_par_hint, LaunchPar};
use acceval::ir::interp::launch_cache::{launch_cache_name, launch_cache_totals, thread_cache_counters};
use acceval::ir::interp::native::native_totals;
use acceval::ir::interp::opt::{opt_name, opt_totals};
use acceval::ir::interp::store::{flush_store, store_policy_name, store_totals};
use acceval::models::{ModelKind, TuningPoint};
use acceval::report::{figure1_csv, render_figure1};
use acceval::sim::{MachineConfig, Summary};
use acceval::sweep::{
    bench_results, cached_dataset, cached_oracle_tracked, enumerate_tasks, run_sweep, SweepManifest, SweepTask,
};
use serde::Serialize;

use trace::{Span, Tracer};

const SCALE: Scale = Scale::Paper;

struct Args {
    benches: Vec<String>,
    tuning: bool,
    spans_path: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { benches: Vec::new(), tuning: false, spans_path: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--benches" => a.benches = val.split(',').map(str::to_string).collect(),
            "--tuning" => a.tuning = val == "1",
            "--traced" => a.spans_path = Some(val.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.benches.is_empty() {
        return Err("--benches is required".into());
    }
    Ok(a)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Exact simulated quantities of a sweep. A change that only affects host
/// speed must leave every field identical; `sim_secs_bits` is the bit
/// pattern of the simulated seconds summed in a canonical task order.
#[derive(Debug, Default, Serialize)]
struct Fingerprint {
    tasks: usize,
    kernels_launched: u64,
    transfers: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    global_transactions: u64,
    useful_bytes: u64,
    opt_kernels: u64,
    opt_ops_pre: u64,
    opt_ops_post: u64,
    opt_cse_hits: u64,
    sim_secs_bits: String,
}

/// One task's simulated outcome, from either sweep mode.
struct TaskResult {
    key: String,
    secs: f64,
    summary: Summary,
    invalid: Option<String>,
}

fn fingerprint(results: &mut [TaskResult], opt: (u64, u64, u64, u64)) -> Fingerprint {
    results.sort_by(|a, b| a.key.cmp(&b.key));
    let mut f = Fingerprint { tasks: results.len(), ..Fingerprint::default() };
    let mut secs = 0.0f64;
    for r in results.iter() {
        secs += r.secs;
        f.kernels_launched += r.summary.kernels_launched;
        f.transfers += r.summary.transfers;
        f.h2d_bytes += r.summary.h2d_bytes;
        f.d2h_bytes += r.summary.d2h_bytes;
        f.global_transactions += r.summary.global_transactions;
        f.useful_bytes += r.summary.useful_bytes;
    }
    (f.opt_kernels, f.opt_ops_pre, f.opt_ops_post, f.opt_cse_hits) = opt;
    f.sim_secs_bits = format!("{:016x}", secs.to_bits());
    f
}

fn task_key(device: &str, benchmark: &str, model: ModelKind, tuning: Option<TuningPoint>) -> String {
    format!("{device}/{benchmark}/{}/{tuning:?}", model.slug())
}

#[derive(Serialize)]
struct Meta {
    nproc: usize,
    workers: usize,
    scale: String,
    submission_order: Vec<String>,
    engine: String,
    opt: String,
    launch_cache: String,
    launch_par: String,
    store: String,
}

/// Sweep-layer numbers the library's manifest exports.
#[derive(Serialize)]
struct SweepStats {
    workers: usize,
    parallel_efficiency: f64,
    critical_path_s: f64,
    tail_parallel_tasks: usize,
}

#[derive(Serialize, Default)]
struct StoreWrites {
    spills: u64,
    spill_bytes: u64,
    spill_drops: u64,
}

#[derive(Serialize)]
struct Output {
    meta: Meta,
    wall_s: f64,
    setup_s: f64,
    sweep_s: f64,
    peak_rss_mb: f64,
    tasks: usize,
    /// Wall seconds per task, aligned with `task_keys`.
    task_walls: Vec<f64>,
    /// Tasks whose outputs failed oracle validation, as (key, reason).
    invalid: Vec<(String, String)>,
    /// Artifact rows (`figure1.csv` format, no header).
    rows: Vec<String>,
    /// Benchmark lines of the rendered Figure-1 table (tuning workloads).
    table_rows: Vec<String>,
    fingerprint: Fingerprint,
    sweep: Option<SweepStats>,
    /// Every task's key (`device/benchmark/model/tuning`).
    task_keys: Vec<String>,
    /// Persistent-store writes, counted after the spiller has drained.
    store: StoreWrites,
    /// Traced mode: per-layer metrics as (name, value).
    layers: Vec<(String, f64)>,
    /// Traced mode: the rendered self-time table.
    layer_table: String,
}

fn main() {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let all = all_benchmarks();
    let mut benches: Vec<&dyn Benchmark> = Vec::new();
    for name in &args.benches {
        match all.iter().find(|b| b.spec().name.eq_ignore_ascii_case(name)) {
            Some(b) => benches.push(b.as_ref()),
            None => {
                eprintln!("perfbench: unknown benchmark `{name}`");
                std::process::exit(2);
            }
        }
    }
    let cfg = MachineConfig::keeneland_node();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tasks = enumerate_tasks(&benches, args.tuning);
    let workers = nproc.min(tasks.len()).max(1);

    let meta = Meta {
        nproc,
        workers,
        scale: format!("{SCALE:?}"),
        submission_order: benches.iter().map(|b| b.spec().name.to_string()).collect(),
        engine: engine_name().to_string(),
        opt: opt_name().to_string(),
        launch_cache: launch_cache_name().to_string(),
        launch_par: launch_par_name().to_string(),
        store: store_policy_name().to_string(),
    };
    let tracer = args.spans_path.as_ref().map(|_| Tracer::new(t0));
    let mut out = match &tracer {
        None => untraced(meta, &benches, &tasks, &cfg, args.tuning, t0),
        Some(tr) => tr.span("process", None, None, 0, |root| traced(meta, &benches, &tasks, &cfg, t0, tr, root)),
    };
    if let (Some(tr), Some(path)) = (&tracer, &args.spans_path) {
        let spans = tr.spans();
        if let Err(e) = std::fs::write(path, serde_json::to_string(&spans).expect("spans serialize")) {
            eprintln!("perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    // Spills still queued belong to this process's work (the filling run of
    // the warm workload); wait for them before counting.
    flush_store();
    let st = store_totals();
    out.store = StoreWrites { spills: st.spills, spill_bytes: st.spill_bytes, spill_drops: st.spill_drops };
    println!("{}", serde_json::to_string(&out).expect("output serializes"));
}

/// Build every dataset and CPU oracle before the first model task, with a
/// closed loop of `workers` threads pulling benchmarks in paper order. The
/// order is fixed rather than seeded so that set-up time does not depend on
/// where the longest oracle lands. The library memoizes both process-wide,
/// so the sweep reuses them.
fn setup(benches: &[&dyn Benchmark], cfg: &MachineConfig, workers: usize, trace: Option<(&Tracer, u64)>) {
    let paper: Vec<&str> = all_benchmarks().iter().map(|b| b.spec().name).collect();
    let mut benches = benches.to_vec();
    benches.sort_by_key(|b| paper.iter().position(|n| *n == b.spec().name));
    let benches = &benches;
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(b) = benches.get(i) else { break };
                match trace {
                    None => {
                        cached_dataset(*b, SCALE);
                        cached_oracle_tracked(*b, SCALE, cfg);
                    }
                    Some((tr, phase)) => {
                        tr.span("benchmarks", Some(phase), None, w + 1, |_| cached_dataset(*b, SCALE));
                        // An oracle loaded from the persistent store is store
                        // work, not CPU-model work.
                        tr.span_as(Some(phase), None, w + 1, |_| {
                            let (entry, _) = cached_oracle_tracked(*b, SCALE, cfg);
                            (if entry.wall_secs == 0.0 { "store" } else { "cpu" }, ())
                        });
                    }
                }
            });
        }
    });
}

fn untraced(
    meta: Meta,
    benches: &[&dyn Benchmark],
    tasks: &[SweepTask],
    cfg: &MachineConfig,
    tuning: bool,
    t0: Instant,
) -> Output {
    setup(benches, cfg, meta.workers, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let m: SweepManifest = run_sweep(benches, cfg, SCALE, tuning);
    let sweep_s = t1.elapsed().as_secs_f64();
    assert_eq!(m.records.len(), tasks.len(), "the library sweep ran the enumerated task list");
    let fig = Figure1 { results: bench_results(&m) };
    let table_rows = if tuning { benchmark_lines(&render_figure1(&fig), benches) } else { Vec::new() };
    let rows = csv_rows(&figure1_csv(&fig));
    let wall_s = t0.elapsed().as_secs_f64();
    let mut results: Vec<TaskResult> = m
        .records
        .iter()
        .map(|r| TaskResult {
            key: task_key(&r.device, &r.benchmark, r.model, r.tuning),
            secs: r.secs,
            summary: r.summary,
            invalid: r.valid.clone().err(),
        })
        .collect();
    let opt = m.records.iter().fold((0, 0, 0, 0), |a, r| {
        (a.0 + r.opt_kernels, a.1 + r.opt_ops_pre, a.2 + r.opt_ops_post, a.3 + r.opt_cse_hits)
    });
    let invalid = invalid_list(&results);
    Output {
        meta,
        wall_s,
        setup_s,
        sweep_s,
        peak_rss_mb: peak_rss_mb(),
        tasks: m.records.len(),
        task_walls: m.records.iter().map(|r| r.wall_secs).collect(),
        invalid,
        rows,
        table_rows,
        task_keys: results.iter().map(|r| r.key.clone()).collect(),
        store: StoreWrites::default(),
        fingerprint: fingerprint(&mut results, opt),
        sweep: Some(SweepStats {
            workers: m.workers,
            parallel_efficiency: m.parallel_efficiency,
            critical_path_s: m.critical_path_secs,
            tail_parallel_tasks: m.records.iter().filter(|r| r.launch_parallel).count(),
        }),
        layers: Vec::new(),
        layer_table: String::new(),
    }
}

fn invalid_list(results: &[TaskResult]) -> Vec<(String, String)> {
    results.iter().filter_map(|r| r.invalid.as_ref().map(|e| (r.key.clone(), e.clone()))).collect()
}

fn csv_rows(csv: &str) -> Vec<String> {
    csv.lines().skip(1).filter(|l| !l.is_empty()).map(str::to_string).collect()
}

/// The per-benchmark lines of a rendered Figure-1 table.
fn benchmark_lines(table: &str, benches: &[&dyn Benchmark]) -> Vec<String> {
    table
        .lines()
        .filter(|l| {
            l.contains('|') && benches.iter().any(|b| l.split('|').next().map(str::trim) == Some(b.spec().name))
        })
        .map(str::to_string)
        .collect()
}

type CompileKey = (String, ModelKind, TuningPoint);

fn traced(
    meta: Meta,
    benches: &[&dyn Benchmark],
    tasks: &[SweepTask],
    cfg: &MachineConfig,
    t0: Instant,
    tr: &Tracer,
    root: u64,
) -> Output {
    let workers = meta.workers;
    tr.span("setup", Some(root), None, 0, |phase| setup(benches, cfg, workers, Some((tr, phase))));
    let setup_s = t0.elapsed().as_secs_f64();
    let store_probe_before = store_totals().probe_secs;
    let by_name: HashMap<&str, &dyn Benchmark> = benches.iter().map(|b| (b.spec().name, *b)).collect();
    let compiles: Mutex<HashMap<CompileKey, Arc<OnceLock<Arc<CompiledProgram>>>>> = Mutex::new(HashMap::new());
    let lowerings = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    // Same two-level policy as the library sweep: the last task per worker
    // may chunk its launches across blocks.
    let tail_from = tasks.len().saturating_sub(workers);
    let done: Mutex<Vec<(usize, TaskResult)>> = Mutex::new(Vec::new());
    let t1 = Instant::now();
    tr.span("sweep", Some(root), None, 0, |phase| {
        std::thread::scope(|s| {
            for w in 0..workers {
                let (next, compiles, lowerings, done, by_name) = (&next, &compiles, &lowerings, &done, &by_name);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let launch_parallel = match launch_par() {
                        LaunchPar::On => true,
                        LaunchPar::Off => false,
                        LaunchPar::Auto => i >= tail_from,
                    };
                    let bench = by_name[task.benchmark.as_str()];
                    let r = tr.span("sweep.task", Some(phase), Some(i), w + 1, |tid| {
                        run_traced_task(tr, tid, i, w + 1, bench, task, cfg, launch_parallel, compiles, lowerings)
                    });
                    done.lock().expect("task list lock").push((i, r));
                });
            }
        });
    });
    let sweep_s = t1.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let store_probe_s = store_totals().probe_secs - store_probe_before;

    let done = done.into_inner().expect("task list lock");
    let mut spans = tr.spans();
    // The root span is still open; close it at `wall_s` for the table.
    spans.push(Span { id: root, parent: None, task: None, layer: "process", thread: 0, start_s: 0.0, end_s: wall_s });
    let mut rows = trace::self_times(&spans, workers, wall_s);
    // Disk probes happen inside `run_compiled`; their time is store work.
    *rows.entry("eval").or_default() -= store_probe_s;
    *rows.entry("store").or_default() += store_probe_s;
    let layer_table = trace::render_table(&rows, workers, wall_s);

    // Task order, so keys and wall times line up as in the library's records.
    let mut done = done;
    done.sort_by_key(|(i, _)| *i);
    let mut walls = vec![0.0; tasks.len()];
    for s in spans.iter().filter(|s| s.layer == "sweep.task") {
        walls[s.task.expect("task spans carry their task")] = s.dur();
    }
    let mut results: Vec<TaskResult> = done.into_iter().map(|(_, r)| r).collect();
    let invalid = invalid_list(&results);
    let task_keys = results.iter().map(|r| r.key.clone()).collect();
    let fp = fingerprint(&mut results, opt_totals());
    let layers = layer_metrics(&rows, &spans, &fp, benches, cfg, lowerings.load(Ordering::Relaxed));
    Output {
        meta,
        wall_s,
        setup_s,
        sweep_s,
        peak_rss_mb: peak_rss_mb(),
        tasks: tasks.len(),
        task_walls: walls,
        invalid,
        rows: Vec::new(),
        table_rows: Vec::new(),
        task_keys,
        store: StoreWrites::default(),
        fingerprint: fp,
        sweep: None,
        layers,
        layer_table,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_traced_task(
    tr: &Tracer,
    tid: u64,
    index: usize,
    thread: usize,
    bench: &dyn Benchmark,
    task: &SweepTask,
    cfg: &MachineConfig,
    launch_parallel: bool,
    compiles: &Mutex<HashMap<CompileKey, Arc<OnceLock<Arc<CompiledProgram>>>>>,
    lowerings: &AtomicUsize,
) -> TaskResult {
    set_launch_par_hint(Some(launch_parallel));
    let ds = cached_dataset(bench, SCALE);
    let (oracle, _) = cached_oracle_tracked(bench, SCALE, cfg);
    let pt = task.tuning.unwrap_or_else(|| TuningPoint::best_for(task.model));
    let basis = pt.lowering_basis();
    let cell = {
        let mut m = compiles.lock().expect("compile memo lock");
        Arc::clone(m.entry((task.benchmark.clone(), task.model, basis)).or_default())
    };
    let base = cell.get_or_init(|| {
        lowerings.fetch_add(1, Ordering::Relaxed);
        tr.span("compile.lower", Some(tid), Some(index), thread, |_| {
            Arc::new(compile_port(&bench.port(task.model), task.model, &ds, Some(&basis)))
        })
    });
    let compiled = tr.span("compile.retarget", Some(tid), Some(index), thread, |_| base.with_geometry(&pt));
    let r = tr.span("eval", Some(tid), Some(index), thread, |eid| {
        let (_, _, _, d0) = thread_cache_counters();
        let r = run_compiled(bench, &compiled, &ds, cfg, &oracle.run);
        let (_, _, _, d1) = thread_cache_counters();
        // Key digests run inside the launch path; carve their time out of eval.
        tr.counted("launch_cache", eid, Some(index), thread, (d1 - d0) as f64 * 1e-9);
        r
    });
    set_launch_par_hint(None);
    let device =
        task.device.clone().unwrap_or_else(|| cfg.device.slug().map_or(cfg.device.name.clone(), str::to_string));
    TaskResult {
        key: task_key(&device, &task.benchmark, task.model, task.tuning),
        secs: r.secs,
        summary: r.summary,
        invalid: r.valid.err(),
    }
}

fn layer_metrics(
    rows: &std::collections::BTreeMap<&'static str, f64>,
    spans: &[Span],
    fp: &Fingerprint,
    benches: &[&dyn Benchmark],
    cfg: &MachineConfig,
    lowerings: usize,
) -> Vec<(String, f64)> {
    let row = |k: &str| rows.get(k).copied().unwrap_or(0.0);
    let oracle_ops: u64 = benches.iter().map(|b| cached_oracle_tracked(*b, SCALE, cfg).0.run.ops).sum();
    let tasks = spans.iter().filter(|s| s.layer == "sweep.task").count();
    let lc = launch_cache_totals();
    let st = store_totals();
    let (_, _, nl, np, ni) = native_totals();
    let probes = lc.hits + lc.disk_hits + lc.misses;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("trace.unattributed_s".into(), row("unattributed")),
        ("benchmarks.dataset_s".into(), row("benchmarks")),
        ("cpu.oracle_s".into(), row("cpu")),
        ("cpu.oracle_ops".into(), oracle_ops as f64),
        ("cpu.oracle_mops_per_s".into(), ratio(oracle_ops as f64 / 1e6, row("cpu"))),
        ("compile.lower_s".into(), row("compile.lower")),
        ("compile.lowerings".into(), lowerings as f64),
        ("compile.retarget_s".into(), row("compile.retarget")),
        ("compile.memo_hit_ratio".into(), ratio(tasks.saturating_sub(lowerings) as f64, tasks as f64)),
        ("eval.run_s".into(), row("eval")),
        ("eval.us_per_launch".into(), ratio(row("eval") * 1e6, fp.kernels_launched as f64)),
        ("runtime.kernels_launched".into(), fp.kernels_launched as f64),
        ("runtime.transfers".into(), fp.transfers as f64),
        ("runtime.h2d_bytes".into(), fp.h2d_bytes as f64),
        ("runtime.d2h_bytes".into(), fp.d2h_bytes as f64),
        ("launch_cache.hits".into(), lc.hits as f64),
        ("launch_cache.misses".into(), lc.misses as f64),
        ("launch_cache.hit_ratio".into(), ratio((lc.hits + lc.disk_hits) as f64, probes as f64)),
        ("launch_cache.evictions".into(), lc.evictions as f64),
        ("launch_cache.digest_s".into(), row("launch_cache")),
        ("launch_cache.resident_mb".into(), lc.resident_bytes as f64 / (1024.0 * 1024.0)),
        ("store.disk_hits".into(), st.disk_hits as f64),
        ("store.disk_misses".into(), st.disk_misses as f64),
        ("store.probe_s".into(), row("store")),
        ("store.quarantined".into(), st.quarantined as f64),
        ("opt.kernels".into(), fp.opt_kernels as f64),
        ("opt.ops_pre".into(), fp.opt_ops_pre as f64),
        ("opt.ops_post".into(), fp.opt_ops_post as f64),
        ("opt.cse_hits".into(), fp.opt_cse_hits as f64),
        ("native.launches".into(), nl as f64),
        ("native.promotions".into(), np as f64),
        ("native.ineligible".into(), ni as f64),
        ("sweep.idle_s".into(), row("sweep") + row("setup")),
    ]
}
