//! Engine shoot-out: the bytecode kernel engine, with and without its
//! optimizer, against the reference tree-walking interpreter on the two
//! paper-scale hot loops (JACOBI's stencil sweep and KMEANS's assignment/update
//! kernels), launching each compiled kernel directly so nothing but the
//! execution engine differs.
//!
//! Beyond the criterion numbers, the bench asserts each engine's reason to
//! exist: at least a 3x speedup of bytecode over the tree walker on the
//! JACOBI hot loop (the kernels `report -- figure1` spends its wall time
//! in); and the `opt_speed` gate — the bytecode optimizer must be worth at
//! least 1.5x over raw bytecode on the same loop. Every gate arm uses the
//! same best-of-`BEST_OF` protocol over `GATE_REPS`-launch averages, so no
//! arm gets a noise advantage. A regression below any gate fails `cargo bench`
//! (and the CI bench-smoke job, which runs every bench once in test mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use acceval::benchmarks::{all_benchmarks, Benchmark, Scale};
use acceval::ir::env::Toggle;
use acceval::ir::interp::gpu::{env_from_dataset, launch_with_engine, upload_all, DeviceState, Engine};
use acceval::ir::interp::launch_cache::{set_launch_cache_override, LaunchCache};
use acceval::ir::interp::opt::set_opt_override;
use acceval::ir::program::HostData;
use acceval::models::ModelKind;
use acceval::sim::MachineConfig;

fn benchmark_named(name: &str) -> Box<dyn Benchmark> {
    all_benchmarks().into_iter().find(|b| b.spec().name == name).unwrap_or_else(|| panic!("no benchmark {name}"))
}

/// Mean seconds per launch of every kernel of `name`'s hand-written CUDA
/// port at paper scale, under `eng`.
fn launch_all_kernels(name: &str, eng: Engine, reps: u32, cfg: &MachineConfig) -> f64 {
    let b = benchmark_named(name);
    let ds = b.dataset(Scale::Paper);
    let port = b.port(ModelKind::ManualCuda);
    let compiled = acceval::compile_port(&port, ModelKind::ManualCuda, &ds, None);
    let prog = &compiled.program;
    let host = HostData::materialize(prog, &ds);
    let scal0 = env_from_dataset(prog, &ds);
    let mut dev = DeviceState::new(prog, &cfg.device);
    upload_all(prog, &mut dev, &host);
    let mut scal = scal0.clone();
    let t0 = Instant::now();
    for _ in 0..reps {
        for plan in compiled.kernels.values().flatten() {
            black_box(launch_with_engine(prog, plan, &mut dev, &mut scal, &cfg.device, eng));
        }
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn bench(c: &mut Criterion) {
    let cfg = MachineConfig::keeneland_node();

    // This bench measures raw engine execution; with the launch cache live,
    // repeated identical launches replay from the cache on both sides and
    // the ratio collapses toward 1x. Pin it off for the whole process.
    set_launch_cache_override(Some(LaunchCache::Off));

    // The acceptance gates, measured outside criterion so they also run
    // (and fail loudly) in `cargo bench -- --test` smoke mode. Every arm —
    // tree, raw bytecode, optimized bytecode — is measured with the
    // identical protocol: best of `BEST_OF` timings, each the mean over
    // `GATE_REPS` full-kernel-set launches. (An earlier version gave the
    // optimizer arms more reps than the tree arms, which let the two gates'
    // numbers drift apart; ratios are only honest when both sides of a
    // division saw the same measurement discipline.)
    const BEST_OF: usize = 3;
    const GATE_REPS: u32 = 5;
    let best = |name: &str, eng: Engine, opt: Toggle| {
        set_opt_override(Some(opt));
        let t = (0..BEST_OF).map(|_| launch_all_kernels(name, eng, GATE_REPS, &cfg)).fold(f64::MAX, f64::min);
        set_opt_override(None);
        t
    };
    let tree = best("JACOBI", Engine::Tree, Toggle::On);
    let byte = best("JACOBI", Engine::Bytecode, Toggle::On);
    let speedup = tree / byte;
    println!("JACOBI hot loop (paper scale): tree {tree:.4}s, bytecode {byte:.4}s");
    println!("bytecode speedup over tree: {speedup:.1}x");
    assert!(
        speedup >= 3.0,
        "bytecode engine must be >= 3x the tree walker on the JACOBI hot loop, got {speedup:.2}x \
         (tree {tree:.4}s vs bytecode {byte:.4}s)"
    );

    // `opt_speed` gate: the optimizer pipeline (uniform-prelude hoisting,
    // CSE, strength reduction, typed lowering) must pay for itself on the
    // very loop the sweep lives in.
    let raw = best("JACOBI", Engine::Bytecode, Toggle::Off);
    let opt = best("JACOBI", Engine::Bytecode, Toggle::On);
    let opt_ratio = raw / opt;
    println!("opt_speed: JACOBI hot loop (paper scale): opt-off {raw:.4}s, opt-on {opt:.4}s");
    println!("opt_speed: optimizer speedup over raw bytecode: {opt_ratio:.2}x");
    assert!(
        opt_ratio >= 1.5,
        "opt_speed gate: bytecode optimizer must be >= 1.5x raw bytecode on the JACOBI hot loop, \
         got {opt_ratio:.2}x (opt-off {raw:.4}s vs opt-on {opt:.4}s)"
    );

    let mut g = c.benchmark_group("engine_speed");
    g.sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    for name in ["JACOBI", "KMEANS"] {
        for (label, eng, opt) in [
            ("tree", Engine::Tree, Toggle::On),
            ("bytecode-raw", Engine::Bytecode, Toggle::Off),
            ("bytecode-opt", Engine::Bytecode, Toggle::On),
        ] {
            g.bench_with_input(BenchmarkId::new(label, name), &(eng, opt), |b, &(eng, opt)| {
                set_opt_override(Some(opt));
                b.iter(|| black_box(launch_all_kernels(name, eng, 1, &cfg)));
                set_opt_override(None);
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
