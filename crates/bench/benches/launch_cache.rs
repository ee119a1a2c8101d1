//! Launch memoization: the JACOBI × models tuning subset launched cold
//! (empty cache — every launch executes and captures) versus warm (every
//! launch replays its captured effect).
//!
//! Beyond the criterion numbers, the bench asserts two gates. The cache's
//! reason to exist: at least a 2x speedup warm-over-cold on this subset.
//! Its price: a first pass over NW's default-point tasks from an empty cache
//! (every launch misses and captures) may take at most 1.5x the same pass
//! with the cache off. NW writes one anti-diagonal of a 263k-element score
//! buffer per launch, so capture must cost what a launch stores, not what
//! the buffer holds. Results are bit-identical either way (the equivalence
//! suites enforce that); these gates guard the speed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use acceval::benchmarks::{all_benchmarks, Benchmark, Scale};
use acceval::ir::interp::gpu::{env_from_dataset, launch, upload_all, DeviceState};
use acceval::ir::interp::launch_cache::{clear_launch_cache, set_launch_cache_override, LaunchCache};
use acceval::ir::program::HostData;
use acceval::models::{model, ModelKind, TuningPoint};
use acceval::run_gpu_program;
use acceval::sim::MachineConfig;
use acceval::sweep::{cached_compile, cached_dataset};

fn benchmark_named(name: &str) -> Box<dyn Benchmark> {
    all_benchmarks().into_iter().find(|b| b.spec().name == name).unwrap_or_else(|| panic!("no benchmark {name}"))
}

/// The JACOBI × models tuning subset: every Figure 1 model at its default
/// point plus (for tunable models) the first two distinct tuning points.
fn tuning_subset() -> Vec<(ModelKind, Option<TuningPoint>)> {
    let mut tasks = Vec::new();
    for kind in ModelKind::figure1_models() {
        tasks.push((kind, None));
        if kind != ModelKind::ManualCuda {
            let default = TuningPoint::best_for(kind);
            let mut extra = 0;
            for pt in model(kind).tuning_space() {
                if pt != default && extra < 2 {
                    tasks.push((kind, Some(pt)));
                    extra += 1;
                }
            }
        }
    }
    tasks
}

/// Seconds for one pass over the subset: each task's kernels launched once
/// from a fresh device state at paper scale. Compiles, datasets, and the
/// oracle are memoized outside the timed region; the pass measures the
/// launch path (and, warm, the replay path) alone.
fn sweep_pass(b: &dyn Benchmark, tasks: &[(ModelKind, Option<TuningPoint>)], cfg: &MachineConfig) -> f64 {
    let ds = cached_dataset(b, Scale::Paper);
    let t0 = Instant::now();
    for (kind, pt) in tasks {
        let compiled = cached_compile(b, *kind, Scale::Paper, pt.as_ref());
        let prog = &compiled.program;
        let host = HostData::materialize(prog, &ds);
        let mut dev = DeviceState::new(prog, &cfg.device);
        upload_all(prog, &mut dev, &host);
        let mut scal = env_from_dataset(prog, &ds);
        for plan in compiled.kernels.values().flatten() {
            black_box(launch(prog, plan, &mut dev, &mut scal, &cfg.device));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Seconds for one pass over NW's Figure 1 models at their default points:
/// each task's whole program run at paper scale (one launch per
/// anti-diagonal). Compiles and the dataset are memoized outside the timed
/// region.
fn nw_pass(b: &dyn Benchmark, cfg: &MachineConfig) -> f64 {
    let ds = cached_dataset(b, Scale::Paper);
    let compiled: Vec<_> =
        ModelKind::figure1_models().into_iter().map(|kind| cached_compile(b, kind, Scale::Paper, None)).collect();
    let t0 = Instant::now();
    for c in &compiled {
        black_box(run_gpu_program(c, &ds, cfg).expect("NW runs"));
    }
    t0.elapsed().as_secs_f64()
}

/// The capture-overhead gate: best-of-3 first passes over NW from an empty
/// cache with the cache on, against the same pass with the cache off.
fn capture_overhead_gate(cfg: &MachineConfig) {
    let nw = benchmark_named("NW");
    set_launch_cache_override(Some(LaunchCache::Off));
    let _ = nw_pass(nw.as_ref(), cfg); // memoize compiles and the dataset
    let best_of_3 = |policy| {
        set_launch_cache_override(Some(policy));
        (0..3)
            .map(|_| {
                clear_launch_cache();
                nw_pass(nw.as_ref(), cfg)
            })
            .fold(f64::MAX, f64::min)
    };
    let off = best_of_3(LaunchCache::Off);
    let on = best_of_3(LaunchCache::On);
    clear_launch_cache();
    let ratio = on / off;
    println!("NW default points, first pass (paper scale): cache off {off:.4}s, cache on from empty {on:.4}s");
    println!("launch-cache capture overhead: {ratio:.2}x");
    assert!(
        ratio <= 1.5,
        "a first NW pass from an empty launch cache must take <= 1.5x the cache-off pass, \
         got {ratio:.2}x (on {on:.4}s vs off {off:.4}s)"
    );
}

fn bench(c: &mut Criterion) {
    let cfg = MachineConfig::keeneland_node();
    capture_overhead_gate(&cfg);
    let b = benchmark_named("JACOBI");
    let tasks = tuning_subset();
    set_launch_cache_override(Some(LaunchCache::On));

    // Pre-warm the compile/dataset memos so the cold pass measures launch
    // execution, not lowering.
    clear_launch_cache();
    let _ = sweep_pass(b.as_ref(), &tasks, &cfg);

    // The acceptance gate, measured outside criterion so it also runs (and
    // fails loudly) in `cargo bench -- --test` smoke mode. Best-of-3 per
    // mode to shrug off scheduler noise.
    let cold = (0..3)
        .map(|_| {
            clear_launch_cache();
            sweep_pass(b.as_ref(), &tasks, &cfg)
        })
        .fold(f64::MAX, f64::min);
    clear_launch_cache();
    let _ = sweep_pass(b.as_ref(), &tasks, &cfg); // warm the cache
    let warm = (0..3).map(|_| sweep_pass(b.as_ref(), &tasks, &cfg)).fold(f64::MAX, f64::min);
    let speedup = cold / warm;
    println!("JACOBI x models tuning subset ({} tasks, paper scale): cold {cold:.4}s, warm {warm:.4}s", tasks.len());
    println!("launch-cache speedup warm-over-cold: {speedup:.1}x");
    assert!(
        speedup >= 2.0,
        "warm launch-cache passes must be >= 2x the cold pass on the JACOBI x models subset, \
         got {speedup:.2}x (cold {cold:.4}s vs warm {warm:.4}s)"
    );

    let mut g = c.benchmark_group("launch_cache");
    g.sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    g.bench_function("cold", |bch| {
        bch.iter(|| {
            clear_launch_cache();
            black_box(sweep_pass(b.as_ref(), &tasks, &cfg))
        })
    });
    g.bench_function("warm", |bch| {
        clear_launch_cache();
        let _ = sweep_pass(b.as_ref(), &tasks, &cfg);
        bch.iter(|| black_box(sweep_pass(b.as_ref(), &tasks, &cfg)))
    });
    g.finish();
    set_launch_cache_override(None);
    clear_launch_cache();
}

criterion_group!(benches, bench);
criterion_main!(benches);
