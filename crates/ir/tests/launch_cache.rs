//! The launch cache is a speed knob, never a results knob: a warm replay
//! must be observationally identical to the cold execution — same buffer
//! bits, same scalar bits, same evidence totals, same priced cost — and
//! writes to an input buffer must cleanly invalidate the memoized digest so
//! iterative patterns re-execute. Captures derive their deltas and digests
//! from the launch's store journal, so after every miss and every replay the
//! written buffers' memoized digests must equal a fresh full hash.
//! Launches that read through the texture cache are keyed by the cache's
//! entry state and replay its exit state: after every launch the tag lists,
//! counters and trace events must match execution too.

use std::sync::Mutex;

use acceval_ir::builder::*;
use acceval_ir::env::{StoreMode, Toggle};
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::{
    env_from_dataset, launch_traced_with_engine, launch_with_engine, set_launch_par_override, upload_all, DeviceState,
    Engine, LaunchPar, LaunchResult,
};
use acceval_ir::interp::launch_cache::{
    clear_launch_cache, launch_cache_totals, set_launch_cache_cap_override, set_launch_cache_override, LaunchCache,
};
use acceval_ir::interp::opt::set_opt_override;
use acceval_ir::interp::store::{flush_store, set_store_override};
use acceval_ir::kernel::{axis, KernelPlan, MemSpace};
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::stmt::{visit_stmts, Stmt};
use acceval_ir::types::{ReduceOp, ScalarId, Value, VarRef};
use acceval_sim::{Buffer, CacheTags, DeviceConfig, ElemType, NullSink, Payload, RecordingSink, TraceEvent, TraceSink};
use proptest::prelude::*;

/// The cache policy, byte cap, and hit counters are process-global;
/// serialize every test that flips or reads them.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

/// How a launch executes: engine, intra-launch parallelism, optimizer.
#[derive(Debug, Clone, Copy)]
struct Exec {
    eng: Engine,
    par: LaunchPar,
    opt: bool,
}

/// Every store path that journals: the optimized bytecode VM serial and
/// chunked, the unoptimized VM, and the tree walker.
const EXECS: [Exec; 4] = [
    Exec { eng: Engine::Bytecode, par: LaunchPar::Off, opt: true },
    Exec { eng: Engine::Bytecode, par: LaunchPar::On, opt: true },
    Exec { eng: Engine::Bytecode, par: LaunchPar::On, opt: false },
    Exec { eng: Engine::Tree, par: LaunchPar::Off, opt: true },
];

/// Run `f` under cache policy `policy` with an empty cache, restoring the
/// defaults (and clearing again) on exit — also on panic, so one failing
/// test can't poison the store for the others. The persistent store is off
/// inside: these tests count in-memory hits and misses, and a disk tier
/// left on by `ACCEVAL_STORE` would answer probes they expect to miss.
fn with_cache<T>(policy: LaunchCache, f: impl FnOnce() -> T) -> T {
    with_exec(policy, None, f)
}

/// [`with_cache`] with the launch-parallelism and optimizer policies of
/// `exec` installed too (`None` leaves them at their defaults).
fn with_exec<T>(policy: LaunchCache, exec: Option<Exec>, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_cache_override(None);
            set_launch_cache_cap_override(None);
            set_launch_par_override(None);
            set_opt_override(None);
            set_store_override(None);
            clear_launch_cache();
        }
    }
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    clear_launch_cache();
    set_launch_cache_override(Some(policy));
    set_store_override(Some(StoreMode::Off));
    if let Some(x) = exec {
        set_launch_par_override(Some(x.par));
        set_opt_override(Some(if x.opt { Toggle::On } else { Toggle::Off }));
    }
    f()
}

/// Launch `plan` on `eng` from a fresh device/scalar state.
fn run_one(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) -> (DeviceState, Vec<Value>, LaunchResult) {
    let cfg = DeviceConfig::tesla_m2090();
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, &cfg);
    upload_all(p, &mut dev, &host);
    let mut scal = env_from_dataset(p, ds);
    let r = launch_with_engine(p, plan, &mut dev, &mut scal, &cfg, eng);
    (dev, scal, r)
}

fn buffers_bit_equal(a: &Buffer, b: &Buffer) -> bool {
    match (&a.data, &b.data) {
        (Payload::F(x), Payload::F(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Payload::I(x), Payload::I(y)) => x == y,
        _ => false,
    }
}

fn values_bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_states_bit_equal(
    tag: &str,
    (da, sa, ra): &(&DeviceState, &Vec<Value>, Option<&LaunchResult>),
    (db, sb, rb): &(&DeviceState, &Vec<Value>, Option<&LaunchResult>),
) {
    for (i, (x, y)) in da.bufs.iter().zip(db.bufs.iter()).enumerate() {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!(buffers_bit_equal(x, y), "{tag}: buffer {i} diverges"),
            _ => panic!("{tag}: buffer {i} allocated on one path only"),
        }
    }
    for (i, (x, y)) in sa.iter().zip(sb.iter()).enumerate() {
        assert!(values_bit_equal(x, y), "{tag}: scalar {i} diverges: {x:?} vs {y:?}");
    }
    match (ra, rb) {
        (Some(ra), Some(rb)) => assert_results_equal(tag, ra, rb),
        (None, None) => {}
        _ => panic!("{tag}: launch count diverges"),
    }
}

fn assert_results_equal(tag: &str, ra: &LaunchResult, rb: &LaunchResult) {
    assert_eq!(ra.totals, rb.totals, "{tag}: totals diverge");
    assert_eq!(ra.totals.issue_cycles.to_bits(), rb.totals.issue_cycles.to_bits(), "{tag}: issue cycles diverge");
    assert_eq!(ra.footprint, rb.footprint, "{tag}: footprint diverges");
    assert_eq!(ra.active_threads, rb.active_threads, "{tag}: active threads diverge");
    assert_eq!(ra.cost.time_secs.to_bits(), rb.cost.time_secs.to_bits(), "{tag}: priced time diverges");
    assert_eq!(ra.cost, rb.cost, "{tag}: cost breakdown diverges");
}

/// Cold (cache off), capture (first run, cache on), and replay (second run,
/// cache on) must be indistinguishable bit-for-bit; the replay must score a
/// real hit, the capture a real miss.
fn assert_cache_transparent(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) {
    assert_seq_transparent(p, ds, &[(plan, None)], eng, None);
}

/// One launch of a sequence: the plan and an optional integer scalar set
/// on the host just before it (e.g. a wavefront's diagonal index).
type Step<'a> = (&'a KernelPlan, Option<(ScalarId, i64)>);

/// Launch `steps` in order on one fresh device. With `check_memos`, after
/// every launch each array a plan stores to must carry a memoized digest,
/// and every memoized digest must equal a fresh full hash of its buffer.
fn run_seq(
    p: &Program,
    ds: &DataSet,
    steps: &[Step<'_>],
    eng: Engine,
    check_memos: bool,
) -> (DeviceState, Vec<Value>, Vec<LaunchResult>) {
    let cfg = DeviceConfig::tesla_m2090();
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, &cfg);
    upload_all(p, &mut dev, &host);
    let mut scal = env_from_dataset(p, ds);
    let mut results = Vec::with_capacity(steps.len());
    for (k, (plan, set)) in steps.iter().enumerate() {
        if let Some((id, x)) = set {
            scal[id.0 as usize] = Value::I(*x);
        }
        results.push(launch_with_engine(p, plan, &mut dev, &mut scal, &cfg, eng));
        if check_memos {
            let mut written = Vec::new();
            visit_stmts(&plan.body, &mut |s| {
                if let Stmt::Store { array, .. } = s {
                    written.push(array.0 as usize);
                }
            });
            for (i, b) in dev.bufs.iter().enumerate() {
                let Some(b) = b else { continue };
                let memo = dev.tags[i].memoized();
                assert!(
                    memo.is_some() || !written.contains(&i),
                    "kernel {} step {k}: written array {i} has no memoized digest",
                    plan.name
                );
                if let Some(m) = memo {
                    assert_eq!(m, b.content_digest(), "kernel {} step {k}: array {i} memo is stale", plan.name);
                }
            }
        }
    }
    (dev, scal, results)
}

/// [`assert_cache_transparent`] over a launch sequence on one device, under
/// `exec`'s parallelism and optimizer policies (defaults when `None`): the
/// capture pass and the all-hit replay pass both match the cache-off run
/// bit-for-bit after every launch, and every memo stays fresh.
fn assert_seq_transparent(p: &Program, ds: &DataSet, steps: &[Step<'_>], eng: Engine, exec: Option<Exec>) {
    let name = &steps[0].0.name;
    let cold = with_exec(LaunchCache::Off, exec, || run_seq(p, ds, steps, eng, false));
    let (capture, replay, cap_hits, cap_misses, re_hits, re_misses) = with_exec(LaunchCache::On, exec, || {
        let t0 = launch_cache_totals();
        let a = run_seq(p, ds, steps, eng, true);
        let t1 = launch_cache_totals();
        let b = run_seq(p, ds, steps, eng, true);
        let t2 = launch_cache_totals();
        (a, b, t1.hits - t0.hits, t1.misses - t0.misses, t2.hits - t1.hits, t2.misses - t1.misses)
    });
    let n = steps.len() as u64;
    assert!(cap_misses >= 1, "kernel {name}: the first launch must miss and capture");
    assert_eq!(cap_hits + cap_misses, n, "kernel {name}: every capture-pass launch must probe");
    assert_eq!((re_hits, re_misses), (n, 0), "kernel {name}: every re-launch must hit");
    for (tag, run) in [("capture", &capture), ("replay", &replay)] {
        let tag = format!("kernel {name} {tag} vs cold ({eng:?}, {exec:?})");
        for (k, (x, y)) in run.2.iter().zip(&cold.2).enumerate() {
            assert_results_equal(&format!("{tag} step {k}"), x, y);
        }
        assert_states_bit_equal(&tag, &(&run.0, &run.1, run.2.last()), &(&cold.0, &cold.1, cold.2.last()));
    }
}

/// n, x[n] (ramp), y[n] (zero), plus scratch scalars i/j/s/t.
fn fixture(n: i64) -> (Program, DataSet) {
    let mut pb = ProgramBuilder::new("memo");
    let nn = pb.iscalar("n");
    let _i = pb.iscalar("i");
    let _j = pb.iscalar("j");
    let _s = pb.fscalar("s");
    let _t = pb.fscalar("t");
    let x = pb.farray("x", vec![v(nn)]);
    let _y = pb.farray("y", vec![v(nn)]);
    pb.main(vec![]);
    let p = pb.build();
    let ds = DataSet {
        scalars: vec![(nn, Value::I(n))],
        arrays: vec![(x, Buffer::from_f64(ElemType::F64, (0..n).map(|k| (k % 89) as f64 * 0.75 + 1.0).collect()))],
        label: "memo".into(),
    };
    (p, ds)
}

fn finalized(mut k: KernelPlan) -> KernelPlan {
    k.finalize();
    k
}

fn stream_plan(p: &Program) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0 + ld(x, vec![(v(i) + 7i64) % v(n)]))];
    finalized(KernelPlan::new("stream", vec![axis(i, v(n))], body))
}

/// A streaming elementwise kernel replays bit-exactly on both engines.
#[test]
fn streaming_kernel_replays_bit_exactly() {
    let (p, ds) = fixture(3000);
    let plan = stream_plan(&p);
    assert_cache_transparent(&p, &ds, &plan, Engine::Bytecode);
    assert_cache_transparent(&p, &ds, &plan, Engine::Tree);
}

/// Scalar reductions write back through the journaled fold; the replayed
/// scalar must carry the exact fold-order bits.
#[test]
fn reduction_kernel_replays_scalar_bits() {
    let (p, ds) = fixture(2111);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    for op in [ReduceOp::Add, ReduceOp::Max] {
        let body = vec![assign(s, ld(x, vec![v(i)]) * 1.0009765625)];
        let k = KernelPlan::new("red", vec![axis(i, v(n))], body).with_reduction(op, VarRef::Scalar(s));
        assert_cache_transparent(&p, &ds, &finalized(k), Engine::Bytecode);
    }
}

/// A warp-divergent body (branches, select, data-dependent loop trips) has
/// nontrivial evidence totals; replay must reproduce them exactly.
#[test]
fn divergent_kernel_replays_evidence_totals() {
    let (p, ds) = fixture(1024);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![
        assign(s, ld(x, vec![v(i)])),
        iff((v(i) % 3i64).eq_(0i64), vec![assign(s, v(s).sqrt() + 1.0)]),
        if_else(v(s).lt(4.0), vec![assign(s, v(s) * 2.0)], vec![assign(s, v(s) - ld(x, vec![v(i) % v(n)]))]),
        sfor(j, 0i64, 5i64, vec![assign(s, v(s) + ld(x, vec![(v(i) + v(j)) % v(n)]) * 0.125)]),
        store(y, vec![v(i)], (v(i) % 2i64).lt(1i64).select(v(s), v(s).abs() + 0.5)),
    ];
    let plan = finalized(KernelPlan::new("diverge", vec![axis(i, v(n))], body));
    assert_cache_transparent(&p, &ds, &plan, Engine::Bytecode);
    assert_cache_transparent(&p, &ds, &plan, Engine::Tree);
}

/// Uploading different contents into a read buffer bumps its generation:
/// the next launch must miss and execute against the new data, while
/// re-uploading identical contents keeps the memo (and the next launch
/// hits).
#[test]
fn upload_invalidates_input_digest() {
    let (p, ds) = fixture(700);
    let plan = stream_plan(&p);
    let x = p.array_named("x");
    let cfg = DeviceConfig::tesla_m2090();
    let n = 700usize;
    let changed = Buffer::from_f64(ElemType::F64, (0..n).map(|k| (k % 31) as f64 * 1.5 - 4.0).collect());

    // Oracle for the changed input: cache off, fresh state.
    let mut ds2 = ds.clone();
    ds2.arrays[0].1 = changed.clone();
    let cold2 = with_cache(LaunchCache::Off, || run_one(&p, &ds2, &plan, Engine::Bytecode));

    with_cache(LaunchCache::On, || {
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        // Two warm-up launches: the first allocates `y` (changing the layout
        // digest for everything after it), the second captures against the
        // now-stable layout.
        let _ = launch_with_engine(&p, &plan, &mut dev, &mut scal, &cfg, Engine::Bytecode);
        let _ = launch_with_engine(&p, &plan, &mut dev, &mut scal, &cfg, Engine::Bytecode);

        // Same contents re-uploaded: the memoized digest matches, nothing is
        // invalidated, and the repeat launch is a hit.
        dev.upload(x, &host.bufs[x.0 as usize]);
        let t0 = launch_cache_totals();
        let mut scal_hit = env_from_dataset(&p, &ds);
        let _ = launch_with_engine(&p, &plan, &mut dev, &mut scal_hit, &cfg, Engine::Bytecode);
        let t1 = launch_cache_totals();
        assert_eq!(t1.hits - t0.hits, 1, "identical re-upload must not invalidate");

        // New contents: the generation bumps, the key changes, and the
        // launch executes against the new data.
        dev.upload(x, &changed);
        let mut scal2 = env_from_dataset(&p, &ds2);
        let r2 = launch_with_engine(&p, &plan, &mut dev, &mut scal2, &cfg, Engine::Bytecode);
        let t2 = launch_cache_totals();
        assert_eq!(t2.misses - t1.misses, 1, "changed upload must force a miss");
        assert_states_bit_equal(
            "post-upload relaunch vs cold",
            &(&dev, &scal2, Some(&r2)),
            &(&cold2.0, &cold2.1, Some(&cold2.2)),
        );
    });
}

/// Under a tiny byte cap the store evicts least-recently-used entries: the
/// evicted key re-misses, a recently used key still hits, and the resident
/// footprint stays bounded.
#[test]
fn tiny_cap_evicts_lru() {
    let (p, ds) = fixture(64);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let plan_k = |c: f64, name: &'static str| {
        finalized(KernelPlan::new(name, vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * c)]))
    };
    let (evicted, resident, cap, re_hit, re_miss) = with_cache(LaunchCache::On, || {
        let a = plan_k(1.5, "a");
        let b = plan_k(2.5, "b");
        let c = plan_k(3.5, "c");
        // The three effects are shape-identical (a dense 64-element f64
        // rewrite), so measure one entry's honest resident footprint and
        // set a cap that fits two entries but not three.
        let _ = run_one(&p, &ds, &a, Engine::Bytecode);
        let per_entry = launch_cache_totals().resident_bytes;
        assert!(per_entry > 0, "one cached effect must have a nonzero footprint");
        let cap = per_entry * 5 / 2;
        clear_launch_cache();
        set_launch_cache_cap_override(Some(cap));
        let t0 = launch_cache_totals();
        let _ = run_one(&p, &ds, &a, Engine::Bytecode);
        let _ = run_one(&p, &ds, &b, Engine::Bytecode);
        // Touch `b` so `a` is the LRU victim when `c` lands.
        let _ = run_one(&p, &ds, &b, Engine::Bytecode);
        let _ = run_one(&p, &ds, &c, Engine::Bytecode);
        let t1 = launch_cache_totals();
        let _ = run_one(&p, &ds, &b, Engine::Bytecode);
        let t2 = launch_cache_totals();
        let _ = run_one(&p, &ds, &a, Engine::Bytecode);
        let t3 = launch_cache_totals();
        (t1.evictions - t0.evictions, t1.resident_bytes, cap, t2.hits - t1.hits, t3.misses - t2.misses)
    });
    assert!(evicted >= 1, "a third entry under a 2 KiB cap must evict");
    assert!(resident <= cap, "resident bytes ({resident}) must stay under the cap ({cap})");
    assert_eq!(re_hit, 1, "the recently-used entry must survive eviction");
    assert_eq!(re_miss, 1, "the evicted entry must re-miss");
}

/// Build a race-free kernel body from a DNA vector (reads `x`, writes only
/// `y[i]` and thread-local scalars) — the randomized transparency oracle.
/// Besides pure scalar work the DNA can emit guarded (sparse) stores, two
/// stores to the same element, a store that is undone later in the launch,
/// and a write-back of the unchanged value; `final_store` appends a dense
/// `y[i] = s` over the whole range.
fn dna_kernel(p: &Program, dna: &[(u8, i64)], block: u32, final_store: bool) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let t = p.scalar_named("t");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let mut body: Vec<_> = vec![assign(s, ld(x, vec![v(i)]))];
    for &(op, c) in dna {
        let c = c.rem_euclid(13) + 1;
        let stmt = match op % 9 {
            0 => assign(s, v(s) + ld(x, vec![(v(i) * c) % v(n)])),
            1 => assign(s, (v(s) * 0.75).max(v(i).to_f() / c as f64)),
            2 => iff((v(i) % c).eq_(0i64), vec![assign(s, v(s).sqrt() + 1.0)]),
            3 => sfor(j, 0i64, c, vec![assign(s, v(s) + ld(x, vec![(v(i) + v(j)) % v(n)]) * 0.125)]),
            4 => if_else(
                v(s).lt(c as f64),
                vec![assign(s, v(s) + 2.0)],
                vec![assign(s, v(s) - ld(x, vec![v(i) % v(n)]))],
            ),
            5 => assign(s, (v(i) % c).lt(c / 2 + 1).select(v(s) * 1.25, v(s).abs() + 0.5)),
            // Guarded store: every (c + 2)-th element.
            6 => iff((v(i) % (c + 2)).eq_(1i64), vec![store(y, vec![v(i)], v(s) + ld(y, vec![v(i)]))]),
            // Two stores to one element; on odd `c` the second undoes the first.
            7 => iff(
                (v(i) % (c + 3)).eq_(0i64),
                vec![
                    assign(t, ld(y, vec![v(i)])),
                    store(y, vec![v(i)], v(s) * 0.5),
                    store(y, vec![v(i)], if c % 2 == 1 { v(t) } else { v(s) + 1.0 }),
                ],
            ),
            // Write-back of the unchanged value.
            _ => iff((v(i) % c).eq_(0i64), vec![store(y, vec![v(i)], ld(y, vec![v(i)]))]),
        };
        body.push(stmt);
    }
    if final_store {
        body.push(store(y, vec![v(i)], v(s)));
    }
    let mut k = KernelPlan::new("dna", vec![axis(i, v(n))], body);
    k.block = (block, 1);
    finalized(k)
}

/// An NW-shaped wavefront: one launch per anti-diagonal `d`, each storing at
/// most `n` cells of a large 2-D `score` array from its three upper-left
/// neighbours. Every launch is a sparse capture against a buffer the
/// previous launch's capture digested.
#[test]
fn anti_diagonal_wavefront_replays_sparse_deltas() {
    let n = 160i64;
    let mut pb = ProgramBuilder::new("wave");
    let nn = pb.iscalar("n");
    let d = pb.iscalar("d");
    let t = pb.iscalar("t");
    let refm = pb.farray("refm", vec![v(nn) + 1i64, v(nn) + 1i64]);
    let score = pb.farray("score", vec![v(nn) + 1i64, v(nn) + 1i64]);
    pb.main(vec![]);
    let p = pb.build();
    let w = (n + 1) as usize;
    let ds = DataSet {
        scalars: vec![(nn, Value::I(n))],
        arrays: vec![
            (refm, Buffer::from_f64(ElemType::F64, (0..w * w).map(|k| ((k * 7919) % 21) as f64 - 10.0).collect())),
            (
                score,
                Buffer::from_f64(
                    ElemType::F64,
                    (0..w * w).map(|k| if k < w || k % w == 0 { -(k as f64) } else { 0.0 }).collect(),
                ),
            ),
        ],
        label: "wave".into(),
    };
    let (i, j) = (v(t) + 1i64, v(d) - v(t));
    let at = |a, ie, je| ld(a, vec![ie, je]);
    let cell = (at(score, i.clone() - 1i64, j.clone() - 1i64) + at(refm, i.clone(), j.clone()))
        .max(at(score, i.clone() - 1i64, j.clone()) - 1.0)
        .max(at(score, i.clone(), j.clone() - 1i64) - 1.0);
    let plan = finalized(KernelPlan::new("wave", vec![axis(t, v(d))], vec![store(score, vec![i, j], cell)]));
    let steps: Vec<Step<'_>> = (1..=n).map(|k| (&plan, Some((d, k)))).collect();
    for x in EXECS {
        assert_seq_transparent(&p, &ds, &steps, x.eng, Some(x));
    }
}

/// A gather through the texture cache: `y[i] = x[(i * stride) % n] +
/// x[(i * 7 + 3) % n] / 2`, with `x` placed in texture memory.
fn tex_plan(p: &Program, stride: i64, name: &str) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(
        y,
        vec![v(i)],
        ld(x, vec![(v(i) * stride) % v(n)]) + ld(x, vec![(v(i) * 7i64 + 3i64) % v(n)]) * 0.5,
    )];
    finalized(KernelPlan::new(name, vec![axis(i, v(n))], body).with_placement(x, MemSpace::Texture))
}

/// The devices texture launches are checked on: the preset `ACCEVAL_DEVICE`
/// selects, plus one with a texture path (M2090) and one that reads
/// texture-placed data through the unified L1 (P100).
fn tex_devices() -> Vec<DeviceConfig> {
    let mut cfgs = vec![DeviceConfig::tesla_m2090(), DeviceConfig::pascal_p100()];
    let env = DeviceConfig::from_env();
    if !cfgs.contains(&env) {
        cfgs.push(env);
    }
    assert!(cfgs.iter().any(|c| c.has_texture_path) && cfgs.iter().any(|c| !c.has_texture_path));
    cfgs
}

/// What one launch leaves that replay must reproduce: its result, the
/// texture cache's tag lists and (hits, misses) counters after it, and its
/// trace events.
type TexStep = (LaunchResult, CacheTags, (u64, u64), Vec<TraceEvent>);

/// Launch `steps` in order on one fresh device of `cfg`, recording a
/// [`TexStep`] after each. `perturb` runs on the device before the first
/// launch (e.g. to warm the texture cache).
fn run_tex_seq(
    p: &Program,
    ds: &DataSet,
    steps: &[&KernelPlan],
    eng: Engine,
    cfg: &DeviceConfig,
    traced: bool,
    perturb: impl Fn(&mut DeviceState),
) -> (DeviceState, Vec<Value>, Vec<TexStep>) {
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, cfg);
    upload_all(p, &mut dev, &host);
    perturb(&mut dev);
    let mut scal = env_from_dataset(p, ds);
    let mut rec = RecordingSink::new();
    let mut out = Vec::with_capacity(steps.len());
    for plan in steps {
        let sink: &mut dyn TraceSink = if traced { &mut rec } else { &mut NullSink };
        let r = launch_traced_with_engine(p, plan, &mut dev, &mut scal, cfg, sink, eng);
        out.push((r, dev.tex_cache.tags(), (dev.tex_cache.hits, dev.tex_cache.misses), rec.take()));
    }
    (dev, scal, out)
}

/// Two texture runs agree after every launch: results, texture tag lists,
/// counters and trace events, then every buffer and scalar.
fn assert_tex_runs_equal(
    tag: &str,
    (da, sa, a): &(DeviceState, Vec<Value>, Vec<TexStep>),
    (db, sb, b): &(DeviceState, Vec<Value>, Vec<TexStep>),
) {
    assert_eq!(a.len(), b.len(), "{tag}: launch count diverges");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_results_equal(&format!("{tag} step {k}"), &x.0, &y.0);
        assert!(x.1 == y.1, "{tag} step {k}: texture tag lists diverge");
        assert_eq!(x.2, y.2, "{tag} step {k}: texture counters diverge");
        assert_eq!(x.3, y.3, "{tag} step {k}: trace events diverge");
    }
    assert_states_bit_equal(tag, &(da, sa, None), &(db, sb, None));
}

/// A scratch store root for one texture test; removed on drop.
struct TexStore(std::path::PathBuf);

impl TexStore {
    fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("acceval-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        TexStore(root)
    }

    /// Attach the store (inside `with_cache`, which detaches it again).
    fn attach(&self) {
        set_store_override(Some(StoreMode::Path(self.0.clone())));
    }
}

impl Drop for TexStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A texture-reading kernel launched repeatedly on one device: every pass
/// matches the cache-off execution after every launch, on the texture path
/// and the unified-L1 path, under both engines, traced and untraced.
/// Texture effects go through the persistent store only: the first pass
/// captures and spills them (a key that repeats within it may already find
/// its spilled entry), and once the store is flushed every launch of the
/// later passes replays from disk. The in-memory cache never holds one,
/// and with the store detached texture launches are not memoized at all.
#[test]
fn texture_launches_replay_cache_state() {
    let (p, ds) = fixture(6000);
    let a = tex_plan(&p, 5, "tex_a");
    let b = tex_plan(&p, 11, "tex_b");
    // From the second `a` on, each `a` leaves the texture cache as it
    // found it, so later `a`s repeat the second one's key.
    let steps = [&a, &a, &a, &a, &b, &a, &a, &a];
    let n = steps.len() as u64;
    for cfg in tex_devices() {
        for eng in [Engine::Bytecode, Engine::Tree] {
            for traced in [false, true] {
                let tag = format!("{} {eng:?} traced={traced}", cfg.name);
                let cold = with_cache(LaunchCache::Off, || run_tex_seq(&p, &ds, &steps, eng, &cfg, traced, |_| {}));
                assert!(
                    cold.2[0].2 != (0, 0) && cold.2.windows(2).all(|w| w[0].2 != w[1].2),
                    "{tag}: every launch must use the texture cache"
                );
                if traced {
                    assert!(
                        cold.2.iter().all(|s| s.3.iter().any(|e| matches!(e, TraceEvent::CacheCounters { .. }))),
                        "{tag}: every traced launch must emit texture counters"
                    );
                }
                let (detached, detached_counts) = with_cache(LaunchCache::On, || {
                    let t0 = launch_cache_totals();
                    let r = run_tex_seq(&p, &ds, &steps, eng, &cfg, traced, |_| {});
                    let t1 = launch_cache_totals();
                    (r, (t1.hits - t0.hits, t1.disk_hits - t0.disk_hits, t1.misses - t0.misses, t1.entries))
                });
                assert_eq!(detached_counts, (0, 0, 0, 0), "{tag}: without a store texture launches must not probe");
                assert_tex_runs_equal(&format!("{tag} store detached vs cold"), &detached, &cold);
                let store = TexStore::new("tex-replay");
                let (passes, counts) = with_cache(LaunchCache::On, || {
                    store.attach();
                    let (mut passes, mut counts) = (Vec::new(), Vec::new());
                    for _ in 0..3 {
                        let t0 = launch_cache_totals();
                        passes.push(run_tex_seq(&p, &ds, &steps, eng, &cfg, traced, |_| {}));
                        flush_store();
                        let t1 = launch_cache_totals();
                        counts.push((
                            t1.hits - t0.hits,
                            t1.disk_hits - t0.disk_hits,
                            t1.misses - t0.misses,
                            t1.entries,
                        ));
                    }
                    (passes, counts)
                });
                let (hits, disk, misses, entries) = counts[0];
                assert!(
                    (hits, entries) == (0, 0) && disk + misses == n && misses >= 2,
                    "{tag}: the first pass must capture every distinct key and keep none in memory: {counts:?}"
                );
                assert!(
                    counts[1..].iter().all(|&c| c == (0, n, 0, 0)),
                    "{tag}: later passes must replay from disk: {counts:?}"
                );
                for (k, run) in passes.iter().enumerate() {
                    assert_tex_runs_equal(&format!("{tag} pass {k} vs cold"), run, &cold);
                }
            }
        }
    }
}

/// Equal inputs, scalars and geometry meeting a different texture cache
/// must miss: the cache's entry state is part of the launch's identity.
#[test]
fn texture_entry_state_is_keyed() {
    let (p, ds) = fixture(3000);
    let a = tex_plan(&p, 5, "tex_a");
    // Preload the first line of `x` (device address 0) and a line the
    // kernel never reads into the same set.
    let warm = |dev: &mut DeviceState| {
        dev.tex_cache.access(0);
        dev.tex_cache.access(1 << 40);
    };
    for cfg in tex_devices() {
        for eng in [Engine::Bytecode, Engine::Tree] {
            let tag = format!("{} {eng:?}", cfg.name);
            let cold = with_cache(LaunchCache::Off, || run_tex_seq(&p, &ds, &[&a], eng, &cfg, true, warm));
            let store = TexStore::new("tex-keyed");
            let (warmed, warm_counts, cold_hits) = with_cache(LaunchCache::On, || {
                store.attach();
                // Capture the launch from a cold texture cache.
                let _ = run_tex_seq(&p, &ds, &[&a], eng, &cfg, true, |_| {});
                flush_store();
                let t0 = launch_cache_totals();
                let r = run_tex_seq(&p, &ds, &[&a], eng, &cfg, true, warm);
                let t1 = launch_cache_totals();
                let _ = run_tex_seq(&p, &ds, &[&a], eng, &cfg, true, |_| {});
                let t2 = launch_cache_totals();
                (r, (t1.disk_hits - t0.disk_hits, t1.misses - t0.misses), t2.disk_hits - t1.disk_hits)
            });
            assert_eq!(cold_hits, 1, "{tag}: the cold-cache launch must hit");
            assert_eq!(warm_counts, (0, 1), "{tag}: a different texture entry state must miss");
            assert_tex_runs_equal(&format!("{tag} warmed vs cold"), &warmed, &cold);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized race-free bodies across block shapes, launched twice in a
    /// row on one device under every journaling store path: capture and
    /// replay agree with the cache-off execution bit-for-bit.
    #[test]
    fn random_bodies_replay_bit_exactly(
        dna in prop::collection::vec((0u8..9, 0i64..100), 1..8),
        n in 65i64..400,
        block in prop::sample::select(vec![32u32, 64, 128]),
        final_store in 0u8..2,
    ) {
        let (p, ds) = fixture(n);
        let k = dna_kernel(&p, &dna, block, final_store == 1);
        for x in EXECS {
            assert_seq_transparent(&p, &ds, &[(&k, None), (&k, None)], x.eng, Some(x));
        }
    }
}
