//! Sweep-level determinism for the persistent launch store: the store is a
//! speed knob, never a results knob. Figure 1 renders byte-identically with
//! the store off, cold, and warm (served from disk after the in-memory LRU
//! is wiped), at any worker count; corrupting every file on disk degrades
//! only speed; and a second process warm-starts from the first's store.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::figures::figure1;
use acceval::ir::env::StoreMode;
use acceval::ir::interp::launch_cache::{
    clear_launch_cache, launch_cache_totals, set_launch_cache_override, LaunchCache,
};
use acceval::ir::interp::store::{flush_store, set_store_override, store_totals, LAYOUT};
use acceval::models::ModelKind;
use acceval::profile::chrome_trace;
use acceval::report::figure1_csv;
use acceval::sim::{MachineConfig, RecordingSink};
use acceval::sweep::{cached_compile, cached_dataset, cached_oracle};

/// The store override, the launch-cache override, their global counters, and
/// `RAYON_NUM_THREADS` are process-global; serialize the tests that flip them.
static STORE_LOCK: Mutex<()> = Mutex::new(());

/// A fresh scratch directory for one test's store.
fn scratch_root(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "acceval-store-sweep-{}-{}-{name}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&root);
    root
}

/// Run `f` with the launch cache pinned to `cache`, the store pinned to
/// `store`, and `threads` rayon workers, from a cold in-memory LRU. Restores
/// every global on exit (also on panic). The on-disk store at a `Path` mode
/// persists across calls — that is the point.
fn with_store<T>(store: StoreMode, cache: LaunchCache, threads: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            flush_store();
            set_store_override(None);
            set_launch_cache_override(None);
            std::env::remove_var("RAYON_NUM_THREADS");
            clear_launch_cache();
        }
    }
    let _guard = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    clear_launch_cache();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    set_launch_cache_override(Some(cache));
    set_store_override(Some(store));
    f()
}

fn flip_every_entry(root: &Path) -> usize {
    let mut flipped = 0;
    let Ok(shards) = fs::read_dir(root.join(LAYOUT)) else { return 0 };
    for shard in shards.flatten() {
        let name = shard.file_name().to_string_lossy().into_owned();
        if !shard.path().is_dir() || name == "tmp" || name == "quarantine" {
            continue;
        }
        for file in fs::read_dir(shard.path()).into_iter().flatten().flatten() {
            let path = file.path();
            if path.extension().is_none_or(|e| e != "bin") {
                continue;
            }
            let mut data = fs::read(&path).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0x5a;
            fs::write(&path, &data).unwrap();
            flipped += 1;
        }
    }
    flipped
}

/// Figure 1 (tuning on) renders to a byte-identical CSV with the store off,
/// with a cold store, and — after wiping the in-memory LRU — warm from disk,
/// at 1, 2, and 8 workers. The warm pass must genuinely hit the disk tier.
#[test]
fn figure1_csv_is_store_independent() {
    let cfg = MachineConfig::keeneland_node();
    let baseline = with_store(StoreMode::Off, LaunchCache::Off, 1, || figure1_csv(&figure1(&cfg, Scale::Test, true)));
    for threads in [1usize, 2, 8] {
        let root = scratch_root("csv");
        let cold = with_store(StoreMode::Path(root.clone()), LaunchCache::On, threads, || {
            let csv = figure1_csv(&figure1(&cfg, Scale::Test, true));
            flush_store();
            csv
        });
        assert_eq!(baseline, cold, "figure1.csv must be byte-identical with a cold store at {threads} workers");
        let (warm, disk_hits) = with_store(StoreMode::Path(root.clone()), LaunchCache::On, threads, || {
            let t0 = launch_cache_totals();
            let csv = figure1_csv(&figure1(&cfg, Scale::Test, true));
            (csv, launch_cache_totals().disk_hits - t0.disk_hits)
        });
        assert_eq!(baseline, warm, "figure1.csv must be byte-identical warm-from-disk at {threads} workers");
        assert!(disk_hits > 0, "the warm pass must score disk hits at {threads} workers");
        let _ = fs::remove_dir_all(&root);
    }
}

/// Corrupting every store file between passes costs only speed: the next
/// sweep quarantines the damage, recomputes, and renders the same CSV.
#[test]
fn corrupted_store_degrades_speed_never_results() {
    let cfg = MachineConfig::keeneland_node();
    let root = scratch_root("corrupt");
    let baseline = with_store(StoreMode::Path(root.clone()), LaunchCache::On, 2, || {
        let csv = figure1_csv(&figure1(&cfg, Scale::Test, true));
        flush_store();
        csv
    });
    let flipped = flip_every_entry(&root);
    assert!(flipped > 0, "the cold pass must have spilled entries to corrupt");
    let (csv, quarantined, disk_hits) = with_store(StoreMode::Path(root.clone()), LaunchCache::On, 2, || {
        let t0 = store_totals();
        let csv = figure1_csv(&figure1(&cfg, Scale::Test, true));
        let t1 = store_totals();
        (csv, t1.quarantined - t0.quarantined, launch_cache_totals())
    });
    assert_eq!(baseline, csv, "a fully corrupted store must not change figure1.csv");
    assert!(quarantined > 0, "corrupt entries must be quarantined, not retried forever");
    let _ = disk_hits;
    let _ = fs::remove_dir_all(&root);
}

/// A profiled (traced) run replayed from disk re-emits the identical Chrome
/// trace: captured event slices survive the serialize/deserialize round trip.
#[test]
fn chrome_trace_is_identical_replayed_from_disk() {
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let root = scratch_root("trace");
    let run_traced = || {
        let ds = cached_dataset(b.as_ref(), Scale::Test);
        let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
        let compiled = cached_compile(b.as_ref(), ModelKind::ManualCuda, Scale::Test, None);
        let mut sink = RecordingSink::new();
        let run = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink);
        assert!(run.valid.is_ok(), "jacobi must validate: {:?}", run.valid);
        (chrome_trace(&sink.take()), run.secs.to_bits(), run.speedup.to_bits())
    };
    let (cold_trace, cold_secs, cold_speedup) = with_store(StoreMode::Path(root.clone()), LaunchCache::On, 1, || {
        let out = run_traced();
        flush_store();
        out
    });
    // Fresh LRU: the second traced run replays every launch from disk.
    let (warm_trace, warm_secs, warm_speedup, disk_hits) =
        with_store(StoreMode::Path(root.clone()), LaunchCache::On, 1, || {
            let t0 = launch_cache_totals();
            let (t, s, sp) = run_traced();
            (t, s, sp, launch_cache_totals().disk_hits - t0.disk_hits)
        });
    assert_eq!(cold_secs, warm_secs, "simulated seconds must be bit-identical replayed from disk");
    assert_eq!(cold_speedup, warm_speedup, "speedup must be bit-identical replayed from disk");
    assert_eq!(cold_trace, warm_trace, "chrome trace must be byte-identical replayed from disk");
    assert!(disk_hits > 0, "the traced replay must come from the disk tier");
    let _ = fs::remove_dir_all(&root);
}

// ---- cross-process warm start ----------------------------------------------

/// Helper body run as a child process by `warm_start_crosses_processes`:
/// sweeps Figure 1 with the store rooted at `ACCEVAL_STORE`, writes the CSV
/// to `ACCEVAL_TEST_CSV_OUT`, and prints the disk-hit count on stdout.
#[test]
#[ignore = "child-process helper; spawned by warm_start_crosses_processes"]
fn store_child() {
    if std::env::var("ACCEVAL_STORE_CHILD").is_err() {
        return;
    }
    let cfg = MachineConfig::keeneland_node();
    let csv = figure1_csv(&figure1(&cfg, Scale::Test, true));
    let t = launch_cache_totals();
    flush_store();
    fs::write(std::env::var("ACCEVAL_TEST_CSV_OUT").unwrap(), &csv).unwrap();
    println!("STORE_CHILD disk_hits={} memory_hits={} misses={}", t.disk_hits, t.hits, t.misses);
}

/// The warm state survives a process restart: a second process pointed at the
/// first's store serves its launches from disk and renders the same CSV.
#[test]
fn warm_start_crosses_processes() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = scratch_root("procs");
    let exe = std::env::current_exe().expect("test binary path");
    let run_child = |csv_out: &Path| {
        let out = Command::new(&exe)
            .args(["store_child", "--exact", "--ignored", "--nocapture"])
            .env("ACCEVAL_STORE", &root)
            .env("ACCEVAL_LAUNCH_CACHE", "on")
            .env("ACCEVAL_STORE_CHILD", "1")
            .env("ACCEVAL_TEST_CSV_OUT", csv_out)
            .env("RAYON_NUM_THREADS", "2")
            .output()
            .expect("child spawns");
        assert!(out.status.success(), "child failed:\n{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // Under `--nocapture` the harness's "test ... " prefix shares the
        // line with our report, so search by substring, not line start.
        let line = stdout
            .lines()
            .find(|l| l.contains("STORE_CHILD "))
            .unwrap_or_else(|| panic!("no child report line in stdout:\n{stdout}"));
        let field = |name: &str| -> u64 {
            line.split_whitespace()
                .find_map(|f| f.strip_prefix(name))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {name} field in: {line}"))
        };
        (field("disk_hits="), field("misses="))
    };
    let csv1 = root.with_extension("csv1");
    let csv2 = root.with_extension("csv2");
    let (hits1, misses1) = run_child(&csv1);
    let (hits2, misses2) = run_child(&csv2);
    // The first process can score a few disk hits against its *own* spills
    // (the in-memory LRU evicts under its byte cap mid-sweep), but the
    // second process starts with a full store and an empty LRU: far more
    // disk hits, far fewer executed launches.
    assert!(hits2 > hits1, "the second process must warm-start from the first's store ({hits2} vs {hits1})");
    assert!(misses2 * 2 < misses1, "warm-starting must execute far fewer launches ({misses2} vs {misses1})");
    assert_eq!(
        fs::read(&csv1).unwrap(),
        fs::read(&csv2).unwrap(),
        "both processes must render byte-identical figure1.csv"
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_file(&csv1);
    let _ = fs::remove_file(&csv2);
}
