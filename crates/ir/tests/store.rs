//! Persistent-store failure-injection tests: every way an on-disk entry can
//! be wrong (truncated, bit-flipped, header-damaged, address-collided) must
//! degrade to a plain miss — never a panic, never a wrong payload — and
//! structurally bad files must be quarantined out of the probe path.
//!
//! The store is process-global (mode override, counters, spiller thread), so
//! every test runs under one mutex and uses its own scratch root.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use acceval_ir::env::StoreMode;
use acceval_ir::interp::store::{
    clear_store, flush_store, get_blob, put_blob, set_store_cap_override, set_store_override, store_stats,
    store_totals, KIND_LAUNCH, KIND_ORACLE, LAYOUT,
};

static STORE_LOCK: Mutex<()> = Mutex::new(());

/// A scratch store rooted in a per-test temp dir; resets all process-global
/// store state (mode + cap overrides) and removes the dir on drop.
struct Scratch {
    root: PathBuf,
    _guard: MutexGuard<'static, ()>,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let guard = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "acceval-store-test-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        set_store_override(Some(StoreMode::Path(root.clone())));
        Scratch { root, _guard: guard }
    }

    /// Every published entry file under the shard dirs (not tmp/quarantine).
    fn entries(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(self.root.join(LAYOUT)) else { return out };
        for shard in shards.flatten() {
            let name = shard.file_name().to_string_lossy().into_owned();
            if !shard.path().is_dir() || name == "tmp" || name == "quarantine" {
                continue;
            }
            if let Ok(files) = fs::read_dir(shard.path()) {
                out.extend(files.flatten().map(|f| f.path()).filter(|p| p.extension().is_some_and(|e| e == "bin")));
            }
        }
        out.sort();
        out
    }

    fn quarantined(&self) -> usize {
        fs::read_dir(self.root.join(LAYOUT).join("quarantine")).map(|d| d.flatten().count()).unwrap_or(0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        flush_store();
        set_store_override(None);
        set_store_cap_override(None);
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn put_and_flush(kind: u8, key: &[u8], payload: &[u8]) {
    put_blob(kind, key.to_vec(), payload.to_vec());
    flush_store();
}

#[test]
fn round_trips_blobs_and_separates_kinds_and_keys() {
    let s = Scratch::new("roundtrip");
    put_and_flush(KIND_ORACLE, b"oracle/jacobi", b"payload-a");
    put_and_flush(KIND_ORACLE, b"oracle/spmul", b"payload-b");

    assert_eq!(get_blob(KIND_ORACLE, b"oracle/jacobi").as_deref(), Some(&b"payload-a"[..]));
    assert_eq!(get_blob(KIND_ORACLE, b"oracle/spmul").as_deref(), Some(&b"payload-b"[..]));
    // Same key bytes under a different kind address a different entry.
    assert_eq!(get_blob(KIND_LAUNCH, b"oracle/jacobi"), None);
    assert_eq!(get_blob(KIND_ORACLE, b"oracle/absent"), None);
    assert_eq!(s.entries().len(), 2);
    assert_eq!(s.quarantined(), 0);
}

#[test]
fn entries_are_immutable_once_published() {
    let s = Scratch::new("immutable");
    put_and_flush(KIND_ORACLE, b"key", b"first");
    // A second spill for the same key is a no-op: the published entry wins.
    put_and_flush(KIND_ORACLE, b"key", b"second");
    assert_eq!(get_blob(KIND_ORACLE, b"key").as_deref(), Some(&b"first"[..]));
    assert_eq!(s.entries().len(), 1);
}

#[test]
fn truncated_entry_is_a_miss_and_quarantined() {
    let s = Scratch::new("truncated");
    put_and_flush(KIND_ORACLE, b"key", b"some payload bytes");
    let entry = s.entries().pop().expect("entry published");
    let data = fs::read(&entry).unwrap();
    for keep in [0usize, 1, 7, 8, 12, data.len() / 2, data.len() - 1] {
        fs::write(&entry, &data[..keep]).unwrap();
        let before = store_totals().quarantined;
        assert_eq!(get_blob(KIND_ORACLE, b"key"), None, "truncation to {keep} bytes must miss");
        assert_eq!(store_totals().quarantined, before + 1);
        assert!(!entry.exists(), "corrupt entry must leave the probe path");
        // Re-publish for the next truncation point.
        put_and_flush(KIND_ORACLE, b"key", b"some payload bytes");
    }
    assert!(s.quarantined() > 0);
    // The store still works after all that damage.
    assert_eq!(get_blob(KIND_ORACLE, b"key").as_deref(), Some(&b"some payload bytes"[..]));
}

#[test]
fn flipped_byte_anywhere_is_a_miss_and_quarantined() {
    let s = Scratch::new("bitflip");
    put_and_flush(KIND_ORACLE, b"key", b"checksummed payload");
    let entry = s.entries().pop().expect("entry published");
    let data = fs::read(&entry).unwrap();
    // Flip a byte in every region: magic, version, kind, epoch, key, payload,
    // checksum.
    for pos in [0usize, 9, 12, 14, 18, data.len() - 20, data.len() - 1] {
        let mut bad = data.clone();
        let idx = pos % bad.len();
        bad[idx] ^= 0x40;
        fs::write(&entry, &bad).unwrap();
        assert_eq!(get_blob(KIND_ORACLE, b"key"), None, "flip at {pos} must miss");
        assert!(!entry.exists(), "flip at {pos} must quarantine");
        put_and_flush(KIND_ORACLE, b"key", b"checksummed payload");
    }
}

#[test]
fn address_collision_is_a_plain_miss_not_quarantine() {
    let s = Scratch::new("collision");
    // Simulate a weak-hash collision: a valid, checksummed entry for key-a
    // sitting at the address the probe computes for key-b. The frame
    // verifies but carries the wrong key, so the probe must miss — and
    // because the file is not corrupt, it must NOT be quarantined (the
    // rightful owner's entry stays usable).
    put_and_flush(KIND_ORACLE, b"key-a", b"payload-a");
    put_and_flush(KIND_ORACLE, b"key-b", b"payload-b");
    let entries = s.entries();
    assert_eq!(entries.len(), 2);
    // The frame embeds the key bytes, so identify each file by content.
    let holds = |path: &Path, key: &[u8]| {
        let data = fs::read(path).unwrap();
        data.windows(key.len()).any(|w| w == key)
    };
    let a_path = entries.iter().find(|p| holds(p, b"key-a")).expect("key-a entry");
    let b_path = entries.iter().find(|p| holds(p, b"key-b")).expect("key-b entry");
    fs::copy(a_path, b_path).unwrap();

    let before = store_totals().quarantined;
    assert_eq!(get_blob(KIND_ORACLE, b"key-b"), None, "collided address must miss");
    assert_eq!(get_blob(KIND_ORACLE, b"key-a").as_deref(), Some(&b"payload-a"[..]));
    assert_eq!(store_totals().quarantined, before, "a mismatched key is not corruption");
    assert_eq!(s.quarantined(), 0);
    assert!(b_path.exists(), "mismatched entries stay on disk");
}

#[test]
fn store_off_is_inert() {
    let _s = Scratch::new("off-inner");
    set_store_override(Some(StoreMode::Off));
    let before = store_totals();
    put_blob(KIND_ORACLE, b"key".to_vec(), b"payload".to_vec());
    flush_store();
    assert_eq!(get_blob(KIND_ORACLE, b"key"), None);
    let after = store_totals();
    assert_eq!(after.spills, before.spills);
    assert_eq!(after.disk_hits, before.disk_hits);
    assert_eq!(after.disk_misses, before.disk_misses, "off mode must not even count probes");
    assert!(store_stats().root.is_none());
}

#[test]
fn eviction_respects_byte_cap_without_breaking_live_probes() {
    let s = Scratch::new("eviction");
    // ~100-byte entries under a 1-byte cap: every publish triggers eviction
    // down to 90% of cap, i.e. everything older goes.
    set_store_cap_override(Some(1));
    let before = store_totals().evicted;
    for i in 0..8u32 {
        put_and_flush(KIND_ORACLE, format!("key-{i}").as_bytes(), &[i as u8; 64]);
    }
    assert!(store_totals().evicted > before, "tiny cap must force evictions");
    assert!(s.entries().len() < 8, "evicted entries must leave the shards");
    // Evicted entries are plain misses; the store stays usable.
    set_store_cap_override(None);
    put_and_flush(KIND_ORACLE, b"fresh", b"fresh payload");
    assert_eq!(get_blob(KIND_ORACLE, b"fresh").as_deref(), Some(&b"fresh payload"[..]));
}

#[test]
fn clear_store_removes_everything_and_reports_count() {
    let s = Scratch::new("clear");
    put_and_flush(KIND_ORACLE, b"key-a", b"payload");
    put_and_flush(KIND_ORACLE, b"key-b", b"payload");
    assert_eq!(store_stats().entries, 2);
    let removed = clear_store();
    assert_eq!(removed, 2);
    assert_eq!(store_stats().entries, 0);
    assert_eq!(get_blob(KIND_ORACLE, b"key-a"), None);
    assert!(s.entries().is_empty());
}

#[test]
fn stats_count_entries_bytes_and_quarantine() {
    let s = Scratch::new("stats");
    put_and_flush(KIND_ORACLE, b"key-a", b"payload-a");
    put_and_flush(KIND_ORACLE, b"key-b", b"payload-b");
    let stats = store_stats();
    assert_eq!(stats.root.as_deref(), Some(s.root.as_path()));
    assert_eq!(stats.entries, 2);
    assert!(stats.bytes > 0);
    assert_eq!(stats.quarantined, 0);
    // Damage one entry; the next probe quarantines it and stats follow.
    let entry = s.entries().pop().unwrap();
    let mut data = fs::read(&entry).unwrap();
    let len = data.len();
    data[len - 1] ^= 0xff;
    fs::write(&entry, &data).unwrap();
    let _ = get_blob(KIND_ORACLE, b"key-a");
    let _ = get_blob(KIND_ORACLE, b"key-b");
    let stats = store_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.quarantined, 1);
}

/// The quarantine dir itself must never satisfy a probe, even when it holds
/// a byte-identical copy of a valid entry.
#[test]
fn quarantine_dir_is_outside_the_probe_path() {
    let s = Scratch::new("qdir");
    put_and_flush(KIND_ORACLE, b"key", b"payload");
    let entry = s.entries().pop().unwrap();
    let qdir = s.root.join(LAYOUT).join("quarantine");
    fs::create_dir_all(&qdir).unwrap();
    fs::copy(&entry, qdir.join(entry.file_name().unwrap())).unwrap();
    fs::remove_file(&entry).unwrap();
    assert_eq!(get_blob(KIND_ORACLE, b"key"), None);
}
