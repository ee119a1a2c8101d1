//! Content-addressed memoization of kernel launches.
//!
//! A launch on the simulated device is a *pure* function of its content:
//! the plan's geometry-invariant fingerprint, the live launch geometry, the
//! device configuration, the host scalar environment, and the contents of
//! every device array the body can read (plus, for a launch with texture
//! sites, the texture cache's tag lists). The tuning sweep re-runs thousands
//! of launches that are bit-identical under that key — tuning points share
//! their lowering basis, so for most kernels only one knob differs between
//! tasks while every other kernel repeats the exact same work. This module
//! pays for each distinct launch once per process and replays its complete
//! captured effect everywhere else: per-array output deltas, scalar
//! writebacks, the texture cache's exit state, the [`LaunchResult`], and
//! the launch's relative trace-event slice, so even `RecordingSink` output
//! is byte-identical on a hit.
//!
//! Keys stay cheap through the generation tags on [`super::gpu::DeviceState`]
//! buffers ([`acceval_sim::BufGen`]): content digests are memoized per
//! (buffer, generation), and replay primes the written buffers' memos from
//! the stored output digests — so steady-state probes hash nothing.
//!
//! The cache is bounded (`ACCEVAL_LAUNCH_CACHE_CAP_MB`, default 512) with
//! LRU eviction, so iterative benchmarks whose inputs change every step
//! miss cleanly without ballooning memory.
//!
//! Below the LRU sits an optional disk tier ([`super::store`]): an in-memory
//! miss probes the persistent store before executing, a disk hit is promoted
//! into the LRU, and captured effects are spilled write-behind — so a fresh
//! process warm-starts from everything earlier processes computed.
//!
//! Texture launches use the disk tier only: they are keyed and captured
//! only while the store is enabled, spilled, and never held in the LRU.
//! Their keys include the texture cache's state, which any different
//! launch sequence before them changes, so they rarely recur within one
//! process (none of the 61 texture launches of a CFD/NW/CG Figure-1 sweep
//! do), while their dense outputs are large. A later process that repeats
//! the sweep finds every one of them on disk.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use acceval_sim::{Buffer, CacheTags, TraceEvent};

use super::gpu::LaunchResult;
use crate::types::Value;

/// Launch-memoization policy (`ACCEVAL_LAUNCH_CACHE`). The cache is a speed
/// knob, never a results knob: every artifact is bit-identical on, off, and
/// across hit/miss patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchCache {
    /// Enabled (the default). Semantically identical to [`LaunchCache::On`];
    /// the distinct name records that enablement was defaulted, not asked
    /// for, in manifests.
    Auto,
    /// Enabled.
    On,
    /// Disabled: every launch executes.
    Off,
}

/// Process-wide override: 0 = unset (use env), 1 = auto, 2 = on, 3 = off.
static CACHE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static CACHE_FROM_ENV: OnceLock<LaunchCache> = OnceLock::new();

/// The launch-memoization policy: an override installed by
/// [`set_launch_cache_override`] wins, else the `ACCEVAL_LAUNCH_CACHE`
/// environment variable (`auto` | `on` | `off`), else [`LaunchCache::Auto`].
pub fn launch_cache() -> LaunchCache {
    match CACHE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return LaunchCache::Auto,
        2 => return LaunchCache::On,
        3 => return LaunchCache::Off,
        _ => {}
    }
    *CACHE_FROM_ENV.get_or_init(|| match std::env::var("ACCEVAL_LAUNCH_CACHE") {
        // Fail soft on a malformed value: a typo must not abort a launch
        // deep inside a parallel sweep. Front-end binaries catch it up
        // front via `crate::env::validate_env` and exit with usage.
        Ok(s) => match crate::env::parse_toggle("ACCEVAL_LAUNCH_CACHE", &s) {
            Ok(crate::env::Toggle::On) => LaunchCache::On,
            Ok(crate::env::Toggle::Off) => LaunchCache::Off,
            _ => LaunchCache::Auto,
        },
        Err(_) => LaunchCache::Auto,
    })
}

/// Force a launch-cache policy for this process (tests/benches), overriding
/// the environment. `None` returns control to `ACCEVAL_LAUNCH_CACHE`.
pub fn set_launch_cache_override(p: Option<LaunchCache>) {
    let v = match p {
        None => 0,
        Some(LaunchCache::Auto) => 1,
        Some(LaunchCache::On) => 2,
        Some(LaunchCache::Off) => 3,
    };
    CACHE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Short name of the active launch-cache policy, for manifests.
pub fn launch_cache_name() -> &'static str {
    match launch_cache() {
        LaunchCache::Auto => "auto",
        LaunchCache::On => "on",
        LaunchCache::Off => "off",
    }
}

/// Whether memoization is enabled under the active policy.
pub fn launch_cache_enabled() -> bool {
    launch_cache() != LaunchCache::Off
}

// ---- capacity --------------------------------------------------------------

/// Byte-cap override installed by tests; `u64::MAX` means unset.
static CAP_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);
static CAP_FROM_ENV: OnceLock<u64> = OnceLock::new();

/// Resident-byte cap on cached launch effects: the override installed by
/// [`set_launch_cache_cap_override`] wins, else `ACCEVAL_LAUNCH_CACHE_CAP_MB`
/// (mebibytes), else 512 MiB.
pub fn launch_cache_cap_bytes() -> u64 {
    let o = CAP_OVERRIDE.load(Ordering::Relaxed);
    if o != u64::MAX {
        return o;
    }
    *CAP_FROM_ENV.get_or_init(|| match std::env::var("ACCEVAL_LAUNCH_CACHE_CAP_MB") {
        // Fail soft to the default on a malformed count; see launch_cache().
        Ok(s) => crate::env::parse_cap_mb("ACCEVAL_LAUNCH_CACHE_CAP_MB", &s).unwrap_or(512 << 20),
        Err(_) => 512 << 20,
    })
}

/// Force a byte cap for this process (tests exercise eviction under a tiny
/// cap). `None` returns control to the environment/default.
pub fn set_launch_cache_cap_override(bytes: Option<u64>) {
    CAP_OVERRIDE.store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
}

// ---- statistics ------------------------------------------------------------

static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static DIGEST_NANOS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_HITS: Cell<u64> = const { Cell::new(0) };
    static TL_DISK_HITS: Cell<u64> = const { Cell::new(0) };
    static TL_MISSES: Cell<u64> = const { Cell::new(0) };
    static TL_DIGEST_NANOS: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn note_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
    TL_HITS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_disk_hit() {
    DISK_HITS.fetch_add(1, Ordering::Relaxed);
    TL_DISK_HITS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
    TL_MISSES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_digest_nanos(n: u64) {
    DIGEST_NANOS.fetch_add(n, Ordering::Relaxed);
    TL_DIGEST_NANOS.with(|c| c.set(c.get() + n));
}

/// Time `f` as digest/key work, charging the elapsed nanoseconds to the
/// digest accounting (global and thread-local).
pub(crate) fn timed_digest<T>(f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    note_digest_nanos(t0.elapsed().as_nanos() as u64);
    r
}

/// Process-lifetime cache counters, for manifests and the sweep report.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTotals {
    /// Eligible probes answered from the in-memory LRU.
    pub hits: u64,
    /// Eligible probes answered from the persistent store (and promoted
    /// into the LRU).
    pub disk_hits: u64,
    /// Eligible probes that executed and (where possible) captured.
    pub misses: u64,
    /// Entries evicted under the byte cap.
    pub evictions: u64,
    /// Wall time spent hashing buffer contents and assembling keys.
    pub digest_secs: f64,
    /// Bytes currently resident in cached effects.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// Snapshot of the process-lifetime cache counters.
pub fn launch_cache_totals() -> CacheTotals {
    let (resident_bytes, entries) = match store().lock() {
        Ok(s) => (s.bytes, s.map.len() as u64),
        Err(_) => (0, 0),
    };
    CacheTotals {
        hits: HITS.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        digest_secs: DIGEST_NANOS.load(Ordering::Relaxed) as f64 * 1e-9,
        resident_bytes,
        entries,
    }
}

/// Per-thread cumulative counters (memory hits, disk hits, misses, digest
/// nanos). The sweep snapshots these around each task — launches run on the
/// task's worker thread, so the delta attributes cache behavior to the task
/// exactly.
pub fn thread_cache_counters() -> (u64, u64, u64, u64) {
    (
        TL_HITS.with(|c| c.get()),
        TL_DISK_HITS.with(|c| c.get()),
        TL_MISSES.with(|c| c.get()),
        TL_DIGEST_NANOS.with(|c| c.get()),
    )
}

// ---- keys and effects ------------------------------------------------------

/// Content-addressed identity of one launch. Two launches with equal keys
/// have bit-identical effects: the plan fingerprint covers the body and
/// lowering decisions, the live fields cover geometry retargeting, the
/// config digest covers the priced device, the layout digest covers the
/// address-space layout and array extents, and the scalar/input vectors
/// cover every value the body can observe. A launch with texture sites
/// also depends on the texture cache it finds, which `tex_state` covers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchKey {
    /// Geometry-invariant plan fingerprint ([`crate::kernel::EngineCache::fingerprint`]).
    pub plan_fp: u128,
    /// Live block shape (mutated by geometry retargeting, hence not in `plan_fp`).
    pub block: (u32, u32),
    /// Live static shared-memory footprint.
    pub shared_bytes: u32,
    /// Registers per thread (occupancy input).
    pub regs: u32,
    /// Executing engine (tree = 0, bytecode = 1). The engines are
    /// bit-identical by contract, but keeping entries separate costs one
    /// duplicate capture and buys independence from that contract.
    pub engine: u8,
    /// Whether the bytecode optimizer was active for the launch. Optimized
    /// and unoptimized streams are byte-identical by contract; like
    /// `engine`, keying the mode buys independence from that contract.
    pub opt: bool,
    /// Whether the launch was traced (traced entries carry an event slice).
    pub traced: bool,
    /// Digest of the device configuration.
    pub cfg_digest: u64,
    /// Digest of the device address-space layout: every array's allocation
    /// state, length, element type, and launch-time extents.
    pub layout_digest: u64,
    /// Full host scalar environment as (tag, raw bits) pairs.
    pub scalars: Vec<(u8, u64)>,
    /// Content digests of the readable device arrays, in array-id order;
    /// `None` marks an unallocated array.
    pub inputs: Vec<(u32, Option<u128>)>,
    /// For launches with texture sites only: the device texture cache's
    /// [`acceval_sim::Cache::state_digest`] at entry (geometry and every
    /// set's tag list). The cache's counters are not covered; effects
    /// carry their deltas.
    pub tex_state: Option<u128>,
}

/// One array's captured output: what the launch did to the device copy.
#[derive(Debug, Clone)]
pub enum ArrayOut {
    /// Sparse element writes as (flat index, raw bits) against the
    /// pre-launch contents (chosen when few elements changed).
    Sparse(Vec<(u32, u64)>),
    /// Dense replacement of the whole buffer.
    Full(Arc<Buffer>),
}

/// The complete captured effect of one launch.
#[derive(Debug, Clone)]
pub struct LaunchEffect {
    /// Per-array outputs: (array index, delta, post-launch content digest).
    /// The digest primes the buffer's generation memo on replay.
    pub outputs: Vec<(u32, ArrayOut, u128)>,
    /// Scalar reduction writebacks: post-combine values per scalar slot.
    pub scalar_writes: Vec<(usize, Value)>,
    /// The launch's result (cost, totals, footprint, active threads).
    pub result: LaunchResult,
    /// The launch's relative trace-event slice (empty when untraced),
    /// without the texture-cache counters event: that one carries
    /// cumulative counters, so replay rebuilds it (see [`TexEffect`]).
    pub events: Vec<TraceEvent>,
    /// What a launch with texture sites did to the device texture cache.
    pub tex: Option<TexEffect>,
}

/// A texture launch's effect on the device texture cache. The key pins the
/// entry state, so the exit state is a function of it: replay restores the
/// tag lists and adds the counter deltas. A traced replay emits the
/// `<kernel>/texture` counters event from the post-replay counters when
/// the deltas are nonzero, just before the final (`KernelLaunch`) event,
/// where execution emits it.
#[derive(Debug, Clone)]
pub struct TexEffect {
    /// Tag lists at exit.
    pub exit: CacheTags,
    /// Hits the launch added.
    pub hits: u64,
    /// Misses the launch added.
    pub misses: u64,
}

impl LaunchEffect {
    /// Approximate resident bytes of this effect, for the byte cap and the
    /// spill queue.
    ///
    /// Element costs come from `mem::size_of`, not hand-kept constants: a
    /// `Vec<(u32, u64)>` element occupies 16 bytes (alignment padding), not
    /// the 12 bytes of its fields, and dense buffers store every element as
    /// 8 bytes (`Vec<f64>`/`Vec<i64>`) regardless of the declared element
    /// width. Scalar writebacks, the actual per-variant trace-event
    /// payloads and texture tag lists are accounted too.
    pub(crate) fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut b = (size_of::<LaunchKey>() + size_of::<Slot>() + size_of::<LaunchEffect>() + 64) as u64;
        for (_, out, _) in &self.outputs {
            b += size_of::<(u32, ArrayOut, u128)>() as u64;
            b += match out {
                ArrayOut::Sparse(w) => (w.len() * size_of::<(u32, u64)>()) as u64,
                ArrayOut::Full(buf) => (buf.len() * size_of::<u64>() + size_of::<Buffer>()) as u64,
            };
        }
        b += (self.scalar_writes.len() * size_of::<(usize, Value)>()) as u64;
        b += self.events.iter().map(TraceEvent::resident_bytes).sum::<u64>();
        b += self.tex.as_ref().map_or(0, |t| t.exit.heap_bytes());
        b
    }
}

// ---- store journal ---------------------------------------------------------

/// Log of the device-array stores one executor made during a launch that
/// will capture its effect: per array, the first store that changed each
/// element, as (flat index, pre-launch bits), in execution order. Stores
/// that leave an element's bits unchanged are not logged, and later stores
/// to a logged element add nothing, so the log holds every element the
/// launch changed at some point, each once, with its pre-launch bits.
/// Capture derives the sparse delta and the post-launch digest from it, so
/// its cost scales with what the launch changed rather than with the size
/// of the buffers it wrote into.
///
/// Each array logs at most `n / 4 + 1` elements (the sparse-delta cap);
/// past that it *overflows* and stops logging, and capture falls back to a
/// dense copy plus a full re-hash. A journal built with
/// [`StoreJournal::off`] records nothing: launches that will not capture
/// pay one predictable branch per store.
#[derive(Debug, Default)]
pub(crate) struct StoreJournal {
    arrays: Vec<ArrayLog>,
}

/// One array's part of a [`StoreJournal`].
#[derive(Debug, Default, Clone)]
struct ArrayLog {
    /// Most elements logged before overflowing; 0 when not journaled.
    cap: usize,
    /// Element count (the size of `logged`).
    len: usize,
    /// Bitmap of the logged elements, allocated on the first record.
    logged: Vec<u64>,
    log: Vec<(u32, u64)>,
    overflow: bool,
}

impl StoreJournal {
    /// A journal that records nothing.
    pub(crate) fn off() -> StoreJournal {
        StoreJournal::default()
    }

    /// A journal over `journaled` (array index, length) pairs; every other
    /// array of the program (`arrays` in total) is left out.
    pub(crate) fn new(arrays: usize, journaled: impl IntoIterator<Item = (usize, usize)>) -> StoreJournal {
        let mut j = StoreJournal { arrays: vec![ArrayLog::default(); arrays] };
        for (i, len) in journaled {
            // The sparse-delta cap; flat indices are logged as u32, so
            // larger arrays go dense.
            let cap = if len <= u32::MAX as usize { len / 4 + 1 } else { 0 };
            j.arrays[i] = ArrayLog { cap, len, ..ArrayLog::default() };
        }
        j
    }

    /// An empty journal over the same arrays and caps (one per chunk).
    pub(crate) fn fresh(&self) -> StoreJournal {
        let arrays = self.arrays.iter().map(|x| ArrayLog { cap: x.cap, len: x.len, ..ArrayLog::default() }).collect();
        StoreJournal { arrays }
    }

    /// Whether stores should be recorded at all.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        !self.arrays.is_empty()
    }

    /// Record a store that turned element `flat` of array `a` from `old`
    /// bits into `new` bits. Callers check [`StoreJournal::on`] first.
    #[inline]
    pub(crate) fn record(&mut self, a: usize, flat: usize, old: u64, new: u64) {
        let x = &mut self.arrays[a];
        if old == new || x.overflow {
            return;
        }
        if x.cap == 0 {
            x.overflow = true;
            return;
        }
        if x.logged.is_empty() {
            x.logged = vec![0; x.len.div_ceil(64)];
        }
        let (word, bit) = (flat / 64, 1u64 << (flat % 64));
        if x.logged[word] & bit != 0 {
            return;
        }
        if x.log.len() == x.cap {
            x.overflow = true;
            return;
        }
        x.logged[word] |= bit;
        x.log.push((flat as u32, old));
    }

    /// Append a later chunk's journal (chunks fold in block order and
    /// write disjoint elements).
    pub(crate) fn absorb(&mut self, later: StoreJournal) {
        for (x, y) in self.arrays.iter_mut().zip(later.arrays) {
            if y.overflow || x.log.len() + y.log.len() > x.cap {
                x.overflow = true;
            } else {
                x.log.extend(y.log);
            }
        }
    }

    /// Capture array `a`'s output from its journal: the sparse delta
    /// against the pre-launch contents (ascending flat order, elements
    /// restored to their pre-launch bits dropped) and the post-launch
    /// digest, updated from `pre_digest`. `None` when the array overflowed
    /// or was not journaled; the caller then captures densely.
    pub(crate) fn capture(&mut self, a: usize, pre_digest: u128, post: &Buffer) -> Option<(ArrayOut, u128)> {
        let x = &mut self.arrays[a];
        if x.overflow || x.cap == 0 {
            return None;
        }
        x.log.sort_unstable_by_key(|&(flat, _)| flat);
        let mut d = pre_digest;
        let mut writes = Vec::new();
        for &(flat, old) in &x.log {
            let new = post.bits(flat as usize);
            if new != old {
                d = acceval_sim::digest_update(d, flat as usize, old, new);
                writes.push((flat, new));
            }
        }
        Some((ArrayOut::Sparse(writes), d))
    }
}

// ---- the store -------------------------------------------------------------

struct Slot {
    effect: Arc<LaunchEffect>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct StoreInner {
    map: HashMap<LaunchKey, Slot>,
    bytes: u64,
    tick: u64,
}

static STORE: OnceLock<Mutex<StoreInner>> = OnceLock::new();

fn store() -> &'static Mutex<StoreInner> {
    STORE.get_or_init(|| Mutex::new(StoreInner::default()))
}

/// Look up a launch by key, refreshing its LRU stamp on a hit.
pub fn probe(key: &LaunchKey) -> Option<Arc<LaunchEffect>> {
    let mut s = store().lock().expect("launch cache poisoned");
    s.tick += 1;
    let tick = s.tick;
    let slot = s.map.get_mut(key)?;
    slot.last_used = tick;
    Some(slot.effect.clone())
}

/// Which tier answered a [`probe_two_tier`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeTier {
    /// The in-memory LRU.
    Memory,
    /// The persistent store ([`super::store`]); the effect was promoted
    /// into the LRU on the way out.
    Disk,
}

/// Two-tier lookup: the in-memory LRU first, then the persistent store. A
/// disk hit is decoded, promoted into the LRU (without re-spilling), and
/// reported with [`ProbeTier::Disk`] so callers can attribute it. Texture
/// keys go to the store alone (see the module docs).
pub fn probe_two_tier(key: &LaunchKey) -> Option<(Arc<LaunchEffect>, ProbeTier)> {
    let tex = key.tex_state.is_some();
    if !tex {
        if let Some(e) = probe(key) {
            return Some((e, ProbeTier::Memory));
        }
    }
    let eff = Arc::new(super::store::probe_effect(key)?);
    if !tex {
        insert_arc(key.clone(), eff.clone());
    }
    Some((eff, ProbeTier::Disk))
}

/// Insert a captured effect, evicting least-recently-used entries to stay
/// under the byte cap, and spill it write-behind to the persistent store
/// (when enabled). An effect that alone exceeds the in-memory cap is not
/// LRU-cached but is still spilled — the disk tier has its own cap. A
/// texture effect is only spilled.
pub fn insert(key: LaunchKey, effect: LaunchEffect) {
    let effect = Arc::new(effect);
    super::store::spill_effect(&key, &effect);
    if key.tex_state.is_none() {
        insert_arc(key, effect);
    }
}

/// LRU-only insert (no disk spill): shared by [`insert`] and the disk-hit
/// promotion in [`probe_two_tier`], which must not write back what it just
/// read.
fn insert_arc(key: LaunchKey, effect: Arc<LaunchEffect>) {
    let bytes = effect.resident_bytes();
    let cap = launch_cache_cap_bytes();
    if bytes > cap {
        return;
    }
    let mut s = store().lock().expect("launch cache poisoned");
    s.tick += 1;
    let tick = s.tick;
    if let Some(old) = s.map.insert(key, Slot { effect, bytes, last_used: tick }) {
        s.bytes -= old.bytes;
    }
    s.bytes += bytes;
    while s.bytes > cap {
        let Some(victim) = s.map.iter().min_by_key(|(_, slot)| slot.last_used).map(|(k, _)| k.clone()) else {
            break;
        };
        let slot = s.map.remove(&victim).expect("victim present");
        s.bytes -= slot.bytes;
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drop every cached effect (cold-start for benches and tests). Counters
/// are left running; eviction of cleared entries is not counted.
pub fn clear_launch_cache() {
    let mut s = store().lock().expect("launch cache poisoned");
    s.map.clear();
    s.bytes = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_parsing_and_override() {
        set_launch_cache_cap_override(Some(1 << 16));
        assert_eq!(launch_cache_cap_bytes(), 1 << 16);
        set_launch_cache_cap_override(None);
        assert!(launch_cache_cap_bytes() >= 1 << 20, "default cap is at least a MiB");
    }

    #[test]
    fn policy_override_round_trip() {
        set_launch_cache_override(Some(LaunchCache::Off));
        assert!(!launch_cache_enabled());
        assert_eq!(launch_cache_name(), "off");
        set_launch_cache_override(Some(LaunchCache::On));
        assert!(launch_cache_enabled());
        set_launch_cache_override(None);
    }
}
