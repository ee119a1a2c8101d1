//! A small set-associative LRU cache simulator.
//!
//! Used twice: (i) the host CPU's L1/L2 hierarchy that prices the sequential
//! baseline's memory accesses, and (ii) the device's texture cache when a
//! model places read-only irregular data in texture memory.

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>, // per-set tag list, most-recent first
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
    set_shift: u32,
    /// Hits observed so far.
    pub hits: u64,
    /// Misses observed so far.
    pub misses: u64,
}

impl Cache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines. Capacity is rounded down to a power-of-two set
    /// count (minimum one set).
    pub fn new(capacity_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        let lines = (capacity_bytes / line_bytes).max(1);
        let mut num_sets = (lines / ways).max(1);
        // round down to power of two for cheap indexing
        num_sets = 1 << (63 - (num_sets as u64).leading_zeros());
        Cache {
            sets: vec![Vec::with_capacity(ways as usize); num_sets as usize],
            ways: ways as usize,
            line_bytes: line_bytes as u64,
            set_mask: (num_sets - 1) as u64,
            set_shift: line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Access byte address `addr`; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tags = &mut self.sets[set];
        if tags.first() == Some(&line) {
            // Already the MRU line: the LRU order does not change.
            self.hits += 1;
            return true;
        }
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            // Move to the MRU position, shifting the more recent lines down.
            tags[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            if tags.len() == self.ways {
                tags.pop();
            }
            tags.insert(0, line);
            self.misses += 1;
            false
        }
    }

    /// Hit rate over all accesses so far (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drop all contents, keep statistics.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Digest of the cache's contents: its geometry (sets, ways, line
    /// bytes) and every set's tag list in MRU order. Equal digests mean
    /// equal future hit/miss behaviour; the counters are not covered.
    pub fn state_digest(&self) -> u128 {
        let mut d = crate::Digest128::new();
        d.push(self.sets.len() as u64);
        d.push(self.ways as u64);
        d.push(self.line_bytes);
        for s in &self.sets {
            d.push(s.len() as u64);
            for &t in s {
                d.push(t);
            }
        }
        d.finish()
    }

    /// The tag lists, compactly (see [`CacheTags`]).
    pub fn tags(&self) -> CacheTags {
        let held = self.sets.iter().map(Vec::len).sum();
        let mut t = CacheTags { lens: Vec::with_capacity(self.sets.len()), tags: Vec::with_capacity(held) };
        for s in &self.sets {
            t.lens.push(s.len() as u32);
            t.tags.extend_from_slice(s);
        }
        t
    }

    /// Replace the tag lists with `t`, taken from a cache of the same
    /// geometry. The counters are left alone.
    pub fn restore_tags(&mut self, t: &CacheTags) {
        assert_eq!(t.lens.len(), self.sets.len(), "tag snapshot from a cache of another geometry");
        let mut at = 0;
        for (s, &n) in self.sets.iter_mut().zip(&t.lens) {
            let n = n as usize;
            assert!(n <= self.ways, "tag snapshot from a cache of another geometry");
            s.clear();
            s.extend_from_slice(&t.tags[at..at + n]);
            at += n;
        }
    }

    /// Snapshot the cumulative hit/miss counters as a
    /// [`TraceEvent::CacheCounters`] labelled `cache`.
    ///
    /// [`TraceEvent::CacheCounters`]: crate::trace::TraceEvent::CacheCounters
    pub fn trace_event(&self, cache: &str) -> crate::trace::TraceEvent {
        crate::trace::TraceEvent::CacheCounters { cache: cache.to_string(), hits: self.hits, misses: self.misses }
    }
}

/// The tag lists of a [`Cache`]: every set's tags in MRU order,
/// concatenated, and each set's length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheTags {
    /// Tags held per set, in set order.
    pub lens: Vec<u32>,
    /// The sets' tag lists, most recent first, back to back.
    pub tags: Vec<u64>,
}

impl CacheTags {
    /// Heap bytes held.
    pub fn heap_bytes(&self) -> u64 {
        (self.lens.len() * std::mem::size_of::<u32>() + self.tags.len() * std::mem::size_of::<u64>()) as u64
    }
}

/// Two-level hierarchy with per-level hit costs; returns cycles per access.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // levels + their per-hit costs
pub struct Hierarchy {
    pub l1: Cache,
    pub l2: Cache,
    pub l1_hit_cycles: f64,
    pub l2_hit_cycles: f64,
    pub mem_cycles: f64,
}

impl Hierarchy {
    /// Assemble a hierarchy from its levels and per-level hit costs.
    pub fn new(l1: Cache, l2: Cache, l1_hit_cycles: f64, l2_hit_cycles: f64, mem_cycles: f64) -> Self {
        Hierarchy { l1, l2, l1_hit_cycles, l2_hit_cycles, mem_cycles }
    }

    /// Price one access to byte address `addr`.
    #[inline]
    pub fn access_cycles(&mut self, addr: u64) -> f64 {
        if self.l1.access(addr) {
            self.l1_hit_cycles
        } else if self.l2.access(addr) {
            self.l2_hit_cycles
        } else {
            self.mem_cycles
        }
    }

    /// Empty both levels (e.g. between benchmark runs), keeping statistics.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reuse_hits() {
        let mut c = Cache::new(1024, 4, 64);
        assert!(!c.access(0));
        assert!(c.access(8)); // same line
        assert!(c.access(63));
        assert!(!c.access(64)); // next line
        assert_eq!(c.misses, 2);
        assert_eq!(c.hits, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set of 2 ways: lines A, B fill it; touching A then adding C evicts B.
        let mut c = Cache::new(128, 2, 64);
        assert_eq!(c.sets.len(), 1);
        assert!(!c.access(0)); // A
        assert!(!c.access(64)); // B
        assert!(c.access(0)); // A -> MRU
        assert!(!c.access(128)); // C evicts B
        assert!(c.access(0)); // A still present
        assert!(!c.access(64)); // B gone
    }

    #[test]
    fn capacity_miss_on_large_stream() {
        let mut c = Cache::new(4096, 8, 64);
        // stream 1 MiB twice: second pass still misses (capacity)
        for _ in 0..2 {
            for a in (0..1_048_576u64).step_by(64) {
                c.access(a);
            }
        }
        assert!(c.hit_rate() < 0.01);
    }

    #[test]
    fn small_working_set_hits_on_second_pass() {
        let mut c = Cache::new(32 * 1024, 8, 64);
        for pass in 0..2 {
            let mut hits = 0;
            for a in (0..16_384u64).step_by(64) {
                if c.access(a) {
                    hits += 1;
                }
            }
            if pass == 1 {
                assert_eq!(hits, 256);
            }
        }
    }

    #[test]
    fn hierarchy_prices_levels() {
        let l1 = Cache::new(128, 2, 64);
        let l2 = Cache::new(4096, 8, 64);
        let mut h = Hierarchy::new(l1, l2, 1.0, 8.0, 45.0);
        assert_eq!(h.access_cycles(0), 45.0); // cold
        assert_eq!(h.access_cycles(0), 1.0); // L1 hit
                                             // evict line 0 from tiny L1 by touching two more lines in its set
        h.access_cycles(128);
        h.access_cycles(256);
        assert_eq!(h.access_cycles(0), 8.0); // L1 miss, L2 hit
    }

    /// The in-place MRU update gives the same hit/miss sequence and the
    /// same final tag order as a plain remove-and-reinsert LRU.
    #[test]
    fn matches_reference_lru_on_random_stream() {
        let (sets, ways, line) = (16usize, 4usize, 64u64);
        let mut c = Cache::new((sets * ways) as u32 * line as u32, ways as u32, line as u32);
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200_000 {
            // xorshift64; addresses over 3x the capacity, with hot reuse.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if x % 4 == 0 { (x >> 8) % 16 * line } else { (x >> 8) % (3 * (sets * ways) as u64 * line) };
            let l = addr / line;
            let r = &mut reference[(l % sets as u64) as usize];
            let hit = match r.iter().position(|&t| t == l) {
                Some(pos) => {
                    let t = r.remove(pos);
                    r.insert(0, t);
                    true
                }
                None => {
                    if r.len() == ways {
                        r.pop();
                    }
                    r.insert(0, l);
                    false
                }
            };
            assert_eq!(c.access(addr), hit);
        }
        assert_eq!(c.sets, reference);
        let snap = c.tags();
        assert_eq!(snap.tags, reference.concat());
    }

    #[test]
    fn tag_snapshot_restores_state_and_digest() {
        let mut c = Cache::new(1024, 4, 64);
        for a in [0u64, 64, 4096, 0, 128, 8192, 64] {
            c.access(a);
        }
        let (snap, d) = (c.tags(), c.state_digest());
        let mut fresh = Cache::new(1024, 4, 64);
        assert_ne!(fresh.state_digest(), d);
        fresh.restore_tags(&snap);
        assert_eq!(fresh.state_digest(), d);
        assert_eq!(fresh.sets, c.sets);
        // Same tags, other geometry: another digest.
        assert_ne!(Cache::new(1024, 4, 32).state_digest(), Cache::new(1024, 4, 64).state_digest());
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = Cache::new(1024, 4, 64);
        c.access(0);
        c.access(0);
        let hits = c.hits;
        c.flush();
        assert_eq!(c.hits, hits);
        assert!(!c.access(0));
    }
}
