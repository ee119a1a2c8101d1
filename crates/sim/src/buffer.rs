//! Typed linear buffers shared by the host and device models.
//!
//! Functional state is held as `f64` or `i64` vectors regardless of the
//! declared element type; the element type only affects the *traffic model*
//! (bytes moved per access/transfer). This keeps numerics simple and exact
//! while letting `float` benchmarks enjoy half the memory traffic of
//! `double` ones, as on real hardware.

use serde::{Deserialize, Serialize};

/// Element type of an array. Determines bytes-per-element for the traffic
/// model; values are computed in f64/i64 regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemType {
    /// 32-bit float (4-byte traffic).
    F32,
    /// 64-bit float (8-byte traffic).
    F64,
    /// 32-bit integer (4-byte traffic).
    I32,
    /// 64-bit integer (8-byte traffic).
    I64,
}

impl ElemType {
    /// Bytes occupied by one element in memory.
    #[inline]
    pub fn size_bytes(self) -> u32 {
        match self {
            ElemType::F32 | ElemType::I32 => 4,
            ElemType::F64 | ElemType::I64 => 8,
        }
    }

    /// Whether the element is a floating-point type.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, ElemType::F32 | ElemType::F64)
    }
}

/// Storage payload: floats or integers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Floating-point storage.
    F(Vec<f64>),
    /// Integer storage.
    I(Vec<i64>),
}

impl Payload {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Payload::F(v) => v.len(),
            Payload::I(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A linear buffer with a declared element type.
///
/// Multi-dimensional arrays are stored flattened row-major; the IR layer is
/// responsible for index linearisation (and for modelling layout changes such
/// as transposition, which alter the addresses the timing model sees).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Buffer {
    /// Declared element type (drives bytes-per-element in the traffic model).
    pub elem: ElemType,
    /// Functional contents.
    pub data: Payload,
}

impl Buffer {
    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(elem: ElemType, len: usize) -> Self {
        let data = if elem.is_float() { Payload::F(vec![0.0; len]) } else { Payload::I(vec![0; len]) };
        Buffer { elem, data }
    }

    /// Build from f64 values (elem must be a float type).
    pub fn from_f64(elem: ElemType, v: Vec<f64>) -> Self {
        assert!(elem.is_float(), "from_f64 requires a float element type");
        Buffer { elem, data: Payload::F(v) }
    }

    /// Build from i64 values (elem must be an integer type).
    pub fn from_i64(elem: ElemType, v: Vec<i64>) -> Self {
        assert!(!elem.is_float(), "from_i64 requires an integer element type");
        Buffer { elem, data: Payload::I(v) }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes (for the transfer model).
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem.size_bytes() as u64
    }

    /// Describe a PCIe transfer of this buffer as a
    /// [`TraceEvent::Transfer`] (the caller supplies the link time, which
    /// depends on the machine's link model).
    ///
    /// [`TraceEvent::Transfer`]: crate::trace::TraceEvent::Transfer
    pub fn transfer_event(&self, array: &str, dir: crate::stats::Dir, secs: f64) -> crate::trace::TraceEvent {
        crate::trace::TraceEvent::Transfer { array: array.to_string(), dir, bytes: self.size_bytes(), secs }
    }

    /// Read element `i` as f64 (integers are converted).
    #[inline]
    pub fn get_f(&self, i: usize) -> f64 {
        match &self.data {
            Payload::F(v) => v[i],
            Payload::I(v) => v[i] as f64,
        }
    }

    /// Read element `i` as i64 (floats are truncated).
    #[inline]
    pub fn get_i(&self, i: usize) -> i64 {
        match &self.data {
            Payload::F(v) => v[i] as i64,
            Payload::I(v) => v[i],
        }
    }

    /// Write element `i` from an f64 value.
    #[inline]
    pub fn set_f(&mut self, i: usize, x: f64) {
        match &mut self.data {
            Payload::F(v) => v[i] = x,
            Payload::I(v) => v[i] = x as i64,
        }
    }

    /// Write element `i` from an i64 value.
    #[inline]
    pub fn set_i(&mut self, i: usize, x: i64) {
        match &mut self.data {
            Payload::F(v) => v[i] = x as f64,
            Payload::I(v) => v[i] = x,
        }
    }

    /// Copy the contents of `src` into this buffer in place, reusing the
    /// existing allocation. Both buffers must have the same element type and
    /// length (use `clone()` when shapes may differ).
    pub fn copy_from(&mut self, src: &Buffer) {
        assert_eq!(self.elem, src.elem, "copy_from: element type mismatch");
        match (&mut self.data, &src.data) {
            (Payload::F(d), Payload::F(s)) => {
                assert_eq!(d.len(), s.len(), "copy_from: length mismatch");
                d.copy_from_slice(s);
            }
            (Payload::I(d), Payload::I(s)) => {
                assert_eq!(d.len(), s.len(), "copy_from: length mismatch");
                d.copy_from_slice(s);
            }
            _ => panic!("copy_from: payload kind mismatch"),
        }
    }

    /// Byte address of element `i` within this buffer (base 0).
    #[inline]
    pub fn elem_addr(&self, i: usize) -> u64 {
        i as u64 * self.elem.size_bytes() as u64
    }

    /// View as f64 slice (float buffers only).
    pub fn as_f64(&self) -> &[f64] {
        match &self.data {
            Payload::F(v) => v,
            Payload::I(_) => panic!("buffer holds integers"),
        }
    }

    /// View as i64 slice (integer buffers only).
    pub fn as_i64(&self) -> &[i64] {
        match &self.data {
            Payload::I(v) => v,
            Payload::F(_) => panic!("buffer holds floats"),
        }
    }

    /// Raw bit pattern of element `i`: the word the content digest keys on.
    #[inline]
    pub fn bits(&self, i: usize) -> u64 {
        match &self.data {
            Payload::F(v) => v[i].to_bits(),
            Payload::I(v) => v[i] as u64,
        }
    }

    /// 128-bit content digest of this buffer: a header over the element
    /// type and length plus, per lane, the sum mod 2^64 of a position-keyed
    /// term for every element's raw bits. Used as the content-addressing key
    /// component for launch memoization; collisions would silently replay a
    /// wrong launch, hence two independently keyed 64-bit lanes rather than
    /// one. Because the digest is a sum, a launch that changed a few
    /// elements updates it with [`digest_update`] instead of re-hashing.
    pub fn content_digest(&self) -> u128 {
        let (mut lo, mut hi) = split(digest_header(self.elem, self.len()));
        let mut add = |i: usize, bits: u64| {
            let (a, b) = term(i, bits);
            lo = lo.wrapping_add(a);
            hi = hi.wrapping_add(b);
        };
        match &self.data {
            Payload::F(v) => v.iter().enumerate().for_each(|(i, x)| add(i, x.to_bits())),
            Payload::I(v) => v.iter().enumerate().for_each(|(i, x)| add(i, *x as u64)),
        }
        join(lo, hi)
    }

    /// Maximum absolute difference against another float buffer.
    pub fn max_abs_diff(&self, other: &Buffer) -> f64 {
        match (&self.data, &other.data) {
            (Payload::F(a), Payload::F(b)) => {
                assert_eq!(a.len(), b.len(), "length mismatch");
                a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
            }
            (Payload::I(a), Payload::I(b)) => {
                assert_eq!(a.len(), b.len(), "length mismatch");
                a.iter().zip(b).map(|(x, y)| (x - y).abs() as f64).fold(0.0, f64::max)
            }
            _ => panic!("payload kind mismatch"),
        }
    }
}

#[inline]
fn elem_tag(elem: ElemType) -> u64 {
    match elem {
        ElemType::F32 => 1,
        ElemType::F64 => 2,
        ElemType::I32 => 3,
        ElemType::I64 => 4,
    }
}

/// Digest of the all-zero buffer of a given shape, without materializing it:
/// zero elements contribute nothing to the sum, so this is the header alone.
/// Lets `DeviceState::alloc` recognize a device buffer that already holds
/// zeros and skip the clear.
pub fn zero_digest(elem: ElemType, len: usize) -> u128 {
    digest_header(elem, len)
}

/// Content digest of a buffer after element `i` changed from bits `old` to
/// bits `new`, given its digest `d` before the change (see
/// [`Buffer::content_digest`]). Applying this for every changed element of a
/// launch yields exactly the digest a full re-hash would.
#[inline]
pub fn digest_update(d: u128, i: usize, old: u64, new: u64) -> u128 {
    let (lo, hi) = split(d);
    let (a0, b0) = term(i, old);
    let (a1, b1) = term(i, new);
    join(lo.wrapping_add(a1.wrapping_sub(a0)), hi.wrapping_add(b1.wrapping_sub(b0)))
}

/// The header both lanes start from: the stream hash of (type tag, length).
fn digest_header(elem: ElemType, len: usize) -> u128 {
    let mut d = Digest128::new();
    d.push(elem_tag(elem));
    d.push(len as u64);
    d.finish()
}

/// Per-lane contribution of element `i` holding raw bits `x`: the bits are
/// spread by an invertible xor-shift-multiply that maps 0 to 0, then
/// multiplied by an odd per-lane key derived from the index. For a fixed
/// `i` each lane is therefore a bijection of `x` that maps 0 to 0: any
/// single-element change moves both lanes, and zeros cost nothing. The keys
/// are a nonlinear mix of `i`, so moving values between positions (swaps,
/// shifts) changes the sum.
#[inline]
fn term(i: usize, x: u64) -> (u64, u64) {
    let s = (x ^ (x >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    let s = s ^ (s >> 29);
    let mut k = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    k = (k ^ (k >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    k ^= k >> 29;
    let key_lo = k | 1;
    let key_hi = (k.rotate_left(32) ^ 0xc2b2_ae3d_27d4_eb4f) | 1;
    (s.wrapping_mul(key_lo), s.wrapping_mul(key_hi))
}

#[inline]
fn split(d: u128) -> (u64, u64) {
    (d as u64, (d >> 64) as u64)
}

#[inline]
fn join(lo: u64, hi: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

/// Two-lane multiply-xor fold producing a 128-bit digest of a word stream.
/// Same per-lane recurrence as the coalescing layer's `FoldHasher`, run
/// twice with distinct odd multipliers so the lanes decorrelate. Plan
/// fingerprints, layout digests and store checksums use it; buffer contents
/// use the additive [`Buffer::content_digest`] instead.
#[derive(Debug, Clone, Copy)]
pub struct Digest128 {
    lo: u64,
    hi: u64,
}

impl Digest128 {
    const MUL_LO: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL_HI: u64 = 0xc2b2_ae3d_27d4_eb4f;

    /// Fresh digest state.
    #[inline]
    pub fn new() -> Self {
        Digest128 { lo: 0x243f_6a88_85a3_08d3, hi: 0x1319_8a2e_0370_7344 }
    }

    /// Fold one 64-bit word into both lanes.
    #[inline]
    pub fn push(&mut self, w: u64) {
        self.lo = (self.lo ^ w).wrapping_mul(Self::MUL_LO).rotate_left(29);
        self.hi = (self.hi ^ w).wrapping_mul(Self::MUL_HI).rotate_left(31);
    }

    /// Final 128-bit value.
    #[inline]
    pub fn finish(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

impl Default for Digest128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Monotonic generation tag for one device buffer, with a lazily computed
/// content digest memoized per generation. Every mutation of the buffer
/// bumps the generation; a digest request re-hashes only when the memo is
/// stale, so steady-state cache probes over unchanged buffers hash nothing.
#[derive(Debug, Clone, Default)]
pub struct BufGen {
    gen: u64,
    memo: Option<(u64, u128)>,
}

impl BufGen {
    /// Fresh tag at generation 0 with no memoized digest.
    pub fn new() -> Self {
        BufGen::default()
    }

    /// Current generation.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Record a mutation: advance the generation, invalidating the memo.
    #[inline]
    pub fn bump(&mut self) {
        self.gen += 1;
        self.memo = None;
    }

    /// Content digest of `buf` at the current generation, re-hashing only
    /// when no digest is memoized for this generation. Returns the digest
    /// and whether a hash was actually computed (for cost accounting).
    pub fn digest(&mut self, buf: &Buffer) -> (u128, bool) {
        if let Some((g, d)) = self.memo {
            if g == self.gen {
                return (d, false);
            }
        }
        let d = buf.content_digest();
        self.memo = Some((self.gen, d));
        (d, true)
    }

    /// Install a known digest for the current generation (e.g. after a
    /// cache replay wrote contents whose digest was stored with the entry),
    /// so the next probe doesn't re-hash.
    #[inline]
    pub fn prime(&mut self, digest: u128) {
        self.memo = Some((self.gen, digest));
    }

    /// The memoized digest for the current generation, if any (no hashing).
    #[inline]
    pub fn memoized(&self) -> Option<u128> {
        match self.memo {
            Some((g, d)) if g == self.gen => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemType::F32.size_bytes(), 4);
        assert_eq!(ElemType::F64.size_bytes(), 8);
        assert_eq!(ElemType::I32.size_bytes(), 4);
        assert_eq!(ElemType::I64.size_bytes(), 8);
    }

    #[test]
    fn zeroed_and_roundtrip() {
        let mut b = Buffer::zeroed(ElemType::F32, 8);
        assert_eq!(b.len(), 8);
        assert_eq!(b.size_bytes(), 32);
        b.set_f(3, 2.5);
        assert_eq!(b.get_f(3), 2.5);
        assert_eq!(b.get_i(3), 2);
    }

    #[test]
    fn integer_buffer_conversions() {
        let mut b = Buffer::zeroed(ElemType::I32, 4);
        b.set_f(0, 7.9);
        assert_eq!(b.get_i(0), 7);
        b.set_i(1, -3);
        assert_eq!(b.get_f(1), -3.0);
    }

    #[test]
    fn addresses_scale_with_elem_size() {
        let b4 = Buffer::zeroed(ElemType::F32, 4);
        let b8 = Buffer::zeroed(ElemType::F64, 4);
        assert_eq!(b4.elem_addr(3), 12);
        assert_eq!(b8.elem_addr(3), 24);
    }

    #[test]
    fn max_abs_diff_float() {
        let a = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0, 3.0]);
        let b = Buffer::from_f64(ElemType::F64, vec![1.0, 2.5, 3.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn from_f64_rejects_int_type() {
        let _ = Buffer::from_f64(ElemType::I32, vec![1.0]);
    }

    #[test]
    fn content_digest_separates_type_len_and_values() {
        let a = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0]);
        let b = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0]);
        assert_eq!(a.content_digest(), b.content_digest());
        let c = Buffer::from_f64(ElemType::F64, vec![1.0, 2.5]);
        assert_ne!(a.content_digest(), c.content_digest());
        let d = Buffer::from_f64(ElemType::F32, vec![1.0, 2.0]);
        assert_ne!(a.content_digest(), d.content_digest());
        let e = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0, 0.0]);
        assert_ne!(a.content_digest(), e.content_digest());
    }

    #[test]
    fn zero_digest_matches_zeroed_buffer() {
        for elem in [ElemType::F32, ElemType::F64, ElemType::I32, ElemType::I64] {
            for len in 0..=1000 {
                assert_eq!(zero_digest(elem, len), Buffer::zeroed(elem, len).content_digest(), "{elem:?} x {len}");
            }
        }
    }

    /// Both 64-bit lanes of a digest.
    fn lanes(d: u128) -> (u64, u64) {
        (d as u64, (d >> 64) as u64)
    }

    /// Deterministic xorshift stream for the randomized digest tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn single_element_change_moves_both_lanes() {
        let base: Vec<f64> = (0..64).map(|k| k as f64 * 0.5).collect();
        let d0 = lanes(Buffer::from_f64(ElemType::F64, base.clone()).content_digest());
        for i in 0..base.len() {
            // Small, sign-only and exponent-only changes all move both lanes.
            for nv in [base[i] + 1.0, -base[i], base[i] * 2.0, f64::from_bits(base[i].to_bits() ^ 1)] {
                if nv.to_bits() == base[i].to_bits() {
                    continue;
                }
                let mut v = base.clone();
                v[i] = nv;
                let d1 = lanes(Buffer::from_f64(ElemType::F64, v).content_digest());
                assert_ne!(d0.0, d1.0, "low lane unmoved at {i} -> {nv}");
                assert_ne!(d0.1, d1.1, "high lane unmoved at {i} -> {nv}");
            }
        }
        let ints = Buffer::from_i64(ElemType::I64, vec![0; 32]);
        for i in 0..32 {
            let mut b = ints.clone();
            b.set_i(i, 1);
            let (lo, hi) = lanes(b.content_digest());
            let (lo0, hi0) = lanes(ints.content_digest());
            assert!(lo != lo0 && hi != hi0, "integer change at {i} must move both lanes");
        }
    }

    #[test]
    fn swapping_unequal_elements_changes_digest() {
        let v: Vec<i64> = (0..40).map(|k| (k * 7 % 11) as i64).collect();
        let d0 = Buffer::from_i64(ElemType::I32, v.clone()).content_digest();
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                if v[i] == v[j] {
                    continue;
                }
                let mut w = v.clone();
                w.swap(i, j);
                assert_ne!(d0, Buffer::from_i64(ElemType::I32, w).content_digest(), "swap {i}<->{j}");
            }
        }
        // Two mirrored adjacent swaps cancel under a linear index weight;
        // the mixed keys must still tell the buffers apart.
        let a = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0, 5.0, 2.0, 1.0]);
        let b = Buffer::from_f64(ElemType::F64, vec![2.0, 1.0, 5.0, 1.0, 2.0]);
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for round in 0..200 {
            let len = 1 + (xorshift(&mut rng) % 700) as usize;
            let float = round % 2 == 0;
            let mut b = if float {
                Buffer::from_f64(ElemType::F64, (0..len).map(|k| (k % 13) as f64 - 3.5).collect())
            } else {
                Buffer::from_i64(ElemType::I32, (0..len).map(|k| (k % 17) as i64).collect())
            };
            let mut d = b.content_digest();
            // A sparse delta that may revisit an index or rewrite a value
            // unchanged; the update must track every step exactly.
            for _ in 0..1 + xorshift(&mut rng) % 20 {
                let i = (xorshift(&mut rng) % len as u64) as usize;
                let old = b.bits(i);
                match xorshift(&mut rng) % 3 {
                    0 => {}
                    1 if float => b.set_f(i, (xorshift(&mut rng) % 1000) as f64 * 0.25),
                    _ => b.set_i(i, (xorshift(&mut rng) % 1000) as i64 - 500),
                }
                d = digest_update(d, i, old, b.bits(i));
            }
            assert_eq!(d, b.content_digest(), "round {round}");
        }
    }

    #[test]
    fn bufgen_memoizes_per_generation() {
        let mut b = Buffer::from_f64(ElemType::F64, vec![3.0, 4.0]);
        let mut g = BufGen::new();
        let (d0, hashed0) = g.digest(&b);
        assert!(hashed0, "first probe must hash");
        let (d1, hashed1) = g.digest(&b);
        assert!(!hashed1, "second probe at same generation must be memoized");
        assert_eq!(d0, d1);
        b.set_f(0, 9.0);
        g.bump();
        assert_eq!(g.memoized(), None);
        let (d2, hashed2) = g.digest(&b);
        assert!(hashed2, "post-bump probe must re-hash");
        assert_ne!(d0, d2);
        g.bump();
        g.prime(0xdead_beef);
        let (d3, hashed3) = g.digest(&b);
        assert!(!hashed3, "primed digest must be served without hashing");
        assert_eq!(d3, 0xdead_beef);
    }
}
