//! Placeholder for the removed native closure tier.

/// Process-wide `(kernels compiled, compile nanos, native launches,
/// promotions, ineligible fallbacks)`: always all zeros.
///
/// The native tier is gone; this function remains only because the external
/// end-to-end benchmark (`perfbench/`) reads it to report its `native.*`
/// counters. It goes when a change to that benchmark drops those counters.
pub fn native_totals() -> (u64, u64, u64, u64, u64) {
    (0, 0, 0, 0, 0)
}
