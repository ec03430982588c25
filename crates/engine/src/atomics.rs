//! Atomic helpers mirroring the CUDA atomics the paper's functors use:
//! `atomicMin` (SSSP relaxation), `atomicAdd` on floats (PageRank and BC
//! accumulation), and typed views over plain arrays.
//!
//! Orderings are `Relaxed` throughout: every Gunrock step ends at a
//! bulk-synchronous barrier (the rayon join), which provides the
//! necessary happens-before edges between steps; within a step, the
//! algorithms tolerate races by construction (monotonic min/add).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically lowers `cell` to `min(cell, value)`, returning true if this
/// call strictly lowered the stored value — the paper's
/// `new_label < atomicMin(...)` idiom in `UpdateLabel` (Algorithm 1).
#[must_use = "the return value says whether this call won the relaxation; \
              ignoring it usually means a lost frontier insertion"]
#[inline]
pub fn fetch_min_u32(cell: &AtomicU32, value: u32) -> bool {
    cell.fetch_min(value, Ordering::Relaxed) > value
}

/// An `f32` cell supporting atomic add via CAS on the bit pattern — the
/// CPU equivalent of CUDA's `atomicAdd(float*)`.
#[derive(Debug)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// Creates a cell holding `v`.
    pub fn new(v: f32) -> Self {
        AtomicF32(AtomicU32::new(v.to_bits()))
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Stores `v` (non-atomic callers should prefer `&mut` phases).
    #[inline]
    pub fn store(&self, v: f32) {
        // ORDERING: Relaxed is only sound here because callers store
        // outside the parallel accumulation phase (initialization or
        // post-barrier normalization). A store that raced a same-phase
        // fetch_add could silently drop that add's contribution — the
        // store is NOT a read-modify-write, so it does not compose with
        // concurrent CAS loops. The bulk-synchronous barrier between
        // phases provides the required happens-before.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta`, returning the previous value.
    #[must_use = "fetch_add returns the pre-add value; discard it explicitly \
                  with `let _ =` if only the side effect is wanted"]
    #[inline]
    pub fn fetch_add(&self, delta: f32) -> f32 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f32::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// An `f64` cell supporting atomic add via CAS on the bit pattern.
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicF64(AtomicU64);

// `as_atomic_f64` reinterprets `f64` storage as `AtomicF64`; on targets
// where `f64` is less aligned than `AtomicU64` (e.g. i686) it must not compile.
const _: () = assert!(std::mem::align_of::<f64>() == std::mem::align_of::<AtomicF64>());

impl AtomicF64 {
    /// Creates a cell holding `v`.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Stores `v`.
    #[inline]
    pub fn store(&self, v: f64) {
        // ORDERING: Relaxed — same non-atomic-phase caveat as
        // AtomicF32::store: only sound outside the parallel accumulation
        // phase, with the bulk-synchronous barrier supplying the
        // happens-before edge.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta`, returning the previous value.
    #[must_use = "fetch_add returns the pre-add value; discard it explicitly \
                  with `let _ =` if only the side effect is wanted"]
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Reinterprets a mutable `u32` slice as atomics for the duration of a
/// parallel phase. Standard layout-compatible cast (`AtomicU32` has the
/// same size/alignment as `u32`).
#[inline]
pub fn as_atomic_u32(slice: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: AtomicU32 is #[repr(C, align(4))] over u32; exclusive borrow
    // guarantees no non-atomic aliases exist during the returned lifetime.
    unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
}

/// Reinterprets a mutable `f64` slice as [`AtomicF64`] cells for the
/// duration of a parallel accumulation phase, so a plain array can take
/// atomic adds in one step and plain stores in the next.
#[inline]
pub fn as_atomic_f64(slice: &mut [f64]) -> &[AtomicF64] {
    // SAFETY: AtomicF64 is #[repr(transparent)] over AtomicU64, which has
    // the size of f64 and (asserted above) its alignment; exclusive borrow
    // guarantees no non-atomic aliases exist during the returned lifetime.
    unsafe { &*(slice as *mut [f64] as *const [AtomicF64]) }
}

/// Allocates a vector of `AtomicU32` initialized to `init`.
pub fn atomic_u32_vec(len: usize, init: u32) -> Vec<AtomicU32> {
    (0..len).map(|_| AtomicU32::new(init)).collect()
}

/// Snapshots a slice of atomics into plain values.
pub fn unwrap_atomic_u32(slice: &[AtomicU32]) -> Vec<u32> {
    slice.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Allocates a vector of `AtomicF32` initialized to `init`.
pub fn atomic_f32_vec(len: usize, init: f32) -> Vec<AtomicF32> {
    (0..len).map(|_| AtomicF32::new(init)).collect()
}

/// Snapshots a slice of `AtomicF32` into plain values.
pub fn unwrap_atomic_f32(slice: &[AtomicF32]) -> Vec<f32> {
    slice.iter().map(|a| a.load()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn fetch_min_reports_strict_improvement() {
        let cell = AtomicU32::new(10);
        assert!(fetch_min_u32(&cell, 5));
        assert!(!fetch_min_u32(&cell, 5)); // equal: not an improvement
        assert!(!fetch_min_u32(&cell, 7));
        assert_eq!(cell.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_fetch_min_converges_to_global_min() {
        let cell = AtomicU32::new(u32::MAX);
        (0..10_000u32).into_par_iter().for_each(|i| {
            let _ = fetch_min_u32(&cell, 10_000 - i);
        });
        assert_eq!(cell.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn atomic_f32_concurrent_adds_sum_exactly() {
        // powers of two add exactly in f32
        let acc = AtomicF32::new(0.0);
        (0..4096).into_par_iter().for_each(|_| {
            let _ = acc.fetch_add(0.25);
        });
        assert_eq!(acc.load(), 1024.0);
    }

    #[test]
    fn atomic_f64_add_and_store() {
        let acc = AtomicF64::new(1.5);
        assert_eq!(acc.fetch_add(2.5), 1.5);
        assert_eq!(acc.load(), 4.0);
        acc.store(-1.0);
        assert_eq!(acc.load(), -1.0);
    }

    #[test]
    fn as_atomic_view_round_trips() {
        let mut data = vec![7u32, 8, 9];
        {
            let atoms = as_atomic_u32(&mut data);
            atoms[1].store(80, Ordering::Relaxed);
        }
        assert_eq!(data, vec![7, 80, 9]);
        let mut sums = vec![0.5f64, 1.0];
        {
            let atoms = as_atomic_f64(&mut sums);
            let _ = atoms[0].fetch_add(0.25);
        }
        assert_eq!(sums, vec![0.75, 1.0]);
    }

    #[test]
    fn vec_helpers() {
        let v = atomic_u32_vec(3, 42);
        assert_eq!(unwrap_atomic_u32(&v), vec![42, 42, 42]);
        let f = atomic_f32_vec(2, 0.5);
        assert_eq!(unwrap_atomic_f32(&f), vec![0.5, 0.5]);
    }
}
