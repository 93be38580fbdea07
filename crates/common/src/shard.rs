//! Lazily-allocated sharded atomic arrays.
//!
//! Several structures in the workspace are logically "one atomic word per
//! cache line of the simulated memory": the HTM's versioned line locks, the
//! persistence domain's dirty bits, and the flush queues' per-line dedup
//! stamps. Sizing those densely means a 256 MiB space pays tens of
//! megabytes of metadata up front even if the workload touches a few
//! thousand lines.
//!
//! [`LazyAtomicArray`] instead splits the index space into fixed-size
//! *segments* that are allocated on first touch (via [`std::sync::OnceLock`],
//! so concurrent first touches are safe and exactly one allocation wins).
//! Unallocated segments read as zero through [`LazyAtomicArray::peek`] /
//! [`LazyAtomicArray::load_or_zero`], which never allocate — the natural
//! encoding for "version 0", "not dirty", and "never flushed".
//!
//! Steady-state accesses to an already-allocated segment cost one extra
//! atomic load (the `OnceLock` check) over a dense array, and perform no
//! heap allocation — the property the counting-allocator tests assert. A
//! caller that loads one slot repeatedly (the HTM's versioned read checks
//! a line's lock word before and after the data load) pays that load once
//! by holding on to the `&AtomicU64` that [`LazyAtomicArray::peek`]
//! returns. Segments are fixed-size arrays, so the offset within one
//! needs no bounds check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of `u64` slots per lazily-allocated segment (32 KiB segments).
pub const SEGMENT_SLOTS: u64 = 4096;

/// One lazily-allocated segment.
type Segment = [AtomicU64; SEGMENT_SLOTS as usize];

/// A fixed-length array of `AtomicU64` whose backing storage is allocated
/// in [`SEGMENT_SLOTS`]-sized segments on first write access.
pub struct LazyAtomicArray {
    segments: Box<[OnceLock<Box<Segment>>]>,
    len: u64,
}

impl std::fmt::Debug for LazyAtomicArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyAtomicArray")
            .field("len", &self.len)
            .field("segments", &self.segments.len())
            .field("allocated_segments", &self.allocated_segments())
            .finish()
    }
}

impl LazyAtomicArray {
    /// Creates an array of `len` zero-initialized slots. No segment is
    /// allocated until it is first touched through [`LazyAtomicArray::get`].
    pub fn new(len: u64) -> Self {
        let count = len.div_ceil(SEGMENT_SLOTS) as usize;
        LazyAtomicArray {
            segments: (0..count).map(|_| OnceLock::new()).collect(),
            len,
        }
    }

    /// The logical number of slots.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the array has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments that have been materialized so far (diagnostics
    /// and tests).
    pub fn allocated_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.get().is_some()).count()
    }

    /// Returns the slot at `idx`, allocating its segment if needed.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: u64) -> &AtomicU64 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        let seg = self.segments[(idx / SEGMENT_SLOTS) as usize].get_or_init(|| {
            (0..SEGMENT_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect::<Box<[AtomicU64]>>()
                .try_into()
                .expect("SEGMENT_SLOTS slots")
        });
        &seg[(idx % SEGMENT_SLOTS) as usize]
    }

    /// Returns the slot at `idx` if its segment has been allocated. Never
    /// allocates; an unallocated segment means every slot in it is still
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn peek(&self, idx: u64) -> Option<&AtomicU64> {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        self.segments[(idx / SEGMENT_SLOTS) as usize]
            .get()
            .map(|seg| &seg[(idx % SEGMENT_SLOTS) as usize])
    }

    /// Acquire-loads the slot at `idx`, or 0 if its segment was never
    /// allocated (the value every slot starts with).
    #[inline]
    pub fn load_or_zero(&self, idx: u64) -> u64 {
        match self.peek(idx) {
            Some(slot) => slot.load(Ordering::Acquire),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_allocates_on_first_touch() {
        let a = LazyAtomicArray::new(3 * SEGMENT_SLOTS + 1);
        assert_eq!(a.len(), 3 * SEGMENT_SLOTS + 1);
        assert_eq!(a.allocated_segments(), 0);
        assert!(a.peek(0).is_none());
        assert_eq!(a.load_or_zero(2 * SEGMENT_SLOTS), 0);
        assert_eq!(a.allocated_segments(), 0, "reads must not allocate");

        a.get(SEGMENT_SLOTS + 5).store(9, Ordering::Release);
        assert_eq!(a.allocated_segments(), 1);
        assert_eq!(a.load_or_zero(SEGMENT_SLOTS + 5), 9);
        assert_eq!(
            a.load_or_zero(SEGMENT_SLOTS + 6),
            0,
            "neighbours in a fresh segment are zero"
        );
    }

    #[test]
    fn last_partial_segment_is_addressable() {
        let a = LazyAtomicArray::new(SEGMENT_SLOTS + 3);
        a.get(SEGMENT_SLOTS + 2).store(7, Ordering::Release);
        assert_eq!(a.load_or_zero(SEGMENT_SLOTS + 2), 7);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        LazyAtomicArray::new(4).get(4);
    }

    #[test]
    fn concurrent_first_touch_is_safe() {
        let a = std::sync::Arc::new(LazyAtomicArray::new(SEGMENT_SLOTS * 2));
        std::thread::scope(|s| {
            for t in 0..4 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..SEGMENT_SLOTS {
                        a.get(i).fetch_add(t + 1, Ordering::AcqRel);
                    }
                });
            }
        });
        assert_eq!(a.allocated_segments(), 1);
        let total: u64 = (0..SEGMENT_SLOTS).map(|i| a.load_or_zero(i)).sum::<u64>();
        assert_eq!(total, SEGMENT_SLOTS * (1 + 2 + 3 + 4));
    }
}
