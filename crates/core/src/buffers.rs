//! The PVProxy's small side buffers: the pattern buffer and the evict
//! buffer.
//!
//! Both are structural-capacity models: in the cycle-approximate simulation
//! a PVCache miss resolves with a known completion time, so these buffers do
//! not queue work, but they bound how many requests can be outstanding at
//! once (occupancy is tracked against `now`) and their capacities feed the
//! Section 4.6 storage accounting.

/// A pending operation occupying a buffer slot until `done_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    id: u64,
    done_at: u64,
}

#[derive(Debug, Clone, Default)]
struct BoundedBuffer {
    capacity: usize,
    pending: Vec<Pending>,
    overflows: u64,
    peak: usize,
}

impl BoundedBuffer {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        BoundedBuffer {
            capacity,
            // Never holds more than `capacity`: sized once, never regrown.
            pending: Vec::with_capacity(capacity),
            overflows: 0,
            peak: 0,
        }
    }

    fn retire(&mut self, now: u64) {
        self.pending.retain(|p| p.done_at > now);
    }

    fn try_push(&mut self, id: u64, now: u64, done_at: u64) -> bool {
        self.retire(now);
        if self.pending.len() >= self.capacity {
            self.overflows += 1;
            return false;
        }
        self.pending.push(Pending { id, done_at });
        self.peak = self.peak.max(self.pending.len());
        true
    }

    fn occupancy(&self) -> usize {
        self.pending.len()
    }
}

/// The pattern buffer: holds the trigger information of PHT lookups whose
/// PVTable set is still being fetched from the memory hierarchy (16 entries
/// in the paper, 4 bytes each).
#[derive(Debug, Clone)]
pub struct PatternBuffer {
    inner: BoundedBuffer,
}

impl PatternBuffer {
    /// Creates a pattern buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        PatternBuffer {
            inner: BoundedBuffer::new(capacity),
        }
    }

    /// Tries to reserve a slot for the lookup of table index `index`, which
    /// completes at `done_at`. Returns `false` (and counts an overflow) when
    /// the buffer is full — the prediction is dropped, not queued, mirroring
    /// the advisory nature of the predictor.
    pub fn try_reserve(&mut self, index: u64, now: u64, done_at: u64) -> bool {
        self.inner.try_push(index, now, done_at)
    }

    /// Lookups dropped because the buffer was full.
    pub fn overflows(&self) -> u64 {
        self.inner.overflows
    }

    /// Current occupancy (after retiring completed entries would require a
    /// `now`; this is the raw count).
    pub fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    /// Peak occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.inner.peak
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

/// The evict buffer: holds dirty PVTable sets on their way to the L2 (4
/// entries of one 64-byte block each in the paper).
#[derive(Debug, Clone)]
pub struct EvictBuffer {
    inner: BoundedBuffer,
    forced_stalls: u64,
}

impl EvictBuffer {
    /// Creates an evict buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        EvictBuffer {
            inner: BoundedBuffer::new(capacity),
            forced_stalls: 0,
        }
    }

    /// Registers a dirty write-back of PVTable set `set_index` that drains
    /// at `done_at`. When the buffer is full the write-back still happens
    /// (correctness requires it) but a stall is recorded.
    pub fn push(&mut self, set_index: usize, now: u64, done_at: u64) {
        if !self.inner.try_push(set_index as u64, now, done_at) {
            self.forced_stalls += 1;
        }
    }

    /// Write-backs that found the buffer full.
    pub fn forced_stalls(&self) -> u64 {
        self.forced_stalls
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    /// Peak occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.inner.peak
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_buffer_accepts_until_full() {
        let mut buffer = PatternBuffer::new(2);
        assert!(buffer.try_reserve(1, 0, 100));
        assert!(buffer.try_reserve(2, 0, 100));
        assert!(!buffer.try_reserve(3, 0, 100));
        assert_eq!(buffer.overflows(), 1);
        assert_eq!(buffer.peak_occupancy(), 2);
    }

    #[test]
    fn pattern_buffer_frees_completed_slots() {
        let mut buffer = PatternBuffer::new(1);
        assert!(buffer.try_reserve(1, 0, 50));
        // At cycle 100 the first lookup has completed; the slot is free.
        assert!(buffer.try_reserve(2, 100, 150));
        assert_eq!(buffer.overflows(), 0);
    }

    #[test]
    fn evict_buffer_counts_stalls_but_never_drops() {
        let mut buffer = EvictBuffer::new(1);
        buffer.push(1, 0, 100);
        buffer.push(2, 0, 100);
        assert_eq!(buffer.forced_stalls(), 1);
        assert_eq!(buffer.capacity(), 1);
    }

    #[test]
    fn occupancy_reflects_outstanding_entries() {
        let mut buffer = EvictBuffer::new(4);
        buffer.push(1, 0, 10);
        buffer.push(2, 0, 20);
        assert_eq!(buffer.occupancy(), 2);
        buffer.push(3, 30, 40); // retires both earlier entries
        assert_eq!(buffer.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_panics() {
        PatternBuffer::new(0);
    }
}
