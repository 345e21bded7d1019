//! The hash-map MSHR file that `pv_mem::MshrFile` replaced, kept as the
//! oracle for the flat-array file's differential test.

use pv_mem::{BlockAddr, MshrEntry, MshrOutcome};
use std::collections::HashMap;

/// An MSHR file keyed by block address in a `HashMap`. Same API and same
/// observable behaviour as [`pv_mem::MshrFile`].
#[derive(Debug)]
pub struct ReferenceMshrFile {
    capacity: usize,
    entries: HashMap<u64, MshrEntry>,
    /// Minimum `ready_at` over `entries`, `u64::MAX` when empty.
    earliest: u64,
    peak_occupancy: usize,
    merges: u64,
    full_stalls: u64,
}

impl ReferenceMshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        ReferenceMshrFile {
            capacity,
            entries: HashMap::with_capacity(capacity * 2),
            earliest: u64::MAX,
            peak_occupancy: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// Number of entries currently in flight.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total number of merged (secondary) misses.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of requests that found the file full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Drops entries whose fills have completed by `now`.
    pub fn retire(&mut self, now: u64) {
        if self.earliest > now {
            return;
        }
        self.entries.retain(|_, entry| entry.ready_at > now);
        self.earliest = self.entries.values().map(|entry| entry.ready_at).min().unwrap_or(u64::MAX);
    }

    /// Looks up an in-flight fill for `block`.
    pub fn lookup(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.entries.get(&block.raw())
    }

    /// Completion cycle of the entry that retires first, `None` when empty.
    pub fn earliest_ready(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }

    /// When full at `now`, waits for the earliest fill to drain, retires
    /// and returns the wait; 0 when a slot is free.
    pub fn wait_for_slot(&mut self, now: u64) -> u64 {
        if self.entries.len() < self.capacity {
            return 0;
        }
        let Some(drain) = self.earliest_ready() else {
            return 0;
        };
        let start = now.max(drain);
        self.retire(start);
        start - now
    }

    /// Retires at `now`, then merges, allocates or reports a full file.
    pub fn register(&mut self, block: BlockAddr, now: u64, ready_at: u64) -> MshrOutcome {
        self.retire(now);
        if let Some(entry) = self.entries.get_mut(&block.raw()) {
            entry.merged += 1;
            self.merges += 1;
            return MshrOutcome::Merged {
                ready_at: entry.ready_at,
            };
        }
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        self.entries.insert(
            block.raw(),
            MshrEntry {
                block,
                ready_at,
                merged: 1,
            },
        );
        self.earliest = self.earliest.min(ready_at);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Clears all in-flight state; the counters are kept.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.earliest = u64::MAX;
    }
}
