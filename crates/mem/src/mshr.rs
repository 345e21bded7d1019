//! Miss-status holding registers.
//!
//! An [`MshrFile`] tracks outstanding fills at block granularity so that
//! concurrent accesses to a block that is already being fetched merge into
//! the in-flight request instead of generating duplicate traffic. Both the
//! L1/L2 caches and the PVProxy use this structure (the paper's PVProxy
//! contains "an MSHR-like structure").

use crate::address::BlockAddr;

/// One outstanding fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Block being fetched.
    pub block: BlockAddr,
    /// Cycle at which the fill completes.
    pub ready_at: u64,
    /// Number of requests merged into this entry (including the initiator).
    pub merged: u32,
}

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the fill.
    Allocated,
    /// The block was already in flight; the caller should wait until
    /// `ready_at` instead of issuing a new fill.
    Merged {
        /// Completion cycle of the in-flight fill.
        ready_at: u64,
    },
    /// No free entry was available; the caller must stall and retry (modelled
    /// as paying the full fill latency serially).
    Full,
}

/// A file of miss-status holding registers.
///
/// The live entries sit unordered in the first `len` slots of one flat
/// array of exactly `capacity` slots (the paper's configurations use 4 to 64).
/// Every operation is a linear scan by [`BlockAddr`]: at these sizes a scan
/// of a few cache lines beats hashing, and since nothing observes the order
/// of the entries, results do not depend on it.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// `capacity` slots; only `entries[..len]` are live.
    entries: Box<[MshrEntry]>,
    len: usize,
    /// Cached minimum `ready_at` over the live entries (`u64::MAX` when
    /// empty), so the per-miss [`Self::retire`] call is a single compare on
    /// the common nothing-has-completed-yet path instead of a scan. Updated
    /// on insert (`min`), recomputed only when entries actually retire.
    earliest: u64,
    /// Peak simultaneous occupancy, for reporting.
    peak_occupancy: usize,
    /// Total merges performed.
    merges: u64,
    /// Times a request found the file full.
    full_stalls: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// The entry array is allocated here at exactly `capacity` slots and
    /// never grows, because [`Self::register`] reports [`MshrOutcome::Full`]
    /// instead of inserting past the cap; the access hot path stays
    /// allocation-free (pinned by `tests/tests/alloc_free.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        let vacant = MshrEntry {
            block: BlockAddr::new(0),
            ready_at: 0,
            merged: 0,
        };
        MshrFile {
            entries: vec![vacant; capacity].into_boxed_slice(),
            len: 0,
            earliest: u64::MAX,
            peak_occupancy: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// Number of entries currently in flight.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
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

    /// Drops entries whose fills have completed by `now`. The cached
    /// earliest completion makes the common no-entry-has-completed case a
    /// single compare; otherwise one compaction pass keeps the pending
    /// entries and recomputes the earliest completion as it goes.
    pub fn retire(&mut self, now: u64) {
        if self.earliest > now {
            return;
        }
        let mut earliest = u64::MAX;
        let mut kept = 0;
        for i in 0..self.len {
            let entry = self.entries[i];
            if entry.ready_at > now {
                earliest = earliest.min(entry.ready_at);
                self.entries[kept] = entry;
                kept += 1;
            }
        }
        self.len = kept;
        self.earliest = earliest;
    }

    /// Looks up an in-flight fill for `block`.
    pub fn lookup(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.entries[..self.len].iter().find(|entry| entry.block == block)
    }

    /// The completion cycle of the entry that will retire first, or `None`
    /// when the file is empty. Under queued contention a requester that
    /// finds the file full waits until this cycle for a slot to drain.
    pub fn earliest_ready(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }

    /// Queued-contention backpressure: when the file is full at cycle
    /// `now`, waits until the earliest outstanding fill drains (retiring
    /// completed entries) and returns the wait in cycles; returns 0 when a
    /// slot is already free. The request is delayed, never dropped.
    pub fn wait_for_slot(&mut self, now: u64) -> u64 {
        if self.len < self.entries.len() {
            return 0;
        }
        let Some(drain) = self.earliest_ready() else {
            return 0;
        };
        let start = now.max(drain);
        self.retire(start);
        start - now
    }

    /// Registers a miss on `block` whose fill would complete at `ready_at`.
    ///
    /// Completed entries are retired first (based on `now`), then the miss
    /// either merges into an existing entry, allocates a new one, or reports
    /// that the file is full.
    pub fn register(&mut self, block: BlockAddr, now: u64, ready_at: u64) -> MshrOutcome {
        self.retire(now);
        let live = &mut self.entries[..self.len];
        if let Some(entry) = live.iter_mut().find(|entry| entry.block == block) {
            entry.merged += 1;
            self.merges += 1;
            return MshrOutcome::Merged {
                ready_at: entry.ready_at,
            };
        }
        if self.len == self.entries.len() {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        self.entries[self.len] = MshrEntry {
            block,
            ready_at,
            merged: 1,
        };
        self.len += 1;
        self.earliest = self.earliest.min(ready_at);
        self.peak_occupancy = self.peak_occupancy.max(self.len);
        MshrOutcome::Allocated
    }

    /// Clears all in-flight state (used when resetting between sampling
    /// windows).
    pub fn clear(&mut self) {
        self.len = 0;
        self.earliest = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_allocates() {
        let mut mshr = MshrFile::new(4);
        let outcome = mshr.register(BlockAddr::new(1), 0, 100);
        assert_eq!(outcome, MshrOutcome::Allocated);
        assert_eq!(mshr.occupancy(), 1);
    }

    #[test]
    fn second_miss_to_same_block_merges() {
        let mut mshr = MshrFile::new(4);
        mshr.register(BlockAddr::new(1), 0, 100);
        let outcome = mshr.register(BlockAddr::new(1), 10, 110);
        assert_eq!(outcome, MshrOutcome::Merged { ready_at: 100 });
        assert_eq!(mshr.merges(), 1);
        assert_eq!(mshr.occupancy(), 1);
    }

    #[test]
    fn completed_entries_retire() {
        let mut mshr = MshrFile::new(4);
        mshr.register(BlockAddr::new(1), 0, 100);
        // At cycle 200 the fill has completed; a new miss allocates again.
        let outcome = mshr.register(BlockAddr::new(1), 200, 300);
        assert_eq!(outcome, MshrOutcome::Allocated);
    }

    #[test]
    fn full_file_reports_full() {
        let mut mshr = MshrFile::new(2);
        mshr.register(BlockAddr::new(1), 0, 100);
        mshr.register(BlockAddr::new(2), 0, 100);
        let outcome = mshr.register(BlockAddr::new(3), 0, 100);
        assert_eq!(outcome, MshrOutcome::Full);
        assert_eq!(mshr.full_stalls(), 1);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut mshr = MshrFile::new(8);
        for i in 0..5 {
            mshr.register(BlockAddr::new(i), 0, 100);
        }
        mshr.retire(1000);
        assert_eq!(mshr.occupancy(), 0);
        assert_eq!(mshr.peak_occupancy(), 5);
    }

    #[test]
    fn lookup_finds_in_flight_entries() {
        let mut mshr = MshrFile::new(2);
        mshr.register(BlockAddr::new(7), 0, 50);
        assert!(mshr.lookup(BlockAddr::new(7)).is_some());
        assert!(mshr.lookup(BlockAddr::new(8)).is_none());
        mshr.clear();
        assert!(mshr.lookup(BlockAddr::new(7)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }

    #[test]
    fn earliest_ready_reports_next_drain() {
        let mut mshr = MshrFile::new(4);
        assert_eq!(mshr.earliest_ready(), None);
        mshr.register(BlockAddr::new(1), 0, 300);
        mshr.register(BlockAddr::new(2), 0, 100);
        mshr.register(BlockAddr::new(3), 0, 200);
        assert_eq!(mshr.earliest_ready(), Some(100));
        mshr.retire(150);
        assert_eq!(mshr.earliest_ready(), Some(200));
    }

    /// The cached minimum behind `earliest_ready` must track inserts,
    /// partial retires (including the nothing-completed early exit) and
    /// clears.
    #[test]
    fn cached_earliest_survives_retire_insert_clear_cycles() {
        let mut mshr = MshrFile::new(4);
        mshr.register(BlockAddr::new(1), 0, 50);
        mshr.register(BlockAddr::new(2), 0, 150);
        mshr.retire(10); // nothing completed: the early-exit compare path
        assert_eq!(mshr.earliest_ready(), Some(50));
        assert_eq!(mshr.occupancy(), 2);
        mshr.retire(60); // retires the first entry, recomputes the minimum
        assert_eq!(mshr.earliest_ready(), Some(150));
        mshr.register(BlockAddr::new(3), 60, 100);
        assert_eq!(mshr.earliest_ready(), Some(100));
        mshr.clear();
        assert_eq!(mshr.earliest_ready(), None);
    }

    #[test]
    fn wait_for_slot_delays_until_a_drain_and_frees_it() {
        let mut mshr = MshrFile::new(2);
        mshr.register(BlockAddr::new(1), 0, 100);
        mshr.register(BlockAddr::new(2), 0, 250);
        // Full at cycle 10: wait until the first fill completes at 100.
        assert_eq!(mshr.wait_for_slot(10), 90);
        assert_eq!(mshr.occupancy(), 1, "the drained entry must be retired");
        assert_eq!(
            mshr.register(BlockAddr::new(3), 100, 500),
            MshrOutcome::Allocated
        );
        // Not full: no wait, nothing retired.
        let mut free = MshrFile::new(2);
        free.register(BlockAddr::new(1), 0, 100);
        assert_eq!(free.wait_for_slot(10), 0);
        assert_eq!(free.occupancy(), 1);
    }
}
