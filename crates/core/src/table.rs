//! The PVTable: the virtualized predictor table living in main memory.
//!
//! The simulator tracks the table's *contents* functionally (the actual
//! entry values) while the *movement* of those contents through the memory
//! hierarchy is modelled by issuing real block requests for the table's
//! addresses. This mirrors how an RTL implementation would behave: the
//! values live in DRAM/caches, and what the architecture controls is which
//! blocks move when.
//!
//! The table is generic over the predictor's [`PvEntry`] type: its
//! associativity is however many packed entries fit in one memory block
//! under the entry's [`PvLayout`].

use crate::config::PvConfig;
use crate::entry::{PvEntry, PvLayout};
use crate::register::PvStartRegister;
use pv_mem::Address;

/// One set of the PVTable: up to `ways` entries, kept in recency order
/// (most recently used first) so that within-set replacement is LRU.
#[derive(Debug, PartialEq, Eq)]
pub struct PvSet<E> {
    entries: Vec<E>,
    ways: usize,
}

impl<E: Clone> Clone for PvSet<E> {
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(self.ways);
        entries.extend_from_slice(&self.entries);
        PvSet {
            entries,
            ways: self.ways,
        }
    }

    /// Reuses `self`'s storage: copying between sets of equal associativity
    /// never allocates.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.ways = source.ways;
    }
}

impl<E: PvEntry> PvSet<E> {
    /// Creates an empty set with the given associativity. Storage for all
    /// `ways` entries is reserved up front so inserts never reallocate.
    pub fn new(ways: usize) -> Self {
        PvSet {
            entries: Vec::with_capacity(ways),
            ways,
        }
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Associativity of the set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Looks up the entry tagged `tag`, promoting it to most-recently-used
    /// on a hit.
    pub fn lookup(&mut self, tag: u64) -> Option<&E> {
        let pos = self.entries.iter().position(|e| e.tag() == tag)?;
        self.entries[..=pos].rotate_right(1);
        Some(&self.entries[0])
    }

    /// Looks up `tag` without modifying recency.
    pub fn peek(&self, tag: u64) -> Option<&E> {
        self.entries.iter().find(|e| e.tag() == tag)
    }

    /// Inserts or updates `entry` (keyed by its tag), evicting the
    /// least-recently-used entry when the set is full. Returns the evicted
    /// entry if one was pushed out.
    pub fn insert(&mut self, entry: E) -> Option<E> {
        if let Some(pos) = self.entries.iter().position(|e| e.tag() == entry.tag()) {
            self.entries[pos] = entry;
            self.entries[..=pos].rotate_right(1);
            return None;
        }
        if self.entries.len() >= self.ways {
            self.entries.rotate_right(1);
            return Some(std::mem::replace(&mut self.entries[0], entry));
        }
        self.entries.push(entry);
        self.entries.rotate_right(1);
        None
    }

    /// Iterates over the entries, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries.iter()
    }

    /// Appends `entry` at the least-recently-used position if its tag is not
    /// already present, returning whether it was appended. Used by the
    /// packing codec to rebuild a set in recency order without the
    /// promote-on-insert shuffling (and without temporary buffers).
    ///
    /// # Panics
    ///
    /// Panics if the set is already full.
    pub(crate) fn push_lru(&mut self, entry: E) -> bool {
        if self.entries.iter().any(|e| e.tag() == entry.tag()) {
            return false;
        }
        assert!(self.entries.len() < self.ways, "set is full");
        self.entries.push(entry);
        true
    }
}

/// The in-memory predictor table of one core.
#[derive(Debug, Clone)]
pub struct PvTable<E> {
    start: PvStartRegister,
    layout: PvLayout,
    sets: Vec<PvSet<E>>,
}

impl<E: PvEntry> PvTable<E> {
    /// Creates an empty PVTable for the geometry in `config`, packed per
    /// `E`'s layout, based at `start`.
    pub fn new(config: &PvConfig, start: PvStartRegister) -> Self {
        config.assert_valid();
        let layout = PvLayout::of::<E>(config.block_bytes);
        PvTable {
            start,
            layout,
            sets: (0..config.table_sets).map(|_| PvSet::new(layout.entries_per_block())).collect(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// The packed layout of this table's entries.
    pub fn layout(&self) -> &PvLayout {
        &self.layout
    }

    /// The `PVStart` register value this table is based at.
    pub fn start(&self) -> PvStartRegister {
        self.start
    }

    /// Main-memory footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.sets.len() as u64 * self.layout.block_bytes
    }

    /// The physical address of set `set_index` (Figure 3b).
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn set_address(&self, set_index: usize) -> Address {
        assert!(
            set_index < self.sets.len(),
            "set index {set_index} out of range"
        );
        self.start.set_address(set_index, self.layout.block_bytes)
    }

    /// Reads the contents of set `set_index`.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn read_set(&self, set_index: usize) -> &PvSet<E> {
        &self.sets[set_index]
    }

    /// Mutable access to set `set_index` — used by the write-through
    /// [`crate::ProxiedTable`], which keeps the authoritative contents in
    /// the table and leaves only residency metadata to the PVCache.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn set_mut(&mut self, set_index: usize) -> &mut PvSet<E> {
        &mut self.sets[set_index]
    }

    /// Overwrites set `set_index`.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn write_set(&mut self, set_index: usize, contents: PvSet<E>) {
        self.sets[set_index] = contents;
    }

    /// Total number of entries stored across all sets.
    pub fn resident_entries(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::RawEntry;
    use pv_mem::Address;

    /// An SMS-shaped test entry: 11-bit tag, 32-bit payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct NarrowEntry {
        tag: u16,
        payload: u32,
    }

    impl PvEntry for NarrowEntry {
        const TAG_BITS: u32 = 11;
        const PAYLOAD_BITS: u32 = 32;

        fn tag(&self) -> u64 {
            u64::from(self.tag)
        }

        fn payload(&self) -> u64 {
            u64::from(self.payload)
        }

        fn from_parts(tag: u64, payload: u64) -> Option<Self> {
            (payload != 0).then_some(NarrowEntry {
                tag: tag as u16,
                payload: payload as u32,
            })
        }
    }

    fn table() -> PvTable<NarrowEntry> {
        PvTable::new(
            &PvConfig::pv8(),
            PvStartRegister::new(Address::new(0x10_0000)),
        )
    }

    #[test]
    fn set_addresses_are_block_strided() {
        let table = table();
        assert_eq!(table.set_address(0), Address::new(0x10_0000));
        assert_eq!(table.set_address(2), Address::new(0x10_0080));
        assert_eq!(table.footprint_bytes(), 64 * 1024);
        assert_eq!(table.sets(), 1024);
        assert_eq!(table.layout().entries_per_block(), 11);
    }

    #[test]
    fn associativity_derives_from_entry_widths() {
        // RawEntry is 128 bits wide, so only 4 fit in a 64-byte block.
        let table: PvTable<RawEntry> =
            PvTable::new(&PvConfig::pv8(), PvStartRegister::new(Address::new(0)));
        assert_eq!(table.layout().entries_per_block(), 4);
        assert_eq!(table.read_set(0).ways(), 4);
    }

    #[test]
    fn pv_set_lru_eviction() {
        let mut set: PvSet<NarrowEntry> = PvSet::new(2);
        assert!(set.insert(NarrowEntry { tag: 1, payload: 1 }).is_none());
        assert!(set.insert(NarrowEntry { tag: 2, payload: 2 }).is_none());
        // Touch tag 1; tag 2 becomes LRU.
        assert!(set.lookup(1).is_some());
        let evicted = set.insert(NarrowEntry { tag: 3, payload: 3 }).expect("full set must evict");
        assert_eq!(evicted.tag, 2);
        assert_eq!(set.len(), 2);
        assert!(set.peek(1).is_some());
        assert!(set.peek(3).is_some());
    }

    #[test]
    fn pv_set_update_replaces_in_place() {
        let mut set: PvSet<NarrowEntry> = PvSet::new(4);
        set.insert(NarrowEntry { tag: 7, payload: 1 });
        set.insert(NarrowEntry { tag: 7, payload: 2 });
        assert_eq!(set.len(), 1);
        assert_eq!(set.peek(7).map(|e| e.payload), Some(2));
    }

    #[test]
    fn write_and_read_set_round_trip() {
        let mut table = table();
        let mut contents = PvSet::new(11);
        contents.insert(NarrowEntry {
            tag: 5,
            payload: 0xE,
        });
        table.write_set(100, contents.clone());
        assert_eq!(table.read_set(100), &contents);
        assert_eq!(table.resident_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        table().set_address(5000);
    }
}
