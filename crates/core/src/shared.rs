//! The PVProxy: the on-chip agent between the optimization engines and
//! their in-memory PVTables (paper Sections 2.2 and 3.2.2), one per core.
//!
//! A [`SharedPvProxy`] owns a PVCache plus one MSHR, pattern buffer and
//! evict buffer, and funnels every registered table's fills and write-backs
//! through a single `Requester::pv_proxy(core)` stream. It serves both of
//! the simulator's arrangements:
//!
//! * a **one-table** proxy, owned by the predictor adapter whose table it
//!   serves (SMS-PV8/16, Markov-PV8, and each half of the dedicated
//!   composite) — the paper's per-predictor PVProxy;
//! * a **shared** proxy, owned by the cohabitation composite and lent to
//!   several tables, so that sets from different predictors (SMS, Markov,
//!   any future [`crate::PvEntry`] backend) arbitrate for the same
//!   [`SharedPvCache`] lines under one LRU order — entries are tagged with a
//!   **table id** in addition to the set index — and for the same L2 ports,
//!   MSHR slots and DRAM bandwidth, with per-table statistics kept
//!   separately. This is the paper's economic argument: many predictors
//!   amortize one physical resource.
//!
//! # Contents are write-through
//!
//! The cache tracks *residency and timing only* (which (table, set) is
//! cached, dirty bit, fill completion time). The authoritative entry values
//! live in each predictor's own [`crate::PvTable`], which its
//! [`crate::ProxiedTable`] updates write-through. Keeping the table current
//! makes the cache metadata-only, which is what lets two entry types share
//! one cache without type erasure.
//!
//! Each access reports whether it filled its set and which entry the fill
//! evicted ([`SharedSetAccess`]), and the rule for a *clean* eviction
//! follows from who owns the proxy:
//!
//! * an **owned** one-table proxy behaves like the paper's PVProxy, which
//!   discards a clean victim (Section 2.2): its table restores the set's
//!   fill-time copy, dropping the in-set recency promotions that lookups
//!   made while the set was cached;
//! * a **lent** shared proxy keeps those promotions: a clean victim is
//!   simply dropped from the cache, and the owning table keeps the set as
//!   the lookups left it.
//!
//! Dirty victims are written back towards the L2 in both arrangements; the
//! table already holds their contents.

//! # Partial backing and re-planning
//!
//! Under a scarce [`crate::PvRegionPlan`] (sub-regions smaller than the full
//! table), a table binding backs only the first `backed_blocks` *backing
//! blocks* of its sub-region. Sets map to backing blocks bit-reversed
//! ([`SharedPvProxy::bind_plan`]), so workloads whose hot sets cluster in a
//! narrow index range still spread across the backed/unbacked split.
//! Lookups to unbacked sets miss without traffic; stores to unbacked sets
//! are dropped and the owner must skip its write-through update
//! ([`SharedSetAccess::resident`]). [`SharedPvProxy::apply_plan`] moves the
//! boundaries at an epoch edge: because contents are write-through, the
//! move only invalidates cache entries whose backing block address changed
//! (writing dirty ones back at their *old* address) — data is never copied.

use crate::buffers::{EvictBuffer, PatternBuffer};
use crate::config::PvConfig;
use crate::plan::PvRegionPlan;
use crate::stats::PvStats;
use pv_mem::{AccessKind, Address, DataClass, MemoryHierarchy, MshrFile, Requester};

/// A PVTable set resident in the shared PVCache: residency metadata only
/// (see the module docs — contents are write-through in the owning table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPvCacheEntry {
    /// Which cohabiting table the set belongs to.
    pub table: usize,
    /// Which PVTable set of that table this entry caches.
    pub set_index: usize,
    /// Whether the set was modified since it was fetched.
    pub dirty: bool,
    /// Cycle at which the fill that installed this entry completes; lookups
    /// hitting earlier must report this time, not their own cycle.
    pub ready_at: u64,
}

/// The fully-associative, LRU, *table-tagged* PVCache of one core's
/// proxy. The paper's final design holds eight PVTable sets, each one memory
/// block of predictor entries, with a dirty bit per entry.
#[derive(Debug, Clone)]
pub struct SharedPvCache {
    capacity: usize,
    /// Most recently used first.
    entries: Vec<SharedPvCacheEntry>,
}

impl SharedPvCache {
    /// Creates a shared PVCache with room for `capacity` PVTable sets
    /// (across all tables).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "the PVCache needs at least one entry");
        SharedPvCache {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Configured capacity in PVTable sets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of sets currently cached, all tables together.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of resident sets belonging to `table`.
    pub fn occupancy_of(&self, table: usize) -> usize {
        self.entries.iter().filter(|e| e.table == table).count()
    }

    /// Whether `(table, set_index)` is cached (no recency update).
    pub fn contains(&self, table: usize, set_index: usize) -> bool {
        self.entries.iter().any(|e| e.table == table && e.set_index == set_index)
    }

    /// Looks up `(table, set_index)`, promoting it to most-recently-used.
    pub fn lookup(&mut self, table: usize, set_index: usize) -> Option<&mut SharedPvCacheEntry> {
        let pos = self.entries.iter().position(|e| e.table == table && e.set_index == set_index)?;
        self.entries[..=pos].rotate_right(1);
        Some(&mut self.entries[0])
    }

    /// Installs `(table, set_index)` with a fill completing at `ready_at`,
    /// evicting the LRU entry — *of whichever table holds it* — when the
    /// cache is full. Re-inserting a resident set ORs the dirty flag and
    /// keeps the earlier ready time.
    pub fn insert(
        &mut self,
        table: usize,
        set_index: usize,
        dirty: bool,
        ready_at: u64,
    ) -> Option<SharedPvCacheEntry> {
        if let Some(entry) = self.lookup(table, set_index) {
            entry.dirty |= dirty;
            entry.ready_at = entry.ready_at.min(ready_at);
            return None;
        }
        let fresh = SharedPvCacheEntry {
            table,
            set_index,
            dirty,
            ready_at,
        };
        if self.entries.len() >= self.capacity {
            self.entries.rotate_right(1);
            return Some(std::mem::replace(&mut self.entries[0], fresh));
        }
        self.entries.push(fresh);
        self.entries.rotate_right(1);
        None
    }
}

/// One table bound to a [`SharedPvProxy`]: where its sub-region lives and
/// how big it is.
#[derive(Debug, Clone)]
struct TableBinding {
    /// The table's `PVStart`: base address of its sub-region.
    base: Address,
    /// Number of PVTable sets.
    table_sets: usize,
    /// Backing blocks the sub-region provides (≤ `table_sets`); sets whose
    /// backing block falls past this bound are unbacked. Equal to
    /// `table_sets` unless a scarce plan is bound.
    backed_blocks: usize,
    /// Block size each set packs into.
    block_bytes: u64,
    /// Report label (e.g. `"SMS"`, `"Markov"`).
    label: String,
}

/// What applying a new region plan did to the shared cache
/// ([`SharedPvProxy::apply_plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplanOutcome {
    /// Cache entries removed because their backing block migrated (address
    /// changed) or lost its backing.
    pub invalidated: u64,
    /// Invalidated dirty entries written back at their old address.
    pub writebacks: u64,
}

/// Outcome of one set access ([`SharedPvProxy::lookup_set`] or
/// [`SharedPvProxy::store_set`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSetAccess {
    /// Whether the set is (or will be) resident. `false` when a lookup was
    /// dropped because the pattern buffer was full, or when the set is not
    /// backed by the current region plan — the caller must then report a
    /// predictor miss, or drop the store, without touching its table: an
    /// entry that survived in the owner's table without backing capacity
    /// would resurface for free once the set becomes backed again.
    pub resident: bool,
    /// Cycle at which the set's data is available.
    pub ready_at: u64,
    /// Whether this access missed and installed the set (fetched from the
    /// memory hierarchy or merged into an in-flight fetch).
    pub filled: bool,
    /// The entry the fill pushed out of the cache, if it was full.
    pub evicted: Option<SharedPvCacheEntry>,
}

impl SharedSetAccess {
    /// An access that installed nothing.
    fn unfilled(resident: bool, ready_at: u64) -> Self {
        SharedSetAccess {
            resident,
            ready_at,
            filled: false,
            evicted: None,
        }
    }
}

/// The PVProxy of one core, arbitrating every table registered with it
/// through one PVCache and one memory-request stream.
///
/// Typed tables ([`crate::ProxiedTable`]) register with [`Self::add_table`]
/// and then drive [`Self::lookup_set`] / [`Self::store_set`]; the proxy
/// handles residency, replacement across tables, fill merging, dirty
/// write-backs and per-table statistics. Requests that hit in the PVCache
/// complete after its latency; misses compute the set's memory address from
/// the table's `PVStart` base (Figure 3b) and issue an ordinary read to the
/// L2. It is deliberately untyped: because contents are write-through in the
/// owners' tables (module docs), the proxy only ever needs a set's
/// *address*, which it computes from the binding's base.
#[derive(Debug)]
pub struct SharedPvProxy {
    core: usize,
    config: PvConfig,
    cache: SharedPvCache,
    mshr: MshrFile,
    pattern_buffer: PatternBuffer,
    evict_buffer: EvictBuffer,
    tables: Vec<TableBinding>,
    stats: Vec<PvStats>,
    /// Whether sets map to backing blocks bit-reversed (scarce-plan mode,
    /// set by [`Self::bind_plan`]); the identity mapping otherwise.
    interleaved: bool,
}

impl SharedPvProxy {
    /// Creates the proxy for `core`. `config.pvcache_sets` is the PVCache
    /// capacity, shared by every table registered later.
    pub fn new(core: usize, config: PvConfig) -> Self {
        config.assert_valid();
        SharedPvProxy {
            core,
            cache: SharedPvCache::new(config.pvcache_sets),
            mshr: MshrFile::new(config.mshr_entries),
            pattern_buffer: PatternBuffer::new(config.pattern_buffer_entries),
            evict_buffer: EvictBuffer::new(config.evict_buffer_entries),
            tables: Vec::new(),
            stats: Vec::new(),
            interleaved: false,
            config,
        }
    }

    /// Registers a cohabiting table based at `base` with `table_sets` sets
    /// of one `block_bytes` block each, returning its table id.
    pub fn add_table(
        &mut self,
        base: Address,
        table_sets: usize,
        block_bytes: u64,
        label: &str,
    ) -> usize {
        assert!(
            table_sets > 0 && table_sets.is_power_of_two(),
            "table_sets must be a power of two"
        );
        self.tables.push(TableBinding {
            base,
            table_sets,
            backed_blocks: table_sets,
            block_bytes,
            label: label.to_owned(),
        });
        self.stats.push(PvStats::default());
        self.tables.len() - 1
    }

    /// The proxy's configuration.
    pub fn config(&self) -> &PvConfig {
        &self.config
    }

    /// Which core this proxy serves.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Number of registered tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Report label of `table`.
    pub fn table_label(&self, table: usize) -> &str {
        &self.tables[table].label
    }

    /// The table-tagged PVCache.
    pub fn cache(&self) -> &SharedPvCache {
        &self.cache
    }

    /// Statistics of one table.
    pub fn table_stats(&self, table: usize) -> &PvStats {
        &self.stats[table]
    }

    /// Statistics summed over every table.
    pub fn stats_merged(&self) -> PvStats {
        let mut total = PvStats::default();
        for stats in &self.stats {
            total.merge(stats);
        }
        total
    }

    /// Resets every table's statistics (residency state is preserved).
    pub fn reset_stats(&mut self) {
        for stats in &mut self.stats {
            *stats = PvStats::default();
        }
    }

    /// The backing-block index of `(table, set_index)`: the identity map by
    /// default, or the set index bit-reversed (within the table's index
    /// width) once a scarce plan is bound. Bit reversal makes "the first
    /// `backed_blocks` blocks" an even sampling of the set space, so
    /// workloads whose hot sets cluster in a narrow range (e.g. low Markov
    /// set indices under few contexts) still feel capacity proportionally.
    fn block_of(&self, table: usize, set_index: usize) -> usize {
        let binding = &self.tables[table];
        assert!(
            set_index < binding.table_sets,
            "set index {set_index} out of range for table {table} ({} sets)",
            binding.table_sets
        );
        if !self.interleaved || binding.table_sets <= 1 {
            set_index
        } else {
            let bits = binding.table_sets.trailing_zeros();
            set_index.reverse_bits() >> (usize::BITS - bits)
        }
    }

    /// Whether the current plan backs `(table, set_index)` with memory.
    pub fn set_backed(&self, table: usize, set_index: usize) -> bool {
        self.block_of(table, set_index) < self.tables[table].backed_blocks
    }

    /// Backing blocks the current plan gives `table` (equals the table's
    /// set count unless a scarce plan is bound).
    pub fn backed_blocks(&self, table: usize) -> usize {
        self.tables[table].backed_blocks
    }

    /// Total sets of `table` (the registration-time geometry).
    pub fn table_sets(&self, table: usize) -> usize {
        self.tables[table].table_sets
    }

    /// The memory address of `(table, set_index)`'s backing block — the
    /// shared-proxy analogue of Figure 3b's `PVStart + set * block`
    /// computation (identical to it under the identity mapping).
    ///
    /// # Panics
    ///
    /// Panics if `table` or `set_index` is out of range, or if the set is
    /// not backed by the current plan (unbacked sets have no address).
    pub fn set_address(&self, table: usize, set_index: usize) -> Address {
        let block = self.block_of(table, set_index);
        let binding = &self.tables[table];
        assert!(
            block < binding.backed_blocks,
            "set {set_index} of table {table} is not backed by the current plan \
             ({} of {} blocks backed)",
            binding.backed_blocks,
            binding.table_sets
        );
        Address::new(binding.base.raw() + block as u64 * binding.block_bytes)
    }

    /// Validates `plan` against this proxy's bindings and returns the
    /// per-table `(base, backed_blocks)` geometry it implies.
    fn plan_geometry(&self, plan: &PvRegionPlan) -> Vec<(Address, usize)> {
        assert_eq!(
            plan.tables(),
            self.tables.len(),
            "the plan must cover exactly the registered tables"
        );
        self.tables
            .iter()
            .enumerate()
            .map(|(table, binding)| {
                let bytes = plan.table_bytes(table);
                assert_eq!(
                    bytes % binding.block_bytes,
                    0,
                    "table {table}'s sub-region must be block-aligned"
                );
                let backed = (bytes / binding.block_bytes) as usize;
                assert!(
                    backed <= binding.table_sets,
                    "table {table} cannot back more blocks than it has sets"
                );
                (plan.base(self.core, table), backed)
            })
            .collect()
    }

    /// Binds a (possibly scarce) region plan to the registered tables and
    /// switches set→block mapping to bit-reversed interleaving. Must be
    /// called before any traffic; re-planning a live proxy goes through
    /// [`Self::apply_plan`] instead.
    ///
    /// # Panics
    ///
    /// Panics if traffic already ran, if the plan's table count differs
    /// from the registered tables, or if any sub-region is misaligned or
    /// larger than its table.
    pub fn bind_plan(&mut self, plan: &PvRegionPlan) {
        assert!(
            self.cache.is_empty(),
            "bind_plan must run before any traffic reaches the proxy"
        );
        let geometry = self.plan_geometry(plan);
        self.interleaved = true;
        for (binding, (base, backed)) in self.tables.iter_mut().zip(geometry) {
            binding.base = base;
            binding.backed_blocks = backed;
        }
    }

    /// Applies a new region plan to a live proxy: the epoch-boundary move
    /// of dynamic repartitioning. Contents are write-through in the owning
    /// tables, so no data moves — the only work is invalidating cache
    /// entries whose backing block migrated (its address changed, or it
    /// lost backing entirely). Migrated dirty entries are written back at
    /// their *old* address first, as predictor-class traffic.
    ///
    /// # Panics
    ///
    /// Same validation as [`Self::bind_plan`] (minus the no-traffic
    /// requirement).
    pub fn apply_plan(
        &mut self,
        plan: &PvRegionPlan,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> ReplanOutcome {
        let geometry = self.plan_geometry(plan);
        let mut outcome = ReplanOutcome::default();
        let entries = std::mem::take(&mut self.cache.entries);
        let mut kept = Vec::with_capacity(entries.len());
        for entry in entries {
            let block = self.block_of(entry.table, entry.set_index);
            let binding = &self.tables[entry.table];
            let old_address = binding.base.raw() + block as u64 * binding.block_bytes;
            let block_bytes = binding.block_bytes;
            let (new_base, new_backed) = geometry[entry.table];
            let survives =
                block < new_backed && new_base.raw() + block as u64 * block_bytes == old_address;
            if survives {
                kept.push(entry);
                continue;
            }
            outcome.invalidated += 1;
            if entry.dirty {
                outcome.writebacks += 1;
                self.stats[entry.table].dirty_writebacks += 1;
                self.evict_buffer.push(entry.set_index, now, now + mem.config().l2.data_latency);
                mem.writeback(Requester::pv_proxy(self.core), old_address, now);
            }
        }
        self.cache.entries = kept;
        for (binding, (base, backed)) in self.tables.iter_mut().zip(geometry) {
            binding.base = base;
            binding.backed_blocks = backed;
        }
        outcome
    }

    /// Fetches `(table, set_index)` through the memory hierarchy and installs
    /// it in the cache, evicting (and writing back if dirty) whatever set —
    /// of any table — is LRU. The entry is installed at request time so
    /// later requests merge instead of duplicating memory traffic, and it
    /// remembers the fill's completion time: hits arriving before it report
    /// the fill's `ready_at`, not their own cycle.
    fn fetch_set(
        &mut self,
        table: usize,
        set_index: usize,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> SharedSetAccess {
        let address = self.set_address(table, set_index);
        self.mshr.retire(now);
        let ready_at = if let Some(entry) = self.mshr.lookup(address.block()) {
            self.stats[table].mshr_merges += 1;
            let ready = entry.ready_at;
            let _ = self.mshr.register(address.block(), now, ready);
            ready
        } else {
            self.stats[table].memory_requests += 1;
            let response = mem.access(
                Requester::pv_proxy(self.core),
                address.raw(),
                AccessKind::Read,
                DataClass::Predictor,
                now,
            );
            self.stats[table].queue_delay_cycles += response.queue_delay;
            let ready = now + response.latency;
            let _ = self.mshr.register(address.block(), now, ready);
            ready
        };
        let evicted = self.cache.insert(table, set_index, false, ready_at);
        if let Some(victim) = evicted {
            self.handle_eviction(victim, mem, now);
        }
        SharedSetAccess {
            resident: true,
            ready_at,
            filled: true,
            evicted,
        }
    }

    fn handle_eviction(
        &mut self,
        evicted: SharedPvCacheEntry,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) {
        if !evicted.dirty {
            // Non-modified entries are discarded (paper Section 2.2); what
            // that means for the owning table's copy is the table's rule
            // (module docs).
            return;
        }
        self.stats[evicted.table].dirty_writebacks += 1;
        let address = self.set_address(evicted.table, evicted.set_index);
        self.evict_buffer
            .push(evicted.set_index, now, now + mem.config().l2.data_latency);
        mem.writeback(Requester::pv_proxy(self.core), address.raw(), now);
    }

    /// A predictor lookup touching `(table, set_index)` (raw predictor index
    /// `index`, used to key the pattern buffer). On a shared-cache hit the
    /// data is available after the PVCache latency (or the in-flight fill);
    /// on a miss the set is fetched — unless the pattern buffer is full, in
    /// which case the lookup is dropped (`resident == false`).
    pub fn lookup_set(
        &mut self,
        table: usize,
        set_index: usize,
        index: u64,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> SharedSetAccess {
        self.stats[table].lookups += 1;
        if !self.set_backed(table, set_index) {
            // No backing capacity: the set behaves like a permanent miss
            // (counted as one, so hit rates reflect allocation) with no
            // memory traffic.
            self.stats[table].pvcache_misses += 1;
            self.stats[table].unbacked_lookups += 1;
            return SharedSetAccess::unfilled(false, now);
        }
        let pvcache_latency = self.config.pvcache_latency;
        if let Some(entry) = self.cache.lookup(table, set_index) {
            let ready_at = (now + pvcache_latency).max(entry.ready_at);
            let pending = entry.ready_at > now;
            self.stats[table].pvcache_hits += 1;
            if pending {
                self.stats[table].pending_hits += 1;
            }
            return SharedSetAccess::unfilled(true, ready_at);
        }
        self.stats[table].pvcache_misses += 1;
        // The pattern buffer is a shared structural resource too: a full
        // buffer drops the prediction regardless of which table wanted it.
        // Keys are disambiguated per table so two tables' indices never
        // merge into one slot.
        let provisional_done = now + mem.config().l2.tag_latency + mem.config().l2.data_latency;
        let key = ((table as u64) << 48) | index;
        if !self.pattern_buffer.try_reserve(key, now, provisional_done) {
            self.stats[table].dropped_lookups += 1;
            return SharedSetAccess::unfilled(false, now);
        }
        self.fetch_set(table, set_index, mem, now)
    }

    /// A predictor store touching `(table, set_index)`: write-allocate (the
    /// set is fetched on a miss, so its other entries are preserved) and
    /// mark the resident set dirty. When the access is resident the caller
    /// updates its own table write-through *after* this returns; otherwise
    /// (an unbacked set) it must skip that update.
    pub fn store_set(
        &mut self,
        table: usize,
        set_index: usize,
        mem: &mut MemoryHierarchy,
        now: u64,
    ) -> SharedSetAccess {
        self.stats[table].stores += 1;
        if !self.set_backed(table, set_index) {
            self.stats[table].unbacked_stores += 1;
            return SharedSetAccess::unfilled(false, now);
        }
        let access = if self.cache.contains(table, set_index) {
            SharedSetAccess::unfilled(true, now)
        } else {
            self.stats[table].store_misses += 1;
            self.fetch_set(table, set_index, mem, now)
        };
        let cached = self
            .cache
            .lookup(table, set_index)
            .expect("the set was just installed in the PVCache");
        cached.dirty = true;
        access
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_mem::{HierarchyConfig, MemoryHierarchy, PvRegionConfig};

    fn setup() -> (MemoryHierarchy, SharedPvProxy) {
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let base = config.pv_regions.core_base(0);
        let a = proxy.add_table(base, 1024, 64, "A");
        let b = proxy.add_table(Address::new(base.raw() + 64 * 1024), 1024, 64, "B");
        assert_eq!((a, b), (0, 1));
        (mem, proxy)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut cache = SharedPvCache::new(8);
        assert!(cache.insert(0, 5, false, 0).is_none());
        assert!(cache.contains(0, 5));
        assert!(!cache.contains(1, 5), "entries are keyed by table too");
        let entry = cache.lookup(0, 5).expect("set 5 was just inserted");
        assert_eq!((entry.table, entry.set_index, entry.dirty), (0, 5, false));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_picks_least_recently_used() {
        let mut cache = SharedPvCache::new(2);
        cache.insert(0, 1, false, 0);
        cache.insert(1, 2, true, 0);
        cache.lookup(0, 1);
        let evicted = cache.insert(0, 3, false, 0).expect("cache was full");
        assert_eq!(
            (evicted.table, evicted.set_index, evicted.dirty),
            (1, 2, true)
        );
        assert!(cache.contains(0, 1));
        assert!(cache.contains(0, 3));
    }

    #[test]
    fn reinsert_merges_dirty_flag() {
        let mut cache = SharedPvCache::new(4);
        cache.insert(0, 9, false, 0);
        cache.insert(0, 9, true, 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(0, 9).unwrap().dirty);
        // Re-inserting clean must not clear the dirty bit.
        cache.insert(0, 9, false, 0);
        assert!(cache.lookup(0, 9).unwrap().dirty);
    }

    #[test]
    fn reinsert_keeps_earliest_ready_time() {
        let mut cache = SharedPvCache::new(4);
        cache.insert(0, 9, false, 400);
        // A merged re-install must not push the ready time later.
        cache.insert(0, 9, false, 900);
        assert_eq!(cache.lookup(0, 9).unwrap().ready_at, 400);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        SharedPvCache::new(0);
    }

    #[test]
    fn tables_have_disjoint_addresses_inside_one_region() {
        let (mem, proxy) = setup();
        let last_a = proxy.set_address(0, 1023).raw() + 63;
        let first_b = proxy.set_address(1, 0).raw();
        assert!(last_a < first_b);
        // Both tables classify as predictor data.
        assert!(mem.dram().is_predictor_address(proxy.set_address(0, 0)));
        assert!(mem.dram().is_predictor_address(proxy.set_address(1, 1023)));
    }

    #[test]
    fn cold_lookup_fetches_and_later_hits_are_fast() {
        let (mut mem, mut proxy) = setup();
        let cold = proxy.lookup_set(0, 3, 0x803, &mut mem, 0);
        assert!(cold.resident);
        assert!(cold.ready_at >= 400, "cold set must come from DRAM");
        assert_eq!(proxy.table_stats(0).memory_requests, 1);
        let warm = proxy.lookup_set(0, 3, 0x803, &mut mem, cold.ready_at + 10);
        assert_eq!(
            warm.ready_at,
            cold.ready_at + 10 + proxy.config().pvcache_latency
        );
        assert_eq!(proxy.table_stats(0).pvcache_hits, 1);
    }

    #[test]
    fn early_rereference_merges_and_waits_for_the_fill() {
        let (mut mem, mut proxy) = setup();
        let first = proxy.lookup_set(0, 3, 0x803, &mut mem, 0);
        let second = proxy.lookup_set(0, 3, 0x803, &mut mem, 1);
        assert_eq!(proxy.table_stats(0).memory_requests, 1);
        assert_eq!(second.ready_at, first.ready_at);
        assert_eq!(proxy.table_stats(0).pending_hits, 1);
    }

    #[test]
    fn both_tables_share_the_capacity_and_evict_each_other() {
        let (mut mem, mut proxy) = setup();
        let capacity = proxy.cache().capacity();
        // Fill the whole cache with table 0's sets...
        for set in 0..capacity {
            proxy.lookup_set(0, set, set as u64, &mut mem, (set as u64) * 1_000);
        }
        assert_eq!(proxy.cache().occupancy_of(0), capacity);
        // ...then stream table 1 through: its fills must displace table 0.
        for set in 0..capacity / 2 {
            proxy.lookup_set(
                1,
                set,
                set as u64,
                &mut mem,
                1_000_000 + (set as u64) * 1_000,
            );
        }
        assert_eq!(proxy.cache().occupancy_of(1), capacity / 2);
        assert_eq!(proxy.cache().occupancy_of(0), capacity - capacity / 2);
        assert_eq!(proxy.cache().len(), capacity);
    }

    #[test]
    fn dirty_cross_table_eviction_writes_back_to_the_owners_address() {
        let (mut mem, mut proxy) = setup();
        // Dirty one set of table 1, then flood with table 0 until it is
        // evicted: the write-back must be attributed to table 1.
        assert!(proxy.store_set(1, 7, &mut mem, 0).resident);
        let capacity = proxy.cache().capacity();
        for set in 0..capacity {
            proxy.lookup_set(0, set, set as u64, &mut mem, 1_000 + (set as u64) * 1_000);
        }
        assert_eq!(proxy.table_stats(1).dirty_writebacks, 1);
        assert_eq!(proxy.table_stats(0).dirty_writebacks, 0);
        // The written-back block is table 1's address, resident in the L2.
        assert!(mem.l2_contains(proxy.set_address(1, 7).block()));
    }

    #[test]
    fn full_pattern_buffer_drops_lookups_per_proxy_not_per_table() {
        let (mut mem, mut proxy) = setup();
        let slots = proxy.config().pattern_buffer_entries;
        // Reserve every slot with distinct sets of table 0 at cycle 0 (all
        // fills still in flight)...
        for set in 0..slots {
            let access = proxy.lookup_set(0, set, set as u64, &mut mem, 0);
            assert!(access.resident);
        }
        // ...now table 1 misses too: the shared buffer is exhausted.
        let dropped = proxy.lookup_set(1, 0, 0, &mut mem, 0);
        assert!(!dropped.resident);
        assert_eq!(proxy.table_stats(1).dropped_lookups, 1);
    }

    #[test]
    fn fills_report_the_entry_they_evicted() {
        let (mut mem, mut proxy) = setup();
        let capacity = proxy.cache().capacity();
        for set in 0..capacity {
            let access = proxy.lookup_set(0, set, set as u64, &mut mem, set as u64 * 1_000);
            assert!(access.filled);
            assert_eq!(access.evicted, None);
        }
        // A hit fills nothing and promotes set 0, leaving set 1 LRU.
        assert!(!proxy.lookup_set(0, 0, 0, &mut mem, 100_000).filled);
        let store = proxy.store_set(1, 5, &mut mem, 200_000);
        assert!(store.filled);
        let victim = store.evicted.expect("a fill into a full cache evicts");
        assert_eq!(
            (victim.table, victim.set_index, victim.dirty),
            (0, 1, false)
        );
    }

    #[test]
    fn merged_stats_sum_over_tables() {
        let (mut mem, mut proxy) = setup();
        proxy.lookup_set(0, 1, 1, &mut mem, 0);
        proxy.lookup_set(1, 2, 2, &mut mem, 0);
        let merged = proxy.stats_merged();
        assert_eq!(merged.lookups, 2);
        assert_eq!(merged.memory_requests, 2);
        proxy.reset_stats();
        assert_eq!(proxy.stats_merged().lookups, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let (_, proxy) = setup();
        proxy.set_address(0, 4096);
    }

    /// Two 1024-set tables bound to a scarce half-capacity plan (512 backing
    /// blocks each) inside the paper-default 64 KB region.
    fn scarce_setup() -> (MemoryHierarchy, SharedPvProxy, PvRegionPlan) {
        let config = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let plan = PvRegionPlan::new(config.pv_regions, vec![512 * 64, 512 * 64]);
        let a = proxy.add_table(plan.base(0, 0), 1024, 64, "A");
        let b = proxy.add_table(plan.base(0, 1), 1024, 64, "B");
        assert_eq!((a, b), (0, 1));
        proxy.bind_plan(&plan);
        (mem, proxy, plan)
    }

    #[test]
    fn scarce_plans_back_an_even_sample_of_the_set_space() {
        let (_, proxy, _) = scarce_setup();
        assert_eq!(proxy.backed_blocks(0), 512);
        assert_eq!(proxy.table_sets(0), 1024);
        // Bit-reversed mapping: half capacity backs every *other* set, so a
        // workload clustered in a narrow index range (like Markov sets under
        // few contexts) still sees exactly its proportional share.
        let backed_in_cluster = (0..400).filter(|&s| proxy.set_backed(0, s)).count();
        assert_eq!(backed_in_cluster, 200);
        // Backed sets of both tables stay inside their own sub-regions.
        let boundary = proxy.set_address(1, 0).raw();
        for set in (0..1024).filter(|&s| proxy.set_backed(0, s)) {
            assert!(proxy.set_address(0, set).raw() < boundary);
        }
    }

    #[test]
    fn unbacked_accesses_miss_without_memory_traffic() {
        let (mut mem, mut proxy, _) = scarce_setup();
        // With 512 of 1024 blocks backed, odd sets are unbacked
        // (rev10(odd) >= 512).
        assert!(!proxy.set_backed(0, 1));
        let access = proxy.lookup_set(0, 1, 1, &mut mem, 0);
        assert!(!access.resident);
        assert!(!proxy.store_set(0, 1, &mut mem, 0).resident);
        let stats = proxy.table_stats(0);
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.pvcache_misses, 1, "unbacked lookups count as misses");
        assert_eq!(stats.unbacked_lookups, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.unbacked_stores, 1);
        assert_eq!(stats.store_misses, 0);
        assert_eq!(stats.memory_requests, 0, "no traffic for unbacked sets");
    }

    #[test]
    fn apply_plan_invalidates_only_migrated_blocks() {
        let (mut mem, mut proxy, plan) = scarce_setup();
        // Table 0: sets 0, 2, 4 map to blocks 0, 256, 128. Table 1: set 0
        // maps to block 0 and is dirtied.
        for set in [0, 2, 4] {
            assert!(proxy.lookup_set(0, set, set as u64, &mut mem, 0).resident);
        }
        assert!(proxy.store_set(1, 0, &mut mem, 0).resident);
        let old_table1_addr = proxy.set_address(1, 0);
        // Shrink table 0 to 256 blocks, grow table 1 to 768.
        let moved = plan.replan(&[256 * 64, 768 * 64]);
        let outcome = proxy.apply_plan(&moved, &mut mem, 1_000);
        // Table 0 keeps its base: blocks 0 and 128 survive, block 256 lost
        // its backing. Table 1's base moved: its entry migrates (dirty, so
        // it is written back at the old address first).
        assert_eq!(outcome.invalidated, 2);
        assert_eq!(outcome.writebacks, 1);
        assert!(proxy.cache().contains(0, 0));
        assert!(proxy.cache().contains(0, 4));
        assert!(!proxy.cache().contains(0, 2), "no stale entry survives");
        assert!(!proxy.cache().contains(1, 0));
        assert!(mem.l2_contains(old_table1_addr.block()));
        assert_eq!(proxy.table_stats(1).dirty_writebacks, 1);
        // The new geometry is live: table 0 halved, table 1 re-based.
        assert_eq!(proxy.backed_blocks(0), 256);
        assert!(!proxy.set_backed(0, 2));
        assert_eq!(proxy.backed_blocks(1), 768);
        assert!(proxy.set_address(1, 0).raw() < old_table1_addr.raw());
    }

    #[test]
    fn apply_plan_keeps_every_entry_of_a_table_whose_blocks_did_not_move() {
        let (mut mem, mut proxy, plan) = scarce_setup();
        for set in [0, 4, 8, 12] {
            assert!(proxy.lookup_set(0, set, set as u64, &mut mem, 0).resident);
        }
        // Growing table 0 keeps its base and every backed block address.
        let moved = plan.replan(&[768 * 64, 256 * 64]);
        let outcome = proxy.apply_plan(&moved, &mut mem, 1_000);
        assert_eq!(outcome.invalidated, 0);
        assert_eq!(outcome.writebacks, 0);
        for set in [0, 4, 8, 12] {
            assert!(proxy.cache().contains(0, set));
        }
    }

    #[test]
    #[should_panic(expected = "is not backed")]
    fn unbacked_sets_have_no_address() {
        let (_, proxy, _) = scarce_setup();
        proxy.set_address(0, 1);
    }

    #[test]
    #[should_panic(expected = "before any traffic")]
    fn bind_plan_rejects_a_live_proxy() {
        let (mut mem, mut proxy, plan) = scarce_setup();
        proxy.lookup_set(0, 0, 0, &mut mem, 0);
        proxy.bind_plan(&plan);
    }
}
