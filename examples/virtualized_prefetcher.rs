//! Virtualized-prefetcher anatomy: drives a virtualized table and its
//! PVProxy directly, showing the mechanics the paper describes in Sections
//! 2 and 3.2 — the PVStart-based address computation, PVCache hits and
//! misses, predictor data migrating into the L2, dirty write-backs, and the
//! Section 4.6 storage budget. The table is instantiated at the SMS entry
//! type (`ProxiedTable<SmsEntry>`) with a proxy of its own, the same
//! instantiation `pv_sms::VirtualizedPht::new` wraps for the engine.
//!
//! ```text
//! cargo run --release -p pv-examples --bin virtualized_prefetcher
//! ```

use pv_core::{ProxiedTable, PvConfig, PvStats};
use pv_mem::{HierarchyConfig, MemoryHierarchy};
use pv_sms::{SmsEntry, SpatialPattern, TriggerKey};

fn main() {
    let hierarchy_config = HierarchyConfig::paper_baseline(4);
    let mut memory = MemoryHierarchy::new(hierarchy_config);
    let pv_start = hierarchy_config.pv_regions.core_base(0);
    let mut table: ProxiedTable<SmsEntry> =
        ProxiedTable::owned(0, PvConfig::pv8(), pv_start, "SMS");
    let stats = |table: &ProxiedTable<SmsEntry>| -> PvStats {
        *table.stats().expect("the table owns its proxy")
    };

    println!(
        "PVTable for core 0 reserved at {pv_start} ({} KB of physical memory)",
        table.table().footprint_bytes() / 1024
    );
    let layout = *table.layout();
    println!(
        "Packed layout derived from SmsEntry: {} entries x {} bits per 64B block, {} trailer bits",
        layout.entries_per_block(),
        layout.entry_bits(),
        layout.unused_trailing_bits()
    );
    println!("PVProxy on-chip budget:");
    for (component, bytes) in table.storage_budget().rows() {
        println!("  {component:<15} {bytes:>4} B");
    }
    println!(
        "  {:<15} {:>4} B\n",
        "total",
        table.storage_budget().total_bytes()
    );

    // A trigger the SMS engine would produce: PC 0x4a10, block offset 3.
    let trigger = TriggerKey::new(0x4a10, 3);
    let index = u64::from(trigger.index().raw());
    let (set, tag) = table.split_index(index);
    println!(
        "Trigger PC {:#x}, offset {} -> PHT index {:#07x}, PVTable set {}, memory address {}",
        trigger.pc,
        trigger.offset,
        index,
        set,
        table.table().set_address(set)
    );

    // 1. Cold lookup: the set has never been touched; it is fetched from DRAM.
    let (entry, ready_at) = table.lookup(index, &mut memory, None, 0);
    println!("\n[cycle 0]      cold lookup  -> entry {entry:?}, ready at cycle {ready_at}");

    // 2. The prefetcher learns a pattern and stores it; the cached set
    //    becomes dirty.
    let pattern = SpatialPattern::from_offsets([3, 4, 7, 12]);
    table.store(
        index,
        SmsEntry::new(tag as u16, pattern),
        &mut memory,
        None,
        1_000,
    );
    println!(
        "[cycle 1000]   store        -> pattern {pattern} cached, PVCache holds {} set(s)",
        table.proxy().expect("the table owns its proxy").cache().len()
    );

    // 3. A later lookup for the same trigger hits in the PVCache.
    let (entry, ready_at) = table.lookup(index, &mut memory, None, 2_000);
    println!(
        "[cycle 2000]   warm lookup  -> pattern {:?}, ready at cycle {ready_at} (PVCache hit)",
        entry.map(|e| e.pattern.to_string())
    );

    // 4. Touch more PVTable sets than the PVCache holds: the dirty set is
    //    written back towards the L2 and naturally stays cached there.
    for i in 1..=8u64 {
        let other = u64::from(TriggerKey::new(0x4a10 + i * 4, 3).index().raw());
        table.lookup(other, &mut memory, None, 2_000 + i * 100);
    }
    println!(
        "[cycle ~3000]  capacity     -> dirty write-backs so far: {}",
        stats(&table).dirty_writebacks
    );

    // 5. Re-fetch the original set: it now comes from the L2, not DRAM.
    let before = memory.stats().dram_reads;
    let (entry, ready_at) = table.lookup(index, &mut memory, None, 10_000);
    let after = memory.stats().dram_reads;
    println!(
        "[cycle 10000]  refetch      -> pattern {:?}, latency {} cycles, extra DRAM reads {}",
        entry.map(|e| e.pattern.to_string()),
        ready_at - 10_000,
        after - before
    );

    let stats = stats(&table);
    println!(
        "\nPVProxy statistics: {} lookups, {} PVCache hits, {} memory requests, {} dirty write-backs",
        stats.lookups, stats.pvcache_hits, stats.memory_requests, stats.dirty_writebacks
    );
    let mem_stats = memory.stats();
    println!(
        "Memory-system view: {} L2 requests for predictor data, {} of them missed to DRAM",
        mem_stats.l2_requests.predictor, mem_stats.l2_misses.predictor
    );
}
