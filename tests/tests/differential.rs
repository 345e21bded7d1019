//! Differential tests: the allocation-free hot-path structures against the
//! retained reference implementations.
//!
//! The flat [`SetAssociative`] (packed replacement state, no boxed policies,
//! no per-insert valid-mask) and the word-level packing codec replaced
//! allocation-heavy originals in the per-access simulation path. Those
//! originals are kept as [`ReferenceSetAssociative`] and
//! [`packing::reference`]; here both generations are driven with identical
//! seeded random op streams and must agree on every observable: hits,
//! misses, evicted victims, occupancy, and bit-exact packed block layouts.
//! The same holds for the flat-array MSHR file against the hash-map file it
//! replaced ([`pv_tests::ReferenceMshrFile`]) and for the DRAM in-flight
//! ring against its reference deque.

use pv_core::{decode_set, encode_set, packing, PvLayout, PvSet, RawEntry};
use pv_mem::{Probe, ReferenceSetAssociative, ReplacementKind, SetAssociative};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random geometry per policy constraint: PLRU needs power-of-two ways.
fn random_geometry(rng: &mut StdRng, kind: ReplacementKind) -> (usize, usize) {
    let sets = 1usize << rng.gen_range(0u32..=5);
    let ways = match kind {
        ReplacementKind::TreePlru => 1usize << rng.gen_range(0u32..=4),
        _ => rng.gen_range(1usize..=20),
    };
    (sets, ways)
}

/// Drives both arrays with the same op stream (get / insert / invalidate
/// over a small tag universe so hits, conflicts and invalidations all
/// occur), asserting identical results after every op.
fn drive_differential(kind: ReplacementKind, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (sets, ways) = random_geometry(&mut rng, kind);
    let mut flat: SetAssociative<u64> = SetAssociative::new(sets, ways, kind);
    let mut reference: ReferenceSetAssociative<u64> =
        ReferenceSetAssociative::new(sets, ways, kind);
    for op in 0..4_000u64 {
        let set = rng.gen_range(0usize..sets);
        // ~2x capacity worth of tags: plenty of hits and plenty of misses.
        let tag = rng.gen_range(0u64..(2 * ways as u64).max(2));
        match rng.gen_range(0u32..10) {
            0..=3 => {
                assert_eq!(
                    flat.get(set, tag),
                    reference.get(set, tag),
                    "get mismatch at op {op} (kind {kind:?}, {sets}x{ways})"
                );
            }
            7 => {
                // The single-probe get-or-insert must behave like a get
                // followed, on a miss, by an insert.
                let value = op;
                let a = match flat.get_mut_or_insert(set, tag, value) {
                    Probe::Hit(resident) => Ok(*resident),
                    Probe::Filled(evicted) => Err(evicted),
                };
                let b = match reference.get(set, tag) {
                    Some(&resident) => Ok(resident),
                    None => Err(reference.insert(set, tag, value)),
                };
                assert_eq!(
                    a, b,
                    "get_mut_or_insert mismatch at op {op} (kind {kind:?}, {sets}x{ways})"
                );
            }
            4..=6 => {
                let value = op;
                let a = flat.insert(set, tag, value);
                let b = reference.insert(set, tag, value);
                assert_eq!(
                    a, b,
                    "insert eviction mismatch at op {op} (kind {kind:?}, {sets}x{ways})"
                );
            }
            _ => {
                assert_eq!(
                    flat.invalidate(set, tag),
                    reference.invalidate(set, tag),
                    "invalidate mismatch at op {op} (kind {kind:?}, {sets}x{ways})"
                );
            }
        }
        assert_eq!(flat.len(), reference.len(), "occupancy diverged at op {op}");
    }
    // Final contents must agree exactly, set by set.
    let mut flat_entries: Vec<(usize, u64, u64)> =
        flat.iter().map(|(s, occ)| (s, occ.tag, occ.value)).collect();
    let mut ref_entries: Vec<(usize, u64, u64)> =
        reference.iter().map(|(s, occ)| (s, occ.tag, occ.value)).collect();
    flat_entries.sort_unstable();
    ref_entries.sort_unstable();
    assert_eq!(flat_entries, ref_entries);
}

#[test]
fn flat_set_associative_matches_reference_lru() {
    for seed in 0..24 {
        drive_differential(ReplacementKind::Lru, 0xD1FF_0000 + seed);
    }
}

#[test]
fn flat_set_associative_matches_reference_tree_plru() {
    for seed in 0..24 {
        drive_differential(ReplacementKind::TreePlru, 0xD1FF_1000 + seed);
    }
}

#[test]
fn flat_set_associative_matches_reference_random() {
    for seed in 0..24 {
        drive_differential(ReplacementKind::Random, 0xD1FF_2000 + seed);
    }
}

/// A random layout that fits 64-byte blocks, same bounds as the invariants
/// suite.
fn random_layout(rng: &mut StdRng) -> PvLayout {
    let tag_bits = rng.gen_range(4u32..=20);
    let payload_bits = rng.gen_range(4u32..=44);
    PvLayout::new(tag_bits, payload_bits, 64)
}

fn random_set(rng: &mut StdRng, layout: &PvLayout, occupancy: usize) -> PvSet<RawEntry> {
    let mut set = PvSet::new(layout.entries_per_block());
    for _ in 0..occupancy {
        let tag = rng.gen_range(0u64..=layout.max_tag());
        let payload = rng.gen_range(1u64..=layout.max_payload());
        set.insert(RawEntry::new(tag, payload));
    }
    set
}

/// The word-level codec and the retained bit-at-a-time codec must produce
/// byte-identical blocks and identical decoded sets across random layouts
/// and occupancies.
#[test]
fn word_level_codec_matches_reference_bit_layout() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_3000);
    for _ in 0..200 {
        let layout = random_layout(&mut rng);
        let occupancy = rng.gen_range(0usize..=layout.entries_per_block());
        let set = random_set(&mut rng, &layout, occupancy);

        let word_block = encode_set(&set, &layout);
        let bit_block = packing::reference::encode_set(&set, &layout);
        assert_eq!(
            &word_block[..],
            &bit_block[..],
            "packed layout diverged for {layout:?}"
        );

        let word_decoded: PvSet<RawEntry> = decode_set(&word_block, &layout);
        let bit_decoded: PvSet<RawEntry> = packing::reference::decode_set(&word_block, &layout);
        let word_order: Vec<&RawEntry> = word_decoded.iter().collect();
        let bit_order: Vec<&RawEntry> = bit_decoded.iter().collect();
        assert_eq!(word_order, bit_order, "decode diverged for {layout:?}");
        assert_eq!(word_decoded.len(), set.len());
    }
}

/// Cross-decoding: blocks written by one codec generation decode identically
/// under the other, including blocks with adversarial duplicate tags.
#[test]
fn codec_generations_cross_decode() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_4000);
    for _ in 0..100 {
        let layout = random_layout(&mut rng);
        // Write raw fields directly (duplicates allowed) through each
        // generation's primitives; both must decode the block the same way.
        let mut word_buf = vec![0u8; 64];
        let mut bit_buf = vec![0u8; 64];
        for slot in 0..layout.entries_per_block() {
            let tag = rng.gen_range(0u64..=layout.max_tag().min(3));
            let payload = rng.gen_range(0u64..=layout.max_payload());
            let offset = slot * layout.entry_bits() as usize;
            packing::write_bits(&mut word_buf, offset, tag, layout.tag_bits);
            packing::reference::write_bits(&mut bit_buf, offset, tag, layout.tag_bits);
            let payload_offset = offset + layout.tag_bits as usize;
            packing::write_bits(&mut word_buf, payload_offset, payload, layout.payload_bits);
            packing::reference::write_bits(
                &mut bit_buf,
                payload_offset,
                payload,
                layout.payload_bits,
            );
        }
        assert_eq!(
            word_buf, bit_buf,
            "raw field writes diverged for {layout:?}"
        );
        let a: PvSet<RawEntry> = decode_set(&word_buf, &layout);
        let b: PvSet<RawEntry> = packing::reference::decode_set(&word_buf, &layout);
        let a_order: Vec<&RawEntry> = a.iter().collect();
        let b_order: Vec<&RawEntry> = b.iter().collect();
        assert_eq!(
            a_order, b_order,
            "duplicate-tag decode diverged for {layout:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// DRAM in-flight queue: the fixed-capacity ring against the retained
// reference deque, replicated over the full channel timing model.
// ---------------------------------------------------------------------------

use pv_mem::{
    Address, ContentionModel, DramConfig, MainMemory, PvRegionConfig, ReferenceInflightQueue,
    BLOCK_OFFSET_BITS,
};

/// The pre-ring Queued channel service, reimplemented verbatim around
/// [`ReferenceInflightQueue`]: growable deque, `len - depth` admission
/// indexing, drain-on-entry. Every timing decision the production
/// [`MainMemory`] makes through its [`pv_mem::InflightRing`] must match
/// this model request for request.
struct ReferenceDram {
    config: DramConfig,
    channels: Vec<(Vec<u64>, u64, ReferenceInflightQueue)>,
}

impl ReferenceDram {
    fn new(config: DramConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| {
                (
                    vec![0u64; config.banks_per_channel],
                    0u64,
                    ReferenceInflightQueue::new(),
                )
            })
            .collect();
        ReferenceDram { config, channels }
    }

    /// `(latency, queue_delay)` of one request, original semantics.
    fn service(&mut self, addr: Address, now: u64) -> (u64, u64) {
        let block = addr.raw() >> BLOCK_OFFSET_BITS;
        let channel_idx = (block % self.config.channels as u64) as usize;
        let bank_idx =
            ((block / self.config.channels as u64) % self.config.banks_per_channel as u64) as usize;
        let (banks, data_busy_until, inflight) = &mut self.channels[channel_idx];
        inflight.drain(now);
        let start = inflight.admit(now, self.config.queue_depth);
        let bank_start = start.max(banks[bank_idx]);
        banks[bank_idx] = bank_start + self.config.bank_occupancy;
        let unloaded_done = bank_start + self.config.latency;
        let done = unloaded_done.max(*data_busy_until + self.config.cycles_per_transfer);
        *data_busy_until = done;
        inflight.push(done);
        let latency = done - now;
        (latency, latency - self.config.latency)
    }

    fn reset_timing(&mut self) {
        for (banks, data_busy_until, inflight) in &mut self.channels {
            banks.iter_mut().for_each(|bank| *bank = 0);
            *data_busy_until = 0;
            inflight.clear();
        }
    }
}

/// Seeded request streams (mixed reads/writes, PV and application
/// addresses, non-monotone per-requester timestamps, a mid-stream timing
/// rebase) driven through the production Queued [`MainMemory`] and the
/// reference model: latency and queue delay must agree on every request,
/// across geometries that keep the queues empty, saturated, and
/// oscillating — including an ideal bus and a single one-deep queue.
#[test]
fn queued_dram_service_matches_the_reference_inflight_queue() {
    let geometries = [
        DramConfig::paper(),
        DramConfig::paper().with_cycles_per_transfer(0),
        DramConfig::paper().with_cycles_per_transfer(128),
        {
            let mut c = DramConfig::paper();
            c.channels = 1;
            c.banks_per_channel = 1;
            c.queue_depth = 1;
            c
        },
        {
            let mut c = DramConfig::paper();
            c.channels = 3;
            c.banks_per_channel = 2;
            c.queue_depth = 2;
            c.cycles_per_transfer = 64;
            c
        },
    ];
    for seed in 0..4u64 {
        for config in &geometries {
            let regions = PvRegionConfig::paper_default(4);
            let mut mem = MainMemory::new(*config, regions, ContentionModel::Queued);
            let mut reference = ReferenceDram::new(*config);
            let mut rng = StdRng::seed_from_u64(0xD3A1_0000 ^ (seed << 8));
            let mut now = 0u64;
            for op in 0..4_000u32 {
                // Timestamps advance unevenly and occasionally jump back
                // (independent requester clocks are not globally ordered).
                now = (now + rng.gen_range(0u64..48)).saturating_sub(rng.gen_range(0u64..16));
                let addr = if rng.gen_range(0u32..4) == 0 {
                    Address::new(regions.core_base(0).raw() + rng.gen_range(0u64..256 * 1024))
                } else {
                    Address::new(rng.gen_range(0u64..1 << 30))
                };
                let predictor = mem.is_predictor_address(addr);
                let response = if rng.gen_bool(0.8) {
                    mem.read(addr, predictor, now)
                } else {
                    mem.write(addr, predictor, now)
                };
                let (latency, queue_delay) = reference.service(addr, now);
                assert_eq!(
                    (response.latency, response.queue_delay),
                    (latency, queue_delay),
                    "op {op} diverged (seed {seed}, config {config:?})"
                );
                // A measurement-window rebase mid-stream: both models must
                // clear their queues identically.
                if op == 2_500 {
                    mem.reset_timing();
                    reference.reset_timing();
                    now = 0;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// MSHR file: the flat fixed-capacity array against the hash-map file it
// replaced (`pv_tests::ReferenceMshrFile`).
// ---------------------------------------------------------------------------

use pv_mem::{BlockAddr, MshrFile, MshrOutcome};
use pv_tests::ReferenceMshrFile;

/// Every observable counter of the two files must agree.
fn assert_same_mshr_state(flat: &MshrFile, reference: &ReferenceMshrFile, context: &str) {
    assert_eq!(flat.capacity(), reference.capacity(), "capacity, {context}");
    assert_eq!(
        flat.occupancy(),
        reference.occupancy(),
        "occupancy, {context}"
    );
    assert_eq!(
        flat.peak_occupancy(),
        reference.peak_occupancy(),
        "peak_occupancy, {context}"
    );
    assert_eq!(flat.merges(), reference.merges(), "merges, {context}");
    assert_eq!(
        flat.full_stalls(),
        reference.full_stalls(),
        "full_stalls, {context}"
    );
    assert_eq!(
        flat.earliest_ready(),
        reference.earliest_ready(),
        "earliest_ready, {context}"
    );
}

/// Seeded random `register` / `lookup` / `retire` / `wait_for_slot` /
/// `clear` streams over a block universe about twice the capacity, so
/// merges, misses and full files all occur. Time mostly advances, in bursts
/// that fill the file (registers then meet `Full`, as they do under Ideal
/// contention where nobody waits for a slot), and sometimes steps back
/// below an earlier `retire`, as requesters with their own clocks do. Each
/// operation's result and every counter must match after every operation.
#[test]
fn flat_mshr_file_matches_the_reference_hash_map() {
    for capacity in [1usize, 4, 16, 64] {
        let (mut full, mut merged, mut rewinds) = (0u64, 0u64, 0u64);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed * 131 + capacity as u64);
            let mut flat = MshrFile::new(capacity);
            let mut reference = ReferenceMshrFile::new(capacity);
            let universe = 2 * capacity as u64 + 1;
            let mut now = 0u64;
            let mut latest_retire = 0u64;
            for op in 0..6_000u32 {
                let context = format!("capacity {capacity}, seed {seed}, op {op}");
                let burst = (op / 500) % 2 == 0;
                now = match rng.gen_range(0u32..12) {
                    0 => now.saturating_sub(rng.gen_range(0u64..300)),
                    _ if burst => now + rng.gen_range(0u64..2),
                    _ => now + rng.gen_range(0u64..60),
                };
                if now < latest_retire {
                    rewinds += 1;
                }
                let block = BlockAddr::new(rng.gen_range(0..universe));
                match rng.gen_range(0u32..20) {
                    0..=8 => {
                        let ready_at = now + rng.gen_range(0u64..400);
                        let outcome = flat.register(block, now, ready_at);
                        assert_eq!(
                            outcome,
                            reference.register(block, now, ready_at),
                            "register, {context}"
                        );
                        full += u64::from(outcome == MshrOutcome::Full);
                        merged += u64::from(matches!(outcome, MshrOutcome::Merged { .. }));
                        latest_retire = latest_retire.max(now);
                    }
                    9..=12 => assert_eq!(
                        flat.lookup(block),
                        reference.lookup(block),
                        "lookup, {context}"
                    ),
                    13..=15 => {
                        flat.retire(now);
                        reference.retire(now);
                        latest_retire = latest_retire.max(now);
                    }
                    16..=18 => assert_eq!(
                        flat.wait_for_slot(now),
                        reference.wait_for_slot(now),
                        "wait_for_slot, {context}"
                    ),
                    19 if rng.gen_range(0u32..8) == 0 => {
                        flat.clear();
                        reference.clear();
                    }
                    _ => {}
                }
                assert_same_mshr_state(&flat, &reference, &context);
            }
        }
        // The streams must reach every regime they claim to cover.
        assert!(full > 0, "capacity {capacity}: no register met a full file");
        assert!(merged > 0, "capacity {capacity}: no register merged");
        assert!(rewinds > 0, "capacity {capacity}: time never stepped back");
    }
}
