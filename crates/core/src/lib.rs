//! # pv-core — the Predictor Virtualization substrate
//!
//! This crate implements the paper's contribution: *Predictor
//! Virtualization* (PV), a technique that emulates large predictor tables by
//! storing them in the ordinary memory hierarchy instead of in dedicated
//! on-chip SRAM.
//!
//! The crate is a **predictor-agnostic substrate**: it has no knowledge of
//! any particular predictor. A predictor plugs in by implementing
//! [`PvEntry`] for its table-entry type (tag/payload bit-widths plus a
//! packed encoding); everything else — the in-memory [`PvTable`], the
//! bit-level [`packing`] codec, the typed [`ProxiedTable`] front-end, and
//! the Section 4.6 [`PvStorageBudget`] — is generic over that entry type,
//! with the per-block associativity and storage figures *derived* from the
//! entry's widths ([`PvLayout`]). The SMS prefetcher of the paper's case
//! study lives in `pv-sms` and depends on this crate, not the other way
//! around; a second backend (a PC-indexed next-address prefetcher) lives in
//! `pv-markov`.
//!
//! The architecture follows Section 2 of the paper:
//!
//! * the [`PvTable`] is the full predictor table, laid out in a reserved
//!   region of physical memory whose base lives in the per-core
//!   [`PvStartRegister`]; one predictor set is packed into each memory block
//!   ([`packing`], Figure 3a) — eleven 43-bit entries per 64-byte block for
//!   the paper's SMS instance;
//! * the [`SharedPvProxy`] is the small on-chip agent between the
//!   optimization engines and their PVTables: it holds a fully-associative,
//!   table-tagged [`SharedPvCache`] of a handful of PVTable sets, an MSHR,
//!   an evict buffer and a pattern buffer; lookups that miss in the PVCache
//!   become ordinary memory requests injected at the L2 (Figure 3b shows
//!   the address computation). It is the only proxy: one serves a single
//!   table (the paper's per-predictor PVProxy) or several cohabiting ones;
//! * a [`ProxiedTable`] is one predictor's table as its engine reaches it:
//!   the same retrieve/store interface a dedicated table offers, which is
//!   why "the optimization engine remains unchanged" when its table is
//!   virtualized. It either owns a one-table proxy or is lent a shared one,
//!   and that ownership alone decides what a clean PVCache eviction does
//!   (see the [`shared`] module docs);
//! * [`PvStorageBudget`] reproduces the Section 4.6 accounting of the
//!   on-chip storage the proxy needs (889 bytes for the paper's SMS
//!   configuration, versus ~59 KB for the dedicated table it replaces).
//!
//! Several predictors can *cohabit* one physical resource, which is the
//! paper's economic argument for virtualization: a [`PvRegionPlan`] carves a
//! core's reserved PV region into one sub-region per table, and one
//! [`SharedPvProxy`] arbitrates all of a core's virtualized tables through a
//! single PVCache and a single memory-request stream.
//!
//! # Example
//!
//! A minimal predictor entry (a 12-bit tag with a 20-bit confidence-weighted
//! target) virtualized through a proxy of its own:
//!
//! ```
//! use pv_core::{ProxiedTable, PvConfig, PvEntry};
//! use pv_mem::{HierarchyConfig, MemoryHierarchy};
//!
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! struct TargetEntry { tag: u16, target: u32 }
//!
//! impl PvEntry for TargetEntry {
//!     const TAG_BITS: u32 = 12;
//!     const PAYLOAD_BITS: u32 = 20;
//!     fn tag(&self) -> u64 { u64::from(self.tag) }
//!     // Bias by one so a valid payload is never the all-zero marker.
//!     fn payload(&self) -> u64 { u64::from(self.target) + 1 }
//!     fn from_parts(tag: u64, payload: u64) -> Option<Self> {
//!         (payload != 0).then(|| TargetEntry { tag: tag as u16, target: (payload - 1) as u32 })
//!     }
//! }
//!
//! let hierarchy_config = HierarchyConfig::paper_baseline(4);
//! let mut hierarchy = MemoryHierarchy::new(hierarchy_config);
//! let pv_start = hierarchy_config.pv_regions.core_base(0);
//! let mut table: ProxiedTable<TargetEntry> =
//!     ProxiedTable::owned(0, PvConfig::pv8(), pv_start, "targets");
//!
//! // 32-bit entries pack 16 to a 64-byte block — derived, not hard-coded.
//! assert_eq!(table.layout().entries_per_block(), 16);
//!
//! let index = 0x2A7;
//! let entry = TargetEntry { tag: table.tag_of(index) as u16, target: 0xBEEF };
//! table.store(index, entry, &mut hierarchy, None, 0);
//! let (found, _ready_at) = table.lookup(index, &mut hierarchy, None, 100);
//! assert_eq!(found, Some(entry));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffers;
pub mod config;
pub mod entry;
pub mod packing;
pub mod plan;
pub mod proxied;
pub mod register;
pub mod shared;
pub mod stats;
pub mod storage;
pub mod table;

pub use buffers::{EvictBuffer, PatternBuffer};
pub use config::PvConfig;
pub use entry::{PvEntry, PvLayout, RawEntry};
pub use packing::{decode_set, encode_set};
pub use plan::PvRegionPlan;
pub use proxied::ProxiedTable;
pub use register::PvStartRegister;
pub use shared::{
    ReplanOutcome, SharedPvCache, SharedPvCacheEntry, SharedPvProxy, SharedSetAccess,
};
pub use stats::PvStats;
pub use storage::PvStorageBudget;
pub use table::{PvSet, PvTable};
