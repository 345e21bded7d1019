//! A host-speed reference: a fixed kernel, independent of the simulator,
//! timed right before and right after every timed `System::run()`.
//!
//! The reference host is a shared VM whose speed drifts by 10–40% over
//! minutes while the guest sees no steal time, and the simulator's rate
//! follows that drift. Of the kernels tried beside the simulator (a
//! register-only loop, random read-modify-writes over 256 KiB to 32 MiB
//! tables, binary searches over 2 and 16 MiB, and faulting in fresh pages),
//! faulting in fresh pages tracked it best: log-rate correlation 0.67 per
//! repetition and 0.90 over five-repetition averages, against at most 0.59
//! and 0.74 for the table kernels. Over ten 55-second runs per workload,
//! dividing each repetition's rate by this kernel's rate cut the
//! interquartile range of the run medians from 0.10–0.11 to 0.02–0.03 of
//! their median.
//!
//! Nothing here depends on the simulator, so a change to the simulator
//! moves the normalised rate exactly as much as the raw one.

use std::hint::black_box;
use std::time::Instant;

/// Pages per reference second: about what the kernel faults in per second
/// on the reference host, so normalised rates read close to raw ones there.
pub const PAGES_PER_REF_S: f64 = 3.0e5;

/// 40 MiB: above the largest size glibc serves from its heap, so every call
/// maps fresh pages and unmaps them again instead of reusing resident ones.
const BYTES: usize = 40 << 20;
const PAGE: usize = 4096;

/// Faults in `BYTES` of fresh memory, writing every byte, and frees it; in
/// pages per second. Transiently raises the process's peak resident memory
/// by `BYTES`.
pub fn pages_per_s() -> f64 {
    let start = Instant::now();
    let pages = vec![1u8; BYTES];
    black_box(&pages);
    drop(pages);
    (BYTES / PAGE) as f64 / start.elapsed().as_secs_f64()
}
