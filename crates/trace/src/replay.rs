//! Streaming decoder that replays a recorded trace as an [`AccessStream`].
//!
//! Decoding is allocation-free after construction: the stream borrows no
//! intermediate buffers and unpacks each record directly from the trace
//! bytes with `pv_core::packing::read_bits` (the same 128-bit window the
//! encoder used). The header is validated up front — bad magic, unknown
//! versions, malformed layouts, and truncated bodies are all rejected
//! before the first record is produced. The body is not scanned at
//! construction: a record that fails to decode (an invalid op code) ends
//! the stream there, and [`ReplayStream::error`] reports why.

use crate::format::{decode_at, TraceError, TraceHeader};
use pv_workloads::{AccessStream, TraceRecord};

/// Replays the records of an encoded trace, in order, then ends.
///
/// Implements both [`AccessStream`] (for feeding the simulator) and
/// [`Iterator`] (for tests and tools). The stream is finite: after
/// `records()` items it returns `None` forever, which the simulator turns
/// into a clean end-of-run for the owning core. A corrupt record ends the
/// stream early, just as cleanly, and leaves its [`TraceError`] behind
/// [`Self::error`].
#[derive(Debug)]
pub struct ReplayStream {
    data: Vec<u8>,
    header: TraceHeader,
    next: u64,
    label: String,
    error: Option<TraceError>,
}

impl ReplayStream {
    /// Parses and validates `data`, returning a stream positioned at the
    /// first record.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] from header validation: bad magic,
    /// unsupported version, malformed layout, or a body shorter than the
    /// record count implies.
    pub fn new(data: Vec<u8>) -> Result<ReplayStream, TraceError> {
        let header = TraceHeader::parse(&data)?;
        let label = format!(
            "replay:core{}:seed{:#x}",
            header.provenance.core, header.provenance.seed
        );
        Ok(ReplayStream {
            data,
            header,
            next: 0,
            label,
            error: None,
        })
    }

    /// The validated header of the underlying trace.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Total records in the trace.
    pub fn records(&self) -> u64 {
        self.header.records
    }

    /// Records not yet produced (zero once a corrupt record ended the
    /// stream).
    pub fn remaining(&self) -> u64 {
        self.header.records - self.next
    }

    /// Why the stream ended before its header's record count, if it did:
    /// the decode error of the first record that could not be replayed.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }
}

impl AccessStream for ReplayStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.next >= self.header.records {
            return None;
        }
        match decode_at(&self.data, &self.header.layout, self.next) {
            Ok(record) => {
                self.next += 1;
                Some(record)
            }
            Err(error) => {
                // Sticky: no record past a corrupt one is ever produced.
                self.next = self.header.records;
                self.error = Some(error);
                None
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

impl Iterator for ReplayStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.next_record()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.remaining()).expect("trace fits in memory");
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{
        encode_records, Provenance, TraceLayout, BLOCK_BYTES, HEADER_BYTES, VERSION,
    };
    use pv_core::packing::write_bits;
    use pv_workloads::{workloads, TraceGenerator};

    #[test]
    fn replay_reproduces_the_generator_stream() {
        let params = workloads::oracle();
        let records: Vec<_> = TraceGenerator::new(&params, 99, 2).take(500).collect();
        let bytes = encode_records(&records, Provenance { core: 2, seed: 99 });
        let replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.records(), 500);
        let replayed: Vec<_> = replay.collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn replay_ends_and_stays_ended() {
        let records: Vec<_> = TraceGenerator::new(&workloads::qry1(), 1, 0).take(3).collect();
        let bytes = encode_records(&records, Provenance::default());
        let mut replay = ReplayStream::new(bytes).expect("valid trace");
        for _ in 0..3 {
            assert!(replay.next_record().is_some());
        }
        assert_eq!(replay.remaining(), 0);
        assert!(replay.next_record().is_none());
        assert!(replay.next_record().is_none(), "exhaustion is sticky");
    }

    #[test]
    fn label_names_the_provenance() {
        let bytes = encode_records(
            &[],
            Provenance {
                core: 1,
                seed: 0xABC,
            },
        );
        let replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.label(), "replay:core1:seed0xabc");
        assert_eq!(replay.header().version, VERSION);
    }

    #[test]
    fn corrupted_traces_are_rejected_at_construction() {
        let records: Vec<_> = TraceGenerator::new(&workloads::zeus(), 5, 1).take(10).collect();
        let bytes = encode_records(&records, Provenance::default());
        let mut future = bytes.clone();
        future[4] = 7;
        assert_eq!(
            ReplayStream::new(future).unwrap_err(),
            TraceError::UnsupportedVersion(7)
        );
        let truncated = bytes[..bytes.len() - 8].to_vec();
        assert!(matches!(
            ReplayStream::new(truncated).unwrap_err(),
            TraceError::Truncated { .. }
        ));
        // A record count whose encoded size overflows `usize` must not wrap
        // around to a size the buffer passes.
        let mut overflowing = bytes.clone();
        overflowing[12..20].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(matches!(
            ReplayStream::new(overflowing).unwrap_err(),
            TraceError::Truncated { .. }
        ));
    }

    #[test]
    fn corrupt_op_code_ends_the_stream_with_an_error() {
        let records: Vec<_> = TraceGenerator::new(&workloads::apache(), 3, 0).take(12).collect();
        let mut bytes = encode_records(&records, Provenance::default());
        // Rewrite record 6's two op bits to the unused code 3.
        let layout = TraceLayout::DEFAULT;
        let (bad, per_block) = (6, layout.records_per_block());
        let block = HEADER_BYTES + (bad / per_block) * BLOCK_BYTES;
        let op_offset = (bad % per_block) * layout.record_bits() as usize
            + (layout.pc_bits + layout.addr_bits) as usize;
        write_bits(&mut bytes[block..block + BLOCK_BYTES], op_offset, 0b11, 2);

        let mut replay = ReplayStream::new(bytes).expect("the header is intact");
        let replayed: Vec<_> = replay.by_ref().collect();
        assert_eq!(replayed, records[..bad]);
        assert_eq!(replay.error(), Some(&TraceError::BadOp(3)));
        assert_eq!(replay.remaining(), 0);
        assert!(replay.next_record().is_none(), "the early end is sticky");
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let records: Vec<_> = TraceGenerator::new(&workloads::db2(), 5, 1).take(8).collect();
        let bytes = encode_records(&records, Provenance::default());
        let mut replay = ReplayStream::new(bytes).expect("valid trace");
        assert_eq!(replay.size_hint(), (8, Some(8)));
        replay.next();
        assert_eq!(replay.size_hint(), (7, Some(7)));
    }
}
