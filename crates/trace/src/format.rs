//! The on-disk trace format: a fixed header followed by 64-byte blocks of
//! bit-packed records.
//!
//! The layout reuses the paper's Figure 3a word-window packing idiom that
//! `pv_core::packing` productized for PVTable sets: records are packed back
//! to back into cache-block-sized frames with `write_bits`/`read_bits`
//! (single 128-bit window shift/masks, no per-bit loops), and any bits left
//! over at the end of a block form an unused trailer. With the default
//! widths (48-bit PC, 48-bit address, 2-bit op, 14-bit instruction count =
//! 112 bits) each 64-byte block carries four records with a 64-bit trailer —
//! 16 bytes per record against the 24 an in-memory [`TraceRecord`] occupies.
//!
//! The header is versioned and self-describing (field widths, block size,
//! record count, provenance); readers reject unknown magics and versions so
//! the format cannot drift silently.

use pv_core::packing::{read_bits, write_bits};
use pv_workloads::{MemOp, TraceRecord};

/// File magic, first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"PVTR";
/// Current format version. Readers reject anything else.
pub const VERSION: u16 = 1;
/// Header size in bytes; record blocks start immediately after.
pub const HEADER_BYTES: usize = 32;
/// Size of one record frame — a cache block, as in Figure 3a.
pub const BLOCK_BYTES: usize = 64;

/// Bits used to encode [`MemOp`].
const OP_BITS: u32 = 2;

/// Errors produced while encoding or decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header names a version this reader does not understand.
    UnsupportedVersion(u16),
    /// The buffer is shorter than its header claims.
    Truncated {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The header's field widths or block size are out of range.
    BadLayout(String),
    /// A record field does not fit the layout's width.
    FieldOverflow {
        /// Field name (`"pc"`, `"address"`, `"non_mem_instructions"`).
        field: &'static str,
        /// The value that did not fit.
        value: u64,
        /// The layout's width for that field.
        bits: u32,
    },
    /// A decoded op code is not a valid [`MemOp`].
    BadOp(u8),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic(magic) => write!(f, "bad trace magic {magic:?}"),
            TraceError::UnsupportedVersion(version) => {
                write!(
                    f,
                    "unsupported trace version {version} (expected {VERSION})"
                )
            }
            TraceError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated trace: header implies {expected} bytes, got {actual}"
                )
            }
            TraceError::BadLayout(message) => write!(f, "bad trace layout: {message}"),
            TraceError::FieldOverflow { field, value, bits } => {
                write!(f, "record field {field}={value:#x} exceeds {bits} bits")
            }
            TraceError::BadOp(op) => write!(f, "invalid op code {op}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Field widths of one trace file. Together with the fixed 2-bit op they
/// define the per-record bit budget and therefore how many records pack
/// into each 64-byte block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceLayout {
    /// Bits of the program counter field.
    pub pc_bits: u32,
    /// Bits of the byte-address field.
    pub addr_bits: u32,
    /// Bits of the non-memory-instruction count field.
    pub imm_bits: u32,
}

impl TraceLayout {
    /// The default layout: 48-bit PC and address cover the simulator's
    /// 3 GB physical space with per-core strides many times over; 14 bits
    /// of instruction count dwarf any generator's `instr_per_mem`.
    pub const DEFAULT: TraceLayout = TraceLayout {
        pc_bits: 48,
        addr_bits: 48,
        imm_bits: 14,
    };

    /// Validates the widths: every field in `1..=64` (the codec's word
    /// limit, 32 for the count field which decodes into a `u32`), and at
    /// least one record per block.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadLayout`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (name, bits, max) in [
            ("pc_bits", self.pc_bits, 64u32),
            ("addr_bits", self.addr_bits, 64),
            ("imm_bits", self.imm_bits, 32),
        ] {
            if bits == 0 || bits > max {
                return Err(TraceError::BadLayout(format!(
                    "{name} must be in 1..={max}, got {bits}"
                )));
            }
        }
        if self.records_per_block() == 0 {
            return Err(TraceError::BadLayout(format!(
                "{}-bit records do not fit a {BLOCK_BYTES}-byte block",
                self.record_bits()
            )));
        }
        Ok(())
    }

    /// Bits one packed record occupies.
    pub fn record_bits(&self) -> u32 {
        self.pc_bits + self.addr_bits + OP_BITS + self.imm_bits
    }

    /// Records per 64-byte block (the remainder is the unused trailer).
    pub fn records_per_block(&self) -> usize {
        (BLOCK_BYTES * 8) / self.record_bits() as usize
    }

    /// Encoded size in bytes of a trace holding `records` records
    /// (header plus full and partial blocks), saturating at `usize::MAX`:
    /// a corrupted record count then implies a size no buffer has, and
    /// header validation reports the trace as truncated.
    pub fn encoded_bytes(&self, records: u64) -> usize {
        let per_block = self.records_per_block() as u64;
        usize::try_from(records.div_ceil(per_block))
            .ok()
            .and_then(|blocks| blocks.checked_mul(BLOCK_BYTES))
            .and_then(|body| body.checked_add(HEADER_BYTES))
            .unwrap_or(usize::MAX)
    }

    /// Packs `record` into `block` at slot `slot`.
    fn pack(&self, block: &mut [u8], slot: usize, record: &TraceRecord) -> Result<(), TraceError> {
        let check = |field: &'static str, value: u64, bits: u32| {
            if bits < 64 && value >> bits != 0 {
                Err(TraceError::FieldOverflow { field, value, bits })
            } else {
                Ok(())
            }
        };
        check("pc", record.pc, self.pc_bits)?;
        check("address", record.address, self.addr_bits)?;
        check(
            "non_mem_instructions",
            u64::from(record.non_mem_instructions),
            self.imm_bits,
        )?;
        let mut offset = slot * self.record_bits() as usize;
        let mut put = |value: u64, bits: u32| {
            write_bits(block, offset, value, bits);
            offset += bits as usize;
        };
        put(record.pc, self.pc_bits);
        put(record.address, self.addr_bits);
        put(encode_op(record.op), OP_BITS);
        put(u64::from(record.non_mem_instructions), self.imm_bits);
        Ok(())
    }

    /// Unpacks the record at slot `slot` of `block`.
    fn unpack(&self, block: &[u8], slot: usize) -> Result<TraceRecord, TraceError> {
        let mut offset = slot * self.record_bits() as usize;
        let mut take = |bits: u32| {
            let value = read_bits(block, offset, bits);
            offset += bits as usize;
            value
        };
        let pc = take(self.pc_bits);
        let address = take(self.addr_bits);
        let op = decode_op(take(OP_BITS) as u8)?;
        let non_mem_instructions = take(self.imm_bits) as u32;
        Ok(TraceRecord {
            pc,
            address,
            op,
            non_mem_instructions,
        })
    }
}

fn encode_op(op: MemOp) -> u64 {
    match op {
        MemOp::Load => 0,
        MemOp::Store => 1,
        MemOp::InstructionFetch => 2,
    }
}

fn decode_op(code: u8) -> Result<MemOp, TraceError> {
    match code {
        0 => Ok(MemOp::Load),
        1 => Ok(MemOp::Store),
        2 => Ok(MemOp::InstructionFetch),
        other => Err(TraceError::BadOp(other)),
    }
}

/// Provenance recorded in the header: which `(seed, core)` pair produced
/// the stream (zeroes when unknown — e.g. a trace recorded from a scenario
/// composition rather than a single generator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Core index the stream belonged to.
    pub core: u32,
    /// Generator seed of the run.
    pub seed: u64,
}

/// The parsed header of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (always [`VERSION`] after a successful parse).
    pub version: u16,
    /// Field widths.
    pub layout: TraceLayout,
    /// Number of records in the body.
    pub records: u64,
    /// Recording provenance.
    pub provenance: Provenance,
}

impl TraceHeader {
    /// Serializes the header into its 32-byte wire form.
    fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let mut bytes = [0u8; HEADER_BYTES];
        bytes[0..4].copy_from_slice(&MAGIC);
        bytes[4..6].copy_from_slice(&self.version.to_le_bytes());
        bytes[6] = self.layout.pc_bits as u8;
        bytes[7] = self.layout.addr_bits as u8;
        bytes[8] = self.layout.imm_bits as u8;
        // byte 9 reserved (zero)
        bytes[10..12].copy_from_slice(&(BLOCK_BYTES as u16).to_le_bytes());
        bytes[12..20].copy_from_slice(&self.records.to_le_bytes());
        bytes[20..24].copy_from_slice(&self.provenance.core.to_le_bytes());
        bytes[24..32].copy_from_slice(&self.provenance.seed.to_le_bytes());
        bytes
    }

    /// Parses and validates a header from the front of `data`.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] describing the first problem found: bad
    /// magic, unknown version, malformed layout, or truncation.
    pub fn parse(data: &[u8]) -> Result<TraceHeader, TraceError> {
        if data.len() < HEADER_BYTES {
            return Err(TraceError::Truncated {
                expected: HEADER_BYTES,
                actual: data.len(),
            });
        }
        let magic: [u8; 4] = data[0..4].try_into().expect("slice is four bytes");
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("two bytes"));
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let layout = TraceLayout {
            pc_bits: u32::from(data[6]),
            addr_bits: u32::from(data[7]),
            imm_bits: u32::from(data[8]),
        };
        layout.validate()?;
        let block_bytes = u16::from_le_bytes(data[10..12].try_into().expect("two bytes"));
        if usize::from(block_bytes) != BLOCK_BYTES {
            return Err(TraceError::BadLayout(format!(
                "unsupported block size {block_bytes} (expected {BLOCK_BYTES})"
            )));
        }
        let records = u64::from_le_bytes(data[12..20].try_into().expect("eight bytes"));
        let provenance = Provenance {
            core: u32::from_le_bytes(data[20..24].try_into().expect("four bytes")),
            seed: u64::from_le_bytes(data[24..32].try_into().expect("eight bytes")),
        };
        let header = TraceHeader {
            version,
            layout,
            records,
            provenance,
        };
        let expected = layout.encoded_bytes(records);
        if data.len() < expected {
            return Err(TraceError::Truncated {
                expected,
                actual: data.len(),
            });
        }
        Ok(header)
    }
}

/// Incremental encoder: push records, take the finished byte buffer.
///
/// Records accumulate into a 64-byte staging block that is appended to the
/// output whenever it fills; `finish` flushes the partial tail block and
/// patches the record count into the header. The writer owns a plain
/// `Vec<u8>` — callers persist it with one `std::fs::write`.
#[derive(Debug)]
pub struct TraceWriter {
    layout: TraceLayout,
    out: Vec<u8>,
    block: [u8; BLOCK_BYTES],
    in_block: usize,
    records: u64,
}

impl TraceWriter {
    /// Creates a writer with the default layout.
    pub fn new(provenance: Provenance) -> Self {
        Self::with_layout(TraceLayout::DEFAULT, provenance)
    }

    /// Creates a writer with an explicit layout.
    ///
    /// # Panics
    ///
    /// Panics if `layout` fails validation — layouts are chosen by code,
    /// not parsed from untrusted input.
    pub fn with_layout(layout: TraceLayout, provenance: Provenance) -> Self {
        layout.validate().expect("trace layout must be valid");
        let header = TraceHeader {
            version: VERSION,
            layout,
            records: 0,
            provenance,
        };
        TraceWriter {
            layout,
            out: header.to_bytes().to_vec(),
            block: [0u8; BLOCK_BYTES],
            in_block: 0,
            records: 0,
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::FieldOverflow`] when a field exceeds the
    /// layout's width; the writer state is unchanged in that case.
    pub fn push(&mut self, record: &TraceRecord) -> Result<(), TraceError> {
        self.layout.pack(&mut self.block, self.in_block, record)?;
        self.in_block += 1;
        self.records += 1;
        if self.in_block == self.layout.records_per_block() {
            self.out.extend_from_slice(&self.block);
            self.block = [0u8; BLOCK_BYTES];
            self.in_block = 0;
        }
        Ok(())
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes the partial tail block, patches the header's record count,
    /// and returns the finished buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.in_block > 0 {
            self.out.extend_from_slice(&self.block);
        }
        self.out[12..20].copy_from_slice(&self.records.to_le_bytes());
        self.out
    }
}

/// Encodes a slice of records with the default layout in one call.
pub fn encode_records(records: &[TraceRecord], provenance: Provenance) -> Vec<u8> {
    encode_records_with_layout(records, TraceLayout::DEFAULT, provenance)
}

/// Encodes a slice of records with an explicit layout in one call.
///
/// # Panics
///
/// Panics if the layout is invalid or a record field does not fit it —
/// batch encoding is used with layouts known to cover the input.
pub fn encode_records_with_layout(
    records: &[TraceRecord],
    layout: TraceLayout,
    provenance: Provenance,
) -> Vec<u8> {
    let mut writer = TraceWriter::with_layout(layout, provenance);
    for record in records {
        writer.push(record).expect("record must fit the chosen layout");
    }
    writer.finish()
}

/// Decodes the record at `index` of a parsed trace. Shared by the replay
/// stream and the random-access tests.
pub(crate) fn decode_at(
    data: &[u8],
    layout: &TraceLayout,
    index: u64,
) -> Result<TraceRecord, TraceError> {
    let per_block = layout.records_per_block() as u64;
    let block_start = HEADER_BYTES + (index / per_block) as usize * BLOCK_BYTES;
    let block = &data[block_start..block_start + BLOCK_BYTES];
    layout.unpack(block, (index % per_block) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::load(0x1000_0040, 0x1800_0123, 3),
            TraceRecord::store(0x1000_0044, 0x1800_4567, 0),
            TraceRecord::fetch(0x1000_0080, 0x1000_0080),
            TraceRecord::load(0xFFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF, (1 << 14) - 1),
            TraceRecord::load(0, 0, 0),
        ]
    }

    #[test]
    fn default_layout_packs_four_records_per_block() {
        let layout = TraceLayout::DEFAULT;
        layout.validate().expect("default layout is valid");
        assert_eq!(layout.record_bits(), 112);
        assert_eq!(layout.records_per_block(), 4);
        assert_eq!(layout.encoded_bytes(0), HEADER_BYTES);
        assert_eq!(layout.encoded_bytes(4), HEADER_BYTES + BLOCK_BYTES);
        assert_eq!(layout.encoded_bytes(5), HEADER_BYTES + 2 * BLOCK_BYTES);
    }

    #[test]
    fn header_round_trips() {
        let header = TraceHeader {
            version: VERSION,
            layout: TraceLayout::DEFAULT,
            records: 12345,
            provenance: Provenance {
                core: 3,
                seed: 0x5EED_0001,
            },
        };
        let parsed = TraceHeader::parse(&{
            // Pad to the implied size so the length check passes.
            let mut bytes = header.to_bytes().to_vec();
            bytes.resize(header.layout.encoded_bytes(header.records), 0);
            bytes
        })
        .expect("header parses");
        assert_eq!(parsed, header);
    }

    #[test]
    fn records_round_trip_through_writer_and_decode() {
        let records = sample_records();
        let bytes = encode_records(&records, Provenance::default());
        let header = TraceHeader::parse(&bytes).expect("valid trace");
        assert_eq!(header.records, records.len() as u64);
        for (i, expected) in records.iter().enumerate() {
            let decoded = decode_at(&bytes, &header.layout, i as u64).expect("decodes");
            assert_eq!(decoded, *expected, "record {i}");
        }
    }

    #[test]
    fn trailer_bits_stay_zero() {
        // 4 x 112 = 448 bits used; bits 448..512 of every block are unused.
        let records = sample_records();
        let bytes = encode_records(&records, Provenance::default());
        for block in bytes[HEADER_BYTES..].chunks(BLOCK_BYTES) {
            assert_eq!(&block[56..64], &[0u8; 8], "trailer must stay zero");
        }
    }

    #[test]
    fn field_overflow_is_rejected_not_truncated() {
        let mut writer = TraceWriter::new(Provenance::default());
        let record = TraceRecord::load(1 << 48, 0, 0);
        assert_eq!(
            writer.push(&record),
            Err(TraceError::FieldOverflow {
                field: "pc",
                value: 1 << 48,
                bits: 48,
            })
        );
        assert_eq!(writer.records(), 0, "a rejected record must not count");
    }

    #[test]
    fn bad_magic_and_versions_are_rejected() {
        let bytes = encode_records(&sample_records(), Provenance::default());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            TraceHeader::parse(&bad_magic),
            Err(TraceError::BadMagic(_))
        ));
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(
            TraceHeader::parse(&future),
            Err(TraceError::UnsupportedVersion(2))
        );
        assert!(matches!(
            TraceHeader::parse(&bytes[..bytes.len() - 1]),
            Err(TraceError::Truncated { .. })
        ));
        assert!(TraceHeader::parse(&[]).is_err());
    }

    #[test]
    fn wide_records_are_rejected_by_layout_validation() {
        let layout = TraceLayout {
            pc_bits: 64,
            addr_bits: 64,
            imm_bits: 32,
        };
        // 162-bit records still fit (3 per block), so that layout is fine...
        layout.validate().expect("162-bit records pack 3 per block");
        // ...but a zero-width field is not.
        let zero = TraceLayout {
            pc_bits: 0,
            ..TraceLayout::DEFAULT
        };
        assert!(matches!(zero.validate(), Err(TraceError::BadLayout(_))));
    }

    #[test]
    fn errors_render_for_humans() {
        let error = TraceError::UnsupportedVersion(9);
        assert!(error.to_string().contains("version 9"));
        let overflow = TraceError::FieldOverflow {
            field: "address",
            value: 0x1_0000,
            bits: 8,
        };
        assert!(overflow.to_string().contains("address"));
    }
}
