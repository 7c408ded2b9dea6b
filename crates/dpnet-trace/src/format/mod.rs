//! Trace persistence.
//!
//! The mediated-analysis setting has the *data owner* storing traces and the
//! analyst submitting queries; the owner needs a compact on-disk format.
//! [`binary`] provides a simple length-prefixed binary encoding with a
//! magic header and version byte, plus streaming read and write over any
//! `Read`/`Write`.

pub mod binary;
pub mod pcap;
pub mod text;

pub use binary::{read_trace, write_trace, FormatError, MAGIC, VERSION};
pub use pcap::{read_pcap, write_pcap, PcapError};
pub use text::{read_text, write_text, TextError};

/// A little-endian reader over a byte slice: each read takes its bytes off
/// the front. The readers check [`Cursor::remaining`] before each record
/// or field, so a read past the end is a bug and panics.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        self.take(N).try_into().expect("took exactly N bytes")
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.array())
    }

    fn u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.array())
    }

    fn u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.array())
    }
}
