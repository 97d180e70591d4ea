//! Binary snapshot codec shared by every crate that participates in
//! device-state checkpointing.
//!
//! The format is deliberately simple and fully explicit:
//!
//! * little-endian fixed-width integers (`usize` travels as `u64`),
//! * `f64` as its IEEE-754 bit pattern (`to_bits`/`from_bits`), so floats
//!   round-trip bit-exactly,
//! * `Option<T>` as a one-byte presence tag followed by the payload,
//! * byte strings and UTF-8 strings as a `u64` length prefix plus bytes,
//! * one-byte **section tags** ([`Enc::tag`]/[`Dec::expect_tag`]) bracketing
//!   each logical state region, so a decoder that drifts out of sync fails
//!   immediately with a named section instead of silently misreading.
//!
//! Checkpoint files start with [`MAGIC`] and a `u32` format [`VERSION`];
//! loading anything else fails with a descriptive [`SnapshotError`] — never
//! a panic. Every component owning private state implements its own
//! `encode_state`/`decode_state` against [`Enc`]/[`Dec`] in its defining
//! module, keeping field privacy intact.

use std::error::Error;
use std::fmt;

/// File magic for Evanesco checkpoint snapshots (`EVSC` + format epoch).
pub const MAGIC: &[u8; 8] = b"EVSCCKP1";

/// Current snapshot format version. Bump on any incompatible layout change.
///
/// Version history:
///
/// * **1** — flat stream of component sections behind one header.
/// * **2** — the top-level checkpoint is framed into CRC-guarded sections
///   (`[id:u8][len:u64][crc32:u32][payload]`, see [`Enc::section`]), so a
///   corrupted region is pinned to a named section and can be salvaged
///   instead of poisoning the whole blob.
/// * **3** — the flag-device section (`0x21`) carries `(nonce, born_day)`
///   per programmed flag plus the stream key and next nonce, instead of
///   an RNG position and `k` cell voltages per flag (physics stream v2:
///   voltages are derived at sense time).
/// * **4** — the configuration section drops its two tag-tracking flags and
///   the host section its per-LPA tag map and stale-tag audit log:
///   sanitization is verified from the flash, not from host bookkeeping.
/// * **5** — the configuration section drops the four retry knobs (the
///   budgets and back-off base are constants) and the recovery totals
///   their two lock counters (recovery's locks count in the FTL's rungs).
/// * **6** — the FTL section drops the GC victim index (buckets, positions
///   and the lowest-bucket hint): GC picks its victim by scanning the
///   block table.
/// * **7** — the configuration section drops the SSD's copy of the channel
///   topology (the FTL's chip count and chips per channel state it) and
///   the read-retry budget (a constant).
/// * **8** — the configuration section is the only statement of the
///   geometry, timing, chip count, chips per channel and logical capacity:
///   the chip, flag, executor, FTL and time-series sections no longer
///   restate them or any table length they fix, and each is decoded onto
///   tables already built from the configuration.
///
/// Only the current version decodes; older blobs are rejected as
/// unsupported: nothing outside this repository ever wrote one.
pub const VERSION: u32 = 8;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// each framed checkpoint section. Detects every single-byte corruption
/// and all burst errors up to 32 bits.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Errors surfaced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected data.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// Bytes the decoder tried to read there.
        needed: usize,
    },
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// Structurally invalid content (bad tag byte, bad enum discriminant,
    /// out-of-sync section marker, …).
    Corrupt(String),
    /// The snapshot is well-formed but describes state the configured
    /// device cannot hold (a flag outside the geometry, a nonce the chip
    /// has not issued, a birth day after the chip's age).
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { offset, needed } => {
                write!(f, "snapshot truncated: needed {needed} byte(s) at offset {offset}")
            }
            SnapshotError::BadMagic => {
                write!(f, "not an Evanesco checkpoint (bad magic; expected {MAGIC:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build supports {supported})"
                )
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            SnapshotError::Mismatch(msg) => write!(f, "checkpoint/device mismatch: {msg}"),
        }
    }
}

impl Error for SnapshotError {}

/// Snapshot encoder: an append-only byte buffer with typed writers.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh encoder holding the magic + version header.
    pub fn with_header() -> Self {
        let mut e = Enc::default();
        e.buf.extend_from_slice(MAGIC);
        e.u32(VERSION);
        e
    }

    /// A fresh encoder with no header (for nested component sections).
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder, yielding the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a one-byte section tag.
    pub fn tag(&mut self, t: u8) {
        self.buf.push(t);
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an `Option` as a presence byte plus payload.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Writes one CRC-guarded checkpoint section: `payload` is encoded
    /// into its own buffer, then framed as `[id][len:u64][crc32][bytes]`.
    /// The frame lets a decoder skip a section whose checksum fails and
    /// keep reading the next one (the salvage path), while the CRC pins
    /// any corruption to the section it landed in.
    pub fn section(&mut self, id: u8, payload: impl FnOnce(&mut Enc)) {
        let mut inner = Enc::new();
        payload(&mut inner);
        let bytes = inner.into_bytes();
        self.u8(id);
        self.u64(bytes.len() as u64);
        self.u32(crc32(&bytes));
        self.buf.extend_from_slice(&bytes);
    }
}

/// Snapshot decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder that first checks the magic + version header. Only the
    /// current [`VERSION`] is accepted.
    pub fn with_header(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(buf);
        let magic = d.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version, supported: VERSION });
        }
        Ok(d)
    }

    /// A headerless decoder (for nested component sections).
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed — the bound for any table a decoder sizes
    /// from a count in the stream.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Fails unless the stream is fully consumed (guards against trailing
    /// garbage / decoder drift).
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) after snapshot at offset {}",
                self.buf.len() - self.pos,
                self.pos
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        // `n` may be any length the stream claims: compare it with what is
        // left rather than add it to the offset, which could overflow.
        if n > self.remaining() {
            return Err(SnapshotError::Truncated { offset: self.pos, needed: n });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads and checks a one-byte section tag.
    pub fn expect_tag(&mut self, t: u8, section: &str) -> Result<(), SnapshotError> {
        let got = self.u8()?;
        if got != t {
            return Err(SnapshotError::Corrupt(format!(
                "expected section '{section}' (tag {t:#04x}) at offset {}, found {got:#04x}",
                self.pos - 1
            )));
        }
        Ok(())
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!(
                "invalid bool byte {b:#04x} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// Reads a `u16` little-endian.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len checked")))
    }

    /// Reads a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len checked")))
    }

    /// Reads a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len checked")))
    }

    /// Reads a `usize` stored as `u64`, rejecting values over the platform
    /// word size.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            SnapshotError::Corrupt(format!("usize value {v} exceeds platform word size"))
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let at = self.pos;
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("invalid UTF-8 string at offset {at}")))
    }

    /// Reads an `Option` written by [`Enc::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(SnapshotError::Corrupt(format!(
                "invalid Option tag {b:#04x} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// Reads one section frame written by [`Enc::section`] without
    /// enforcing the checksum: returns a sub-decoder over the payload and
    /// whether its CRC matched. The stream is advanced past the section
    /// either way, so a caller may skip a damaged section and keep
    /// decoding (the salvage path). Frame-level damage (wrong id, a
    /// length running past the buffer) is unrecoverable and errors.
    pub fn section_frame(&mut self, id: u8, name: &str) -> Result<(Dec<'a>, bool), SnapshotError> {
        let got = self.u8()?;
        if got != id {
            return Err(SnapshotError::Corrupt(format!(
                "expected checkpoint section '{name}' (id {id:#04x}) at offset {}, \
                 found {got:#04x}",
                self.pos - 1
            )));
        }
        let len = self.usize()?;
        let crc = self.u32()?;
        let payload = self.take(len)?;
        let ok = crc32(payload) == crc;
        Ok((Dec::new(payload), ok))
    }

    /// Reads one section frame and enforces its checksum: the strict
    /// counterpart of [`Dec::section_frame`], failing with an error that
    /// names the damaged section.
    pub fn section(&mut self, id: u8, name: &str) -> Result<Dec<'a>, SnapshotError> {
        let (payload, ok) = self.section_frame(id, name)?;
        if !ok {
            return Err(SnapshotError::Corrupt(format!(
                "checkpoint section '{name}' failed its CRC check"
            )));
        }
        Ok(payload)
    }
}

/// Declares a struct of `u64` counters from one list, each with its scrape
/// help text, so the struct, its array view, the checkpoint wire order and
/// the scrape families cannot drift apart: a counter's position in the
/// list *is* its position in every checkpoint and every scrape. Each
/// field is `name: "scrape help",` under its doc comment.
#[macro_export]
macro_rules! counters {
    ($(#[$sdoc:meta])* $ty:ident; $($(#[$doc:meta])* $name:ident: $help:literal,)*) => {
        $(#[$sdoc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $ty {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl $ty {
            /// Number of counters.
            const N: usize = [$(stringify!($name)),*].len();

            fn as_array(&self) -> [u64; Self::N] {
                [$(self.$name),*]
            }

            fn from_array([$($name),*]: [u64; Self::N]) -> Self {
                $ty { $($name),* }
            }

            /// Every counter as `(name, scrape help, value)`, in declaration
            /// order.
            pub fn families(&self) -> [(&'static str, &'static str, u64); Self::N] {
                [$((stringify!($name), $help, self.$name)),*]
            }

            /// Serializes every counter into a checkpoint stream.
            pub fn encode_snapshot(&self, e: &mut $crate::snapshot::Enc) {
                for v in self.as_array() {
                    e.u64(v);
                }
            }

            /// Inverse of `encode_snapshot`.
            ///
            /// # Errors
            ///
            /// Fails on truncation.
            pub fn decode_snapshot(
                d: &mut $crate::snapshot::Dec<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let mut counters = [0u64; Self::N];
                for v in &mut counters {
                    *v = d.u64()?;
                }
                Ok(Self::from_array(counters))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        /// Two counters.
        Pair;
        /// The first.
        first: "First help.",
        /// The second.
        second: "Second help.",
    }

    #[test]
    fn counters_travel_in_declaration_order_and_refuse_truncation() {
        let p = Pair { first: 1, second: 2 };
        assert_eq!(p.families(), [("first", "First help.", 1), ("second", "Second help.", 2)]);
        let mut e = Enc::new();
        p.encode_snapshot(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes, [1u64.to_le_bytes(), 2u64.to_le_bytes()].concat());
        assert_eq!(Pair::decode_snapshot(&mut Dec::new(&bytes)), Ok(p));
        assert!(Pair::decode_snapshot(&mut Dec::new(&bytes[..8])).is_err(), "never zero-filled");
    }

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u16(65_000);
        e.u32(4_000_000_000);
        e.u64(u64::MAX - 3);
        e.usize(12345);
        e.f64(-0.125);
        e.f64(f64::NAN);
        e.bytes(b"abc");
        e.str("héllo");
        e.opt(&Some(9u64), |e, v| e.u64(*v));
        e.opt(&None::<u64>, |e, v| e.u64(*v));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 65_000);
        assert_eq!(d.u32().unwrap(), 4_000_000_000);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.bytes().unwrap(), b"abc");
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.opt(|d| d.u64()).unwrap(), Some(9));
        assert_eq!(d.opt(|d| d.u64()).unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn header_checks_magic_and_version() {
        let bytes = Enc::with_header().into_bytes();
        Dec::with_header(&bytes).unwrap();
        assert_eq!(Dec::with_header(b"NOTACKPT0000").unwrap_err(), SnapshotError::BadMagic);
        // A future version, the retired formats 1 to 7, and zero are all
        // refused.
        for version in [0xFFu32, 7, 6, 5, 4, 3, 2, 1, 0] {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            let want = SnapshotError::UnsupportedVersion { found: version, supported: VERSION };
            assert_eq!(Dec::with_header(&bad).unwrap_err(), want);
        }
        assert!(matches!(
            Dec::with_header(&bytes[..5]).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn truncation_reports_offset() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..4]);
        match d.u64().unwrap_err() {
            SnapshotError::Truncated { offset, needed } => {
                assert_eq!(offset, 0);
                assert_eq!(needed, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_length_past_the_end_is_truncation_not_an_overflow() {
        for len in [u64::MAX, u64::MAX - 7, 1 << 40] {
            let mut e = Enc::new();
            e.u64(len);
            let bytes = e.into_bytes();
            let got = Dec::new(&bytes).bytes();
            assert!(matches!(got, Err(SnapshotError::Truncated { offset: 8, .. })), "{got:?}");
            let mut framed = vec![1];
            framed.extend(&bytes);
            framed.extend([0; 4]);
            let got = Dec::new(&framed).section_frame(1, "s").map(|(_, ok)| ok);
            assert!(matches!(got, Err(SnapshotError::Truncated { offset: 13, .. })), "{got:?}");
        }
    }

    #[test]
    fn tags_catch_drift() {
        let mut e = Enc::new();
        e.tag(0xA1);
        e.u32(5);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.expect_tag(0xA1, "stats").unwrap();
        assert_eq!(d.u32().unwrap(), 5);
        let mut d = Dec::new(&bytes);
        let err = d.expect_tag(0xB2, "other").unwrap_err();
        assert!(err.to_string().contains("other"), "{err}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values (RFC 3720 appendix / zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sections_roundtrip_and_pin_corruption() {
        let mut e = Enc::new();
        e.section(1, |e| e.u64(42));
        e.section(2, |e| e.str("payload"));
        let mut bytes = e.into_bytes();
        {
            let mut d = Dec::new(&bytes);
            let mut s1 = d.section(1, "first").unwrap();
            assert_eq!(s1.u64().unwrap(), 42);
            s1.finish().unwrap();
            let mut s2 = d.section(2, "second").unwrap();
            assert_eq!(s2.str().unwrap(), "payload");
            d.finish().unwrap();
        }
        // Flip one payload byte: the strict reader names the section, the
        // lenient reader reports the bad CRC but still advances to the
        // next (intact) section.
        let len = bytes.len();
        bytes[len - 2] ^= 0x40;
        let mut d = Dec::new(&bytes);
        d.section(1, "first").unwrap();
        let err = d.section(2, "second").unwrap_err();
        assert!(err.to_string().contains("'second'"), "{err}");
        let mut d = Dec::new(&bytes);
        let (_, ok) = d.section_frame(1, "first").unwrap();
        assert!(ok);
        let (_, ok) = d.section_frame(2, "second").unwrap();
        assert!(!ok);
        d.finish().unwrap();
        // Frame-level damage (wrong id) is unrecoverable.
        bytes[0] = 9;
        let err = Dec::new(&bytes).section_frame(1, "first").unwrap_err();
        assert!(err.to_string().contains("'first'"), "{err}");
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert!(matches!(d.finish().unwrap_err(), SnapshotError::Corrupt(_)));
    }
}
