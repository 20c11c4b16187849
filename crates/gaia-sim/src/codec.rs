//! The workspace's one binary codec and one durable file write.
//!
//! Every persisted format — engine snapshots (`GAIASNAP`), service
//! snapshots (`GAIASRVS`), sweep shard files (`GAIASHRD`) and
//! result-cache entries (`GAIACELL`) — is framed with this module's
//! [`Writer`] and [`Reader`]: integers little-endian, floats as raw
//! `f64::to_bits`, strings and blobs length-prefixed with a `u64`,
//! options as a 0/1 tag, no padding, no varints. The same value always
//! encodes to the same bytes, which is what lets snapshots and cache
//! fingerprints take part in the byte-identity contract (the vendored
//! `serde` is a no-op stub, so the layout is written by hand).
//!
//! Each format opens with an 8-byte magic and a `u32` version
//! ([`Writer::header`] / [`Reader::header`]). A wrong magic is
//! [`SnapshotError::Corrupt`]; a version other than the one this build
//! writes is [`SnapshotError::Incompatible`], so an old binary refuses
//! a new file instead of misreading it. Readers bounds-check every take,
//! guard every element count against the bytes left, validate tags and
//! reject trailing bytes: truncated or bit-flipped input decodes to an
//! error, never a panic or a huge allocation.
//!
//! [`atomic_write`] is the durable write every persisted file goes
//! through.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use gaia_time::{Minutes, SimTime};

/// Why a persisted payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is truncated or structurally malformed.
    Corrupt(String),
    /// The payload is well-formed but from a different world: unknown
    /// layout version, or a config/carbon fingerprint mismatch.
    Incompatible(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
            SnapshotError::Incompatible(msg) => write!(f, "incompatible payload: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over arbitrary bytes; stable, dependency-free fingerprinting.
///
/// Every fingerprint in the workspace uses it: snapshot config and
/// carbon checks, sweep shard assignment and result-cache keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A format header: the 8-byte magic, then the `u32` version.
    pub fn header(&mut self, magic: &[u8; 8], version: u32) {
        self.buf.extend_from_slice(magic);
        self.u32(version);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as one 0/1 byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An instant as its `u64` minute count.
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_minutes());
    }

    /// A duration as its `u64` minute count.
    pub fn minutes(&mut self, m: Minutes) {
        self.u64(m.as_minutes());
    }

    /// A UTF-8 string, `u64`-length-prefixed.
    pub fn str(&mut self, v: &str) {
        self.blob(v.as_bytes());
    }

    /// Opaque bytes, `u64`-length-prefixed.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// A 0 tag for `None`; a 1 tag followed by `f`'s encoding for `Some`.
    pub fn opt<T: ?Sized>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }
}

/// Bounds-checked little-endian byte source; the inverse of [`Writer`].
#[derive(Debug)]
pub struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'b [u8]) -> Reader<'b> {
        Reader { buf, pos: 0 }
    }

    /// Checks a [`Writer::header`]: a different magic is `Corrupt`, a
    /// different version `Incompatible`.
    pub fn header(&mut self, magic: &[u8; 8], version: u32) -> Result<(), SnapshotError> {
        let name = String::from_utf8_lossy(magic);
        if self.take(magic.len())? != magic {
            return Err(SnapshotError::Corrupt(format!(
                "bad magic: not a {name} payload"
            )));
        }
        let found = self.u32()?;
        if found != version {
            return Err(SnapshotError::Incompatible(format!(
                "{name} version {found}, this build reads version {version}"
            )));
        }
        Ok(())
    }

    /// The next `n` bytes, or `Corrupt` if fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'b [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                SnapshotError::Corrupt(format!(
                    "truncated at offset {} (wanted {n} more bytes of {})",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Succeeds only at the end of the input: appended bytes are
    /// `Corrupt`.
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )))
        }
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// A 0/1 byte; any other value is `Corrupt`.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("took 4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("took 8 bytes")))
    }

    /// Raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An instant from its minute count.
    pub fn time(&mut self) -> Result<SimTime, SnapshotError> {
        Ok(SimTime::from_minutes(self.u64()?))
    }

    /// A duration from its minute count.
    pub fn minutes(&mut self) -> Result<Minutes, SnapshotError> {
        Ok(Minutes::new(self.u64()?))
    }

    /// An element count that the remaining input can plausibly hold at
    /// `min_elem_bytes` per element, so a corrupt length fails cleanly
    /// instead of attempting a huge allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_bytes.max(1) as u64) > remaining {
            return Err(SnapshotError::Corrupt(format!(
                "count {n} exceeds the remaining {remaining} payload bytes"
            )));
        }
        Ok(n as usize)
    }

    /// A [`Writer::str`] string; invalid UTF-8 is `Corrupt`.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let raw = self.blob()?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| SnapshotError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// A [`Writer::blob`], borrowed from the input.
    pub fn blob(&mut self) -> Result<&'b [u8], SnapshotError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// A [`Writer::opt`] value; a tag other than 0/1 is `Corrupt`.
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(SnapshotError::Corrupt(format!(
                "invalid option tag {other}"
            ))),
        }
    }
}

/// Durably replaces `path` with `bytes`: a crash at any instant leaves
/// either the previous complete file or the new complete one, never
/// partial bytes.
///
/// The bytes go to a `.tmp` sibling that is `sync_all`ed *before* the
/// rename (otherwise the rename can reach disk ahead of the data and a
/// crash exposes a truncated file under the final name); the parent
/// directory is synced *after* it, so the rename itself survives. On
/// failure the `.tmp` is removed and the previous contents stay.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let written = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // A bare filename has an empty parent: the entry lives in `.`.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gaia-codec-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.header(b"GAIATEST", 3);
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.time(SimTime::from_minutes(90));
        w.minutes(Minutes::new(45));
        w.str("tenant");
        w.blob(&[1, 2, 3]);
        w.opt(None::<&u64>, |w, v| w.u64(*v));
        w.opt(Some(&9u64), |w, v| w.u64(*v));
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        r.header(b"GAIATEST", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.time().unwrap(), SimTime::from_minutes(90));
        assert_eq!(r.minutes().unwrap(), Minutes::new(45));
        assert_eq!(r.str().unwrap(), "tenant");
        assert_eq!(r.blob().unwrap(), [1, 2, 3]);
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(9));
        r.done().unwrap();
    }

    #[test]
    fn header_separates_bad_magic_from_unknown_version() {
        let mut w = Writer::new();
        w.header(b"GAIATEST", 2);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).header(b"GAIAOTHR", 2).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(ref m) if m.contains("magic")));
        let err = Reader::new(&bytes).header(b"GAIATEST", 1).unwrap_err();
        assert!(matches!(err, SnapshotError::Incompatible(ref m) if m.contains("version")));
    }

    #[test]
    fn guards_reject_truncation_huge_counts_and_trailing_bytes() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        w.u8(2);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes[..5]).u64().is_err());
        assert!(Reader::new(&bytes).count(1).is_err());
        assert!(Reader::new(&bytes).blob().is_err());
        let mut r = Reader::new(&bytes);
        r.u64().unwrap();
        assert!(r.done().is_err());
        assert!(r.opt(|r| r.u8()).is_err(), "tag 2 is not an option tag");
    }

    #[test]
    fn atomic_write_failure_preserves_old_contents_and_removes_tmp() {
        let dir = tempdir("atomic-fail");
        let target = dir.join("manifest.json");
        atomic_write(&target, b"old complete bytes").unwrap();

        // Failure before the tmp file exists: the target's `.tmp`
        // sibling path is occupied by a directory, so `File::create`
        // fails and the old contents survive.
        fs::create_dir(dir.join("manifest.tmp")).unwrap();
        let err = atomic_write(&target, b"new bytes").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory);
        assert_eq!(fs::read(&target).unwrap(), b"old complete bytes");
        fs::remove_dir(dir.join("manifest.tmp")).unwrap();

        // Recovery: the next write replaces the bytes whole.
        atomic_write(&target, b"fresh bytes").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"fresh bytes");
        assert!(!dir.join("manifest.tmp").exists(), "tmp must not linger");

        // Failure at rename time: the target path is a non-empty
        // directory, so the rename fails and the tmp file is removed.
        let dir_target = dir.join("occupied");
        fs::create_dir(&dir_target).unwrap();
        fs::write(dir_target.join("x"), b"x").unwrap();
        assert!(atomic_write(&dir_target, b"bytes").is_err());
        assert!(!dir.join("occupied.tmp").exists(), "tmp not removed");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_never_observe_partial_bytes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = tempdir("atomic-race");
        let target = dir.join("scenarios.csv");
        // Two full payloads with distinct lengths and bytes; any mix or
        // truncation is detectable.
        let a: Vec<u8> = std::iter::repeat_n(b'a', 64 * 1024).collect();
        let b: Vec<u8> = std::iter::repeat_n(b'b', 96 * 1024).collect();
        atomic_write(&target, &a).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            let target = target.clone();
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let bytes = fs::read(&target).expect("target always present");
                    assert!(
                        bytes == a || bytes == b,
                        "reader observed partial write: {} bytes",
                        bytes.len()
                    );
                    reads += 1;
                }
                reads
            })
        };
        for i in 0..200 {
            atomic_write(&target, if i % 2 == 0 { &b } else { &a }).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0, "reader never ran");
        assert!(
            !target.with_extension("tmp").exists(),
            "tmp must not linger"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
