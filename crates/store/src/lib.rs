#![forbid(unsafe_code)]
//! `rv_store` — a content-addressed, append-only result store (std-only).
//!
//! The scenario matrix is the repo's population-level verification
//! artifact, and it used to recompute all of its cells from scratch on
//! every run. This crate gives sweeps a **build-system memory**: each
//! cell's result is persisted once under the key
//! `(cell content key, engine fingerprint)` and replayed verbatim until
//! either the cell's parameters or the engine's behavior-relevant source
//! changes. See `docs/STORE.md` for the full contract.
//!
//! Three pieces:
//!
//! * [`ENGINE_FINGERPRINT`] — a digest of the engine crates' sources,
//!   computed by `build.rs` and baked into this library at compile time.
//!   Keying stored values by it makes invalidation *honest*: any semantic
//!   change to `rv_graph`/`rv_sim`/`rv_explore`/`rv_protocols`/
//!   `rv_trajectory`/`rv_arith`/`rv_core` flips the fingerprint and
//!   orphans every stored row, while bench-harness or docs edits flip
//!   nothing.
//! * [`Store`] — the on-disk store: one `segment.log` of length-prefixed,
//!   checksummed records, an in-memory [`BTreeMap`] index rebuilt by a
//!   single scan on open, duplicate keys resolved last-writer-wins. Each
//!   append writes its one record in place at the end of the segment; a
//!   record torn by a crash is the segment's tail, and the next open
//!   truncates it away (truncate-and-continue). That heal is the store's
//!   one crash-safety mechanism.
//! * [`content_hash`] / [`write_atomic`] — the shared hashing and atomic
//!   file-replacement primitives (the experiment binaries re-export and
//!   reuse both).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

// `ENGINE_FINGERPRINT` / `ENGINE_FINGERPRINT_FILES`, generated by build.rs.
include!(concat!(env!("OUT_DIR"), "/engine_fp.rs"));

/// Segment file magic: identifies the format (and its version) so a
/// foreign or future-format file is refused instead of mis-scanned.
const MAGIC: &[u8; 8] = b"RVCELLS1";

/// Fixed bytes per record before the payload: `u32` payload length +
/// `u64` payload checksum, both little-endian.
const RECORD_HEADER: usize = 4 + 8;

/// Payload prefix: the two key words (cell content key, engine
/// fingerprint), little-endian.
const KEY_BYTES: usize = 16;

/// Content hash of a byte string: FNV-1a accumulation with a SplitMix64
/// finalizer. Used for record checksums, for the cell content keys the
/// bench layer derives from canonical cell serialisations, and (via
/// `build.rs`, which duplicates the construction) for
/// [`ENGINE_FINGERPRINT`] itself. Not cryptographic — it guards against
/// torn writes and drifted specs, not adversaries.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix_finalize(h)
}

/// SplitMix64 finalizer — the same avalanche the fault injector and memo
/// fingerprints use.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes `contents` to `path` **atomically**: the bytes land in a
/// temporary file in the same directory (same filesystem, so the rename
/// is atomic), then replace the destination in one `rename`. A reader —
/// or a resumed sweep — therefore only ever sees the old complete file
/// or the new complete file, never a torn prefix, whatever signal kills
/// the writer mid-write. All JSON-lines output of the experiment
/// binaries goes through here.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} has no file name", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(".{}.tmp", file_name.to_string_lossy()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// The content address of one stored value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreKey {
    /// Content key of the cell spec (a hash of its canonical
    /// serialisation — what is being computed).
    pub cell: u64,
    /// Engine fingerprint the value was computed under — which code
    /// computed it. See [`ENGINE_FINGERPRINT`].
    pub engine: u64,
}

/// What [`Store::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Valid records scanned (including superseded duplicates).
    pub records: usize,
    /// Bytes dropped from the tail because the final record was torn
    /// (short header, short payload, or checksum mismatch). The segment
    /// file is truncated to the valid prefix on open (`File::set_len`),
    /// so a reopen reports zero.
    pub truncated_bytes: usize,
}

/// The append-only store: a single `segment.log` under its directory plus
/// an in-memory index over it. The index is **derived state** — it is
/// rebuilt by one scan of the segment on every open, so the segment file
/// alone is the durable artifact and the index can never drift from it
/// (a property [`Store::open`]'s scan shares with the tests' cold-rebuild
/// equality check).
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    /// The segment file, opened for appending by the first write (open
    /// only reads a clean segment): every write lands at its end.
    file: Option<File>,
    /// The full segment bytes (magic + every valid record): [`Store::get`]
    /// serves values out of them. Sweep populations are small (hundreds
    /// of rows, a few hundred bytes each).
    segment: Vec<u8>,
    /// How many leading bytes of `segment` the file holds: all of them,
    /// except the magic of a store created by this open, which the first
    /// append writes.
    durable: usize,
    /// Set when a failed append left part of its record in the file and
    /// could not cut it back: every later append then lands after those
    /// torn bytes, where the next open would drop it, so every later
    /// append fails instead. A reopen heals the torn tail.
    torn: bool,
    /// `key → (offset, len)` of the value bytes inside `segment`.
    /// `BTreeMap` for deterministic iteration (and the workspace-wide
    /// hash-collection ban).
    index: BTreeMap<(u64, u64), (usize, usize)>,
    open_report: OpenReport,
}

impl Store {
    /// Opens (or creates) the store under `dir`, rebuilding the index by
    /// scanning `segment.log`. A missing or empty segment is an empty
    /// store (the first append writes the format magic); a segment with a
    /// torn final record is truncated to its valid prefix and the loss is
    /// reported in [`Store::open_report`]; a file that does not start
    /// with the format magic is an error (refuse, never mis-scan). Opening
    /// a clean segment only reads it, so a read-only store can be served.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Store> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join("segment.log");
        let mut bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let created = bytes.is_empty();
        if created {
            bytes.extend_from_slice(MAGIC);
        }
        if !bytes.starts_with(MAGIC) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{} does not start with the {:?} segment magic",
                    path.display(),
                    String::from_utf8_lossy(MAGIC)
                ),
            ));
        }

        // One forward scan rebuilds the index. The first malformed record
        // ends the valid prefix: an append-only writer can only tear the
        // *final* record, so everything after a bad header or checksum is
        // unreachable garbage and is dropped (truncate-and-continue).
        let mut index = BTreeMap::new();
        let mut open_report = OpenReport::default();
        let mut off = MAGIC.len();
        while off < bytes.len() {
            let Some((key, value_off, value_len, next)) = decode_record(&bytes, off) else {
                break;
            };
            index.insert(key, (value_off, value_len));
            open_report.records += 1;
            off = next;
        }
        open_report.truncated_bytes = bytes.len() - off;
        let mut file = None;
        if open_report.truncated_bytes > 0 {
            // Heal on disk too, so the next append lands right after the
            // valid prefix and the next open starts clean.
            let f = OpenOptions::new().append(true).open(&path)?;
            f.set_len(off as u64)?;
            file = Some(f);
            bytes.truncate(off);
        }
        Ok(Store {
            path,
            file,
            durable: if created { 0 } else { bytes.len() },
            segment: bytes,
            torn: false,
            index,
            open_report,
        })
    }

    /// What the open scan found (record count, torn-tail bytes dropped).
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Number of distinct keys currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if no key is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The stored value for `key`, if any. Duplicate appends resolve
    /// last-writer-wins, so this is always the most recent append.
    pub fn get(&self, key: StoreKey) -> Option<&[u8]> {
        self.index
            .get(&(key.cell, key.engine))
            .map(|&(off, len)| &self.segment[off..off + len])
    }

    /// Every indexed `(key, value)`, in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (StoreKey, &[u8])> {
        self.index.iter().map(|(&(cell, engine), &(off, len))| {
            (StoreKey { cell, engine }, &self.segment[off..off + len])
        })
    }

    /// Appends one record before returning: the record is encoded onto
    /// the in-memory segment, the index updated (last-writer-wins), and
    /// the record's bytes written at the end of the segment file in one
    /// `write_all`. The earlier bytes of the file are never rewritten, so
    /// a crash mid-append can tear only this record, which the next
    /// [`Store::open`] truncates away. A failed write drops the record
    /// from the in-memory segment and cuts the file back to its length
    /// before the append; if that cut fails too, this and every later
    /// append return an error until the store is reopened.
    pub fn append(&mut self, key: StoreKey, value: &[u8]) -> std::io::Result<()> {
        if self.torn {
            return Err(std::io::Error::other(format!(
                "{} ends in a torn record that could not be cut; reopen the store",
                self.path.display()
            )));
        }
        let mut payload = Vec::with_capacity(KEY_BYTES + value.len());
        payload.extend_from_slice(&key.cell.to_le_bytes());
        payload.extend_from_slice(&key.engine.to_le_bytes());
        payload.extend_from_slice(value);
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "record payload exceeds the u32 length prefix",
            )
        })?;
        let start = self.segment.len();
        self.segment.extend_from_slice(&len.to_le_bytes());
        self.segment
            .extend_from_slice(&content_hash(&payload).to_le_bytes());
        let value_off = self.segment.len() + KEY_BYTES;
        self.segment.extend_from_slice(&payload);
        if let Err(e) = self.write_tail() {
            self.segment.truncate(start);
            return Err(e);
        }
        self.index
            .insert((key.cell, key.engine), (value_off, value.len()));
        Ok(())
    }

    /// Writes the segment bytes the file does not hold yet at its end,
    /// opening the file for appending on the first write. A failed write
    /// cuts the file back to what it held; a failed cut marks the store
    /// torn.
    fn write_tail(&mut self) -> std::io::Result<()> {
        let file = match &mut self.file {
            Some(file) => file,
            None => self.file.insert(
                OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&self.path)?,
            ),
        };
        if let Err(e) = file.write_all(&self.segment[self.durable..]) {
            self.torn = file.set_len(self.durable as u64).is_err();
            return Err(e);
        }
        self.durable = self.segment.len();
        Ok(())
    }

    /// Path of the segment file (tests truncate and corrupt it).
    pub fn segment_path(&self) -> &Path {
        &self.path
    }
}

/// Decodes the record starting at `off`. Returns the key, the value
/// span, and the offset of the next record — or `None` if the bytes from
/// `off` do not form a complete, checksum-valid record.
#[allow(clippy::type_complexity)]
fn decode_record(bytes: &[u8], off: usize) -> Option<((u64, u64), usize, usize, usize)> {
    let header_end = off.checked_add(RECORD_HEADER)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice")) as usize;
    let checksum = u64::from_le_bytes(bytes[off + 4..header_end].try_into().expect("8-byte slice"));
    let payload_end = header_end.checked_add(len)?;
    if len < KEY_BYTES || payload_end > bytes.len() {
        return None;
    }
    let payload = &bytes[header_end..payload_end];
    if content_hash(payload) != checksum {
        return None;
    }
    let cell = u64::from_le_bytes(payload[..8].try_into().expect("8-byte slice"));
    let engine = u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice"));
    Some((
        (cell, engine),
        header_end + KEY_BYTES,
        len - KEY_BYTES,
        payload_end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_spread() {
        // Pinned value: the engine fingerprint and every record checksum
        // depend on this exact construction; silently changing it would
        // orphan every stored population without a visible diff.
        assert_eq!(content_hash(b""), splitmix_finalize(0xcbf2_9ce4_8422_2325));
        assert_ne!(content_hash(b"a"), content_hash(b"b"));
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    // The embedded ENGINE_FINGERPRINT itself is pinned against an
    // independent recomputation in `tests/store.rs` (the build-script
    // construction and `content_hash` must agree byte for byte).

    #[test]
    fn write_atomic_replaces_the_destination_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("rv_store_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        let path = dir.join("rows.jsonl");
        write_atomic(&path, "one\n").expect("first write");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), "one\n");
        write_atomic(&path, "one\ntwo\n").expect("replacement write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("readable"),
            "one\ntwo\n"
        );
        assert!(
            !dir.join(".rows.jsonl.tmp").exists(),
            "the temp file must not outlive the rename"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn write_atomic_rejects_a_bare_root_path() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }
}
