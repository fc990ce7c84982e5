//! Fuzzing the segment scan behind `Store::open`: arbitrary bytes after
//! the format magic, and byte flips and truncations of a real
//! three-record segment. Whatever the bytes, the open must not panic, and
//! it must heal or refuse:
//!
//! - a file that does not start with the magic is refused and left as it
//!   is;
//! - otherwise the valid records and the dropped tail account for the
//!   whole file, every key served returns exactly the value appended for
//!   it, and a reopen after the heal drops nothing.
//!
//! "Valid" is judged by `reference_scan`, a second reading of the format
//! in `docs/STORE.md` written against the public `content_hash` alone.

use proptest::prelude::*;
use rv_store::{content_hash, Store, StoreKey};
use std::collections::BTreeMap;
use std::path::PathBuf;

const MAGIC: &[u8] = b"RVCELLS1";

/// Bytes before a record's payload: `u32` length and `u64` checksum.
const HEADER: usize = 12;

/// Bytes of a payload's key: the cell key and the engine fingerprint.
const KEY: usize = 16;

/// The records of the segment the mutations start from, in append order.
fn appended() -> Vec<(StoreKey, Vec<u8>)> {
    let key = |cell, engine| StoreKey { cell, engine };
    vec![
        (key(11, 7), b"alpha".to_vec()),
        (key(12, 7), Vec::new()),
        (key(11, 8), b"a longer third value".to_vec()),
    ]
}

/// A fresh, empty directory under `tag`. The cases of one property run
/// one after another, and each property uses its own tags.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rv_store_fuzz_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The segment the store writes for [`appended`], built through
/// `Store::append` itself in a directory under `tag`.
fn real_segment(tag: &str) -> Vec<u8> {
    let dir = fresh_dir(tag);
    let mut store = Store::open(&dir).expect("open a fresh store");
    for (key, value) in appended() {
        store.append(key, &value).expect("append");
    }
    let bytes = std::fs::read(store.segment_path()).expect("segment readable");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// An independent scan of a segment that starts with the magic: every
/// complete, checksum-valid record in file order, up to the first one
/// that is not, and the length of that valid prefix.
fn reference_scan(bytes: &[u8]) -> (Vec<(StoreKey, Vec<u8>)>, usize) {
    let mut records = Vec::new();
    let mut off = MAGIC.len();
    while let Some(header) = bytes.get(off..off + HEADER) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(header[4..].try_into().unwrap());
        let Some(payload) = bytes.get(off + HEADER..off + HEADER + len) else {
            break;
        };
        if len < KEY || content_hash(payload) != checksum {
            break;
        }
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        let key = StoreKey {
            cell: word(0),
            engine: word(8),
        };
        records.push((key, payload[KEY..].to_vec()));
        off += HEADER + len;
    }
    (records, off)
}

/// Writes `bytes` as the segment of a fresh store directory, opens it and
/// checks the contract in the module docs. When `appended` is given, the
/// file was made from those records, and every key served must return
/// the value appended for it.
fn check_open(
    tag: &str,
    bytes: &[u8],
    appended: Option<&[(StoreKey, Vec<u8>)]>,
) -> Result<(), TestCaseError> {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let segment = dir.join("segment.log");
    std::fs::write(&segment, bytes).expect("write the segment");
    let opened = Store::open(&dir);
    let on_disk = std::fs::read(&segment).expect("segment readable");
    if !bytes.starts_with(MAGIC) {
        prop_assert!(opened.is_err(), "a file without the magic was opened");
        prop_assert_eq!(on_disk, bytes, "a refused file was rewritten");
        std::fs::remove_dir_all(&dir).ok();
        return Ok(());
    }
    let store = match opened {
        Ok(store) => store,
        Err(e) => return Err(TestCaseError::Fail(format!("open failed: {e}"))),
    };
    let (records, valid) = reference_scan(bytes);
    let report = store.open_report();
    prop_assert_eq!(report.records, records.len());
    prop_assert_eq!(
        report.truncated_bytes,
        bytes.len() - valid,
        "the valid records and the dropped tail must cover the file"
    );
    prop_assert_eq!(
        &on_disk[..],
        &bytes[..valid],
        "the heal keeps the valid prefix"
    );

    // Last writer wins among the valid records.
    let expected: BTreeMap<StoreKey, Vec<u8>> = records.into_iter().collect();
    let served: BTreeMap<StoreKey, Vec<u8>> = store.iter().map(|(k, v)| (k, v.to_vec())).collect();
    prop_assert_eq!(&served, &expected);
    for (key, value) in &expected {
        prop_assert_eq!(store.get(*key), Some(&value[..]));
    }
    if let Some(appended) = appended {
        for (key, value) in &served {
            let last = appended.iter().rev().find(|(k, _)| k == key);
            prop_assert_eq!(
                last.map(|(_, v)| v),
                Some(value),
                "key {:?} serves a value that was never appended for it",
                key
            );
        }
    }

    let reopened = Store::open(&dir).expect("a healed segment reopens");
    prop_assert_eq!(reopened.open_report().truncated_bytes, 0);
    prop_assert_eq!(reopened.open_report().records, report.records);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes after the magic, behind the first `keep` records of
    /// the real segment (none to all three), so the junk lands both right
    /// after the magic and after valid records. When `framed`, the junk's
    /// length field is set to cover the rest of it, so it is one complete
    /// record that only its checksum can reject.
    #[test]
    fn arbitrary_bytes_after_the_magic_heal(
        keep in 0usize..4,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
        framed in any::<bool>(),
    ) {
        let mut tail = tail;
        if framed && tail.len() >= HEADER + KEY {
            let len = (tail.len() - HEADER) as u32;
            tail[..4].copy_from_slice(&len.to_le_bytes());
        }
        let real = real_segment("tail_real");
        let (records, _) = reference_scan(&real);
        prop_assert_eq!(&records, &appended());
        let prefix = MAGIC.len()
            + records[..keep]
                .iter()
                .map(|(_, v)| HEADER + KEY + v.len())
                .sum::<usize>();
        let mut bytes = real[..prefix].to_vec();
        bytes.extend_from_slice(&tail);
        check_open("tail", &bytes, None)?;
    }

    /// Up to three byte flips anywhere in the real segment, the magic
    /// included (then the file must be refused), followed by a
    /// truncation at any length that keeps the magic.
    #[test]
    fn flipped_and_truncated_segments_heal_or_refuse(
        flips in proptest::collection::vec(any::<u64>(), 0..4),
        cut in any::<u64>(),
    ) {
        let mut bytes = real_segment("flip_real");
        for flip in flips {
            let at = (flip >> 8) as usize % bytes.len();
            bytes[at] ^= (flip as u8).max(1);
        }
        let keep = MAGIC.len() + cut as usize % (bytes.len() - MAGIC.len() + 1);
        bytes.truncate(keep);
        check_open("flip", &bytes, Some(&appended()))?;
    }
}
