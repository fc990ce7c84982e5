//! Store-layer contract tests: torn-final-record recovery, cold index
//! rebuild ≡ live index, duplicate-key last-writer-wins, in-place appends,
//! foreign-file refusal, and the engine fingerprint pinned against an
//! independent recomputation of the build-script digest.

use rv_store::{content_hash, Store, StoreKey, ENGINE_FINGERPRINT, ENGINE_FINGERPRINT_FILES};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rv_store_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(cell: u64, engine: u64) -> StoreKey {
    StoreKey { cell, engine }
}

#[test]
fn round_trips_values_by_key() {
    let dir = tmp_dir("roundtrip");
    let mut store = Store::open(&dir).expect("open fresh store");
    assert!(store.is_empty());
    store.append(key(1, 10), b"alpha").expect("append");
    store.append(key(2, 10), b"beta").expect("append");
    store.append(key(1, 11), b"gamma").expect("append");
    assert_eq!(store.len(), 3);
    assert_eq!(store.get(key(1, 10)), Some(&b"alpha"[..]));
    assert_eq!(store.get(key(2, 10)), Some(&b"beta"[..]));
    assert_eq!(store.get(key(1, 11)), Some(&b"gamma"[..]));
    assert_eq!(
        store.get(key(1, 12)),
        None,
        "a different engine fingerprint must miss"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_index_rebuild_equals_the_live_index() {
    let dir = tmp_dir("rebuild");
    let mut live = Store::open(&dir).expect("open fresh store");
    for i in 0..50u64 {
        live.append(key(i % 17, i % 3), format!("value-{i}").as_bytes())
            .expect("append");
    }
    let live_view: Vec<(StoreKey, Vec<u8>)> = live.iter().map(|(k, v)| (k, v.to_vec())).collect();

    let cold = Store::open(&dir).expect("reopen scans the segment");
    assert_eq!(cold.open_report().truncated_bytes, 0);
    assert_eq!(cold.open_report().records, 50, "every record scanned");
    let cold_view: Vec<(StoreKey, Vec<u8>)> = cold.iter().map(|(k, v)| (k, v.to_vec())).collect();
    assert_eq!(
        live_view, cold_view,
        "an index rebuilt from a cold scan must equal the live index"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_key_appends_resolve_last_writer_wins() {
    let dir = tmp_dir("lww");
    let mut store = Store::open(&dir).expect("open fresh store");
    store.append(key(7, 1), b"first").expect("append");
    store.append(key(7, 1), b"second").expect("append");
    store.append(key(7, 1), b"third").expect("append");
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(key(7, 1)), Some(&b"third"[..]));

    // The same resolution must hold after a cold rebuild: the scan sees
    // all three records in append order and keeps the last.
    let cold = Store::open(&dir).expect("reopen");
    assert_eq!(cold.open_report().records, 3);
    assert_eq!(cold.len(), 1);
    assert_eq!(cold.get(key(7, 1)), Some(&b"third"[..]));
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating the segment anywhere inside the final record — one byte
/// short, mid-payload, or mid-header — must recover every earlier record
/// and drop only the torn tail; the file self-heals so a reopen is clean.
#[test]
fn torn_final_record_truncates_and_continues() {
    for cut in [1usize, 5, 20] {
        let dir = tmp_dir(&format!("torn{cut}"));
        let mut store = Store::open(&dir).expect("open fresh store");
        store.append(key(1, 1), b"one").expect("append");
        store.append(key(2, 1), b"two").expect("append");
        store.append(key(3, 1), b"three").expect("append");
        let seg = store.segment_path().to_path_buf();
        let bytes = std::fs::read(&seg).expect("segment readable");
        std::fs::write(&seg, &bytes[..bytes.len() - cut]).expect("truncate tail");

        let recovered = Store::open(&dir).expect("open tolerates a torn tail");
        assert_eq!(recovered.open_report().records, 2);
        assert!(
            recovered.open_report().truncated_bytes > 0,
            "the torn tail must be reported"
        );
        assert_eq!(recovered.get(key(1, 1)), Some(&b"one"[..]));
        assert_eq!(recovered.get(key(2, 1)), Some(&b"two"[..]));
        assert_eq!(recovered.get(key(3, 1)), None, "the torn cell is gone");

        // Truncate-and-continue: the next append lands after the valid
        // prefix, and a further reopen sees a clean segment.
        let mut recovered = recovered;
        recovered
            .append(key(3, 1), b"three-again")
            .expect("append after recovery");
        let clean = Store::open(&dir).expect("reopen after heal");
        assert_eq!(clean.open_report().truncated_bytes, 0, "open self-heals");
        assert_eq!(clean.len(), 3);
        assert_eq!(clean.get(key(3, 1)), Some(&b"three-again"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An append writes its record in place at the end of the segment: the
/// bytes already on disk stay as they were, and the file grows by exactly
/// the record (length and checksum header, the two key words, the value).
#[test]
fn append_grows_the_segment_by_its_record_and_keeps_the_earlier_bytes() {
    let dir = tmp_dir("in_place");
    let mut store = Store::open(&dir).expect("open fresh store");
    store.append(key(1, 1), b"first").expect("append");
    let seg = store.segment_path().to_path_buf();
    let before = std::fs::read(&seg).expect("segment readable");
    let value = b"second, a little longer";
    store.append(key(2, 1), value).expect("append");
    let after = std::fs::read(&seg).expect("segment readable");
    assert_eq!(after.len(), before.len() + 4 + 8 + 16 + value.len());
    assert_eq!(
        &after[..before.len()],
        &before[..],
        "earlier bytes untouched"
    );
    assert_eq!(&after[after.len() - value.len()..], &value[..]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Opening a clean store only reads it: an empty directory gets no
/// segment until the first append, and a store whose directory and
/// segment are read-only opens and serves its records.
#[cfg(unix)]
#[test]
fn opening_a_clean_store_only_reads_it() {
    use std::os::unix::fs::PermissionsExt;
    let dir = tmp_dir("read_only");
    let store = Store::open(&dir).expect("open fresh store");
    assert!(
        !store.segment_path().exists(),
        "open writes no empty segment"
    );
    let mut store = store;
    store.append(key(1, 1), b"one").expect("append");
    let seg = store.segment_path().to_path_buf();
    let mode = |path: &Path, mode| {
        std::fs::set_permissions(path, std::fs::Permissions::from_mode(mode)).expect("chmod");
    };
    mode(&seg, 0o444);
    mode(&dir, 0o555);
    let reopened = Store::open(&dir);
    mode(&dir, 0o755);
    mode(&seg, 0o644);
    let reopened = reopened.expect("a clean read-only store opens");
    assert_eq!(reopened.get(key(1, 1)), Some(&b"one"[..]));
    std::fs::remove_dir_all(&dir).ok();
}

/// An append whose write fails and whose cut back fails too leaves a
/// torn record behind: the store refuses every later append (each would
/// land after the torn bytes, where the next open drops it) until it is
/// reopened, which heals the tail. The segment is swapped for a symlink to
/// `/dev/full`, where every write fails and `set_len` is refused.
#[cfg(target_os = "linux")]
#[test]
fn a_torn_append_that_cannot_be_cut_back_refuses_later_appends() {
    let dir = tmp_dir("torn_append");
    let mut store = Store::open(&dir).expect("open fresh store");
    store.append(key(1, 1), b"one").expect("append");
    drop(store);
    let mut store = Store::open(&dir).expect("reopen");
    let seg = store.segment_path().to_path_buf();
    let kept = dir.join("kept.log");
    std::fs::rename(&seg, &kept).expect("move the segment aside");
    std::os::unix::fs::symlink("/dev/full", &seg).expect("symlink");
    assert!(store.append(key(2, 1), b"two").is_err(), "the write fails");
    std::fs::remove_file(&seg).expect("remove symlink");
    std::fs::rename(&kept, &seg).expect("restore the segment");
    assert_eq!(
        store.get(key(2, 1)),
        None,
        "the failed record is not served"
    );
    assert_eq!(store.get(key(1, 1)), Some(&b"one"[..]));
    let refused = store
        .append(key(3, 1), b"three")
        .expect_err("appends are refused");
    assert!(
        refused.to_string().contains("torn record"),
        "refused as torn, not by the device: {refused}"
    );
    let mut store = Store::open(&dir).expect("reopen heals");
    store
        .append(key(3, 1), b"three")
        .expect("append after reopen");
    let clean = Store::open(&dir).expect("reopen");
    assert_eq!(clean.len(), 2);
    assert_eq!(clean.get(key(3, 1)), Some(&b"three"[..]));
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte mid-record fails that record's checksum; the scan keeps
/// the prefix before it (append-only writers only ever tear the tail, so
/// everything after a bad record is unreachable and dropped).
#[test]
fn checksum_mismatch_ends_the_valid_prefix() {
    let dir = tmp_dir("checksum");
    let mut store = Store::open(&dir).expect("open fresh store");
    store.append(key(1, 1), b"aaaa").expect("append");
    store.append(key(2, 1), b"bbbb").expect("append");
    let seg = store.segment_path().to_path_buf();
    let mut bytes = std::fs::read(&seg).expect("segment readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // corrupt the final record's payload
    std::fs::write(&seg, &bytes).expect("write corrupted segment");

    let recovered = Store::open(&dir).expect("open tolerates corruption");
    assert_eq!(recovered.open_report().records, 1);
    assert_eq!(recovered.get(key(1, 1)), Some(&b"aaaa"[..]));
    assert_eq!(recovered.get(key(2, 1)), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_segment_files_are_refused_not_misread() {
    let dir = tmp_dir("foreign");
    std::fs::create_dir_all(&dir).expect("dir");
    std::fs::write(dir.join("segment.log"), b"{\"not\":\"a segment\"}").expect("write");
    assert!(
        Store::open(&dir).is_err(),
        "a file without the segment magic must be refused"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Recomputes the build script's digest independently (same walk, same
/// FNV-1a + SplitMix64 construction, via the public `content_hash`) and
/// pins the embedded constant to it: if `build.rs` and `content_hash`
/// ever drift apart, stored populations would be orphaned silently.
#[test]
fn engine_fingerprint_matches_an_independent_recomputation() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/store has a parent")
        .to_path_buf();
    let mut files: Vec<PathBuf> = Vec::new();
    for name in [
        "arith",
        "core",
        "explore",
        "graph",
        "protocols",
        "sim",
        "trajectory",
    ] {
        collect(&crates_dir.join(name).join("src"), &mut files);
    }
    files.sort();
    assert_eq!(
        files.len(),
        ENGINE_FINGERPRINT_FILES,
        "the digest must cover exactly the engine sources"
    );
    let mut buffer = Vec::new();
    for file in &files {
        let rel: Vec<String> = file
            .strip_prefix(&crates_dir)
            .expect("under crates/")
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        buffer.extend_from_slice(rel.join("/").as_bytes());
        buffer.push(0);
        buffer.extend_from_slice(&std::fs::read(file).expect("engine source readable"));
        buffer.push(0);
    }
    assert_eq!(
        content_hash(&buffer),
        ENGINE_FINGERPRINT,
        "build.rs digest construction drifted from rv_store::content_hash"
    );
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("engine src dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
