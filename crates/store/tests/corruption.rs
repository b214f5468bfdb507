//! Corruption and staleness: every way an entry can rot on disk must
//! read as a loud discard — never a wrong report, never a panic — and
//! the job must re-execute and re-publish cleanly.
//!
//! Entry envelope layout exercised below (little-endian):
//!
//! ```text
//! 0..8    u64 length of the magic (8)
//! 8..16   ENTRY_MAGIC
//! 16..20  u32 STORE_FORMAT_VERSION
//! 20..24  u32 SNAPSHOT_VERSION
//! 24..28  u32 entry kind (report or snapshot)
//! 28..    key (length-prefixed), payload (length-prefixed), checksum
//! ```

use std::sync::Arc;

use triangel_harness::{JobSpec, RunParams, Sweep, SweepOptions, WorkloadSpec};
use triangel_sim::{PrefetcherChoice, SNAPSHOT_VERSION};
use triangel_store::{report_to_bytes, ResultStore, STORE_FORMAT_VERSION};
use triangel_workloads::spec::SpecWorkload;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "triangel-store-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_job() -> JobSpec {
    JobSpec::new(
        WorkloadSpec::Spec(SpecWorkload::Xalan),
        PrefetcherChoice::Triangel,
        RunParams {
            warmup: 500,
            accesses: 500,
            sizing_window: 250,
            seed: 7,
        },
    )
}

#[test]
fn entry_round_trips_bit_for_bit() {
    let dir = temp_dir("roundtrip");
    let store = ResultStore::open(&dir).unwrap();
    let job = tiny_job();
    let report = job.run().unwrap();

    assert!(store.get(&job.key()).is_none());
    store.put(&job.key(), &report);
    let back = store
        .get(&job.key())
        .expect("published entry must read back");
    assert_eq!(
        report_to_bytes(&back),
        report_to_bytes(&report),
        "store round-trip must preserve the report bit-for-bit"
    );
    assert_eq!(store.stats().misses(), 1);
    assert_eq!(store.stats().inserts(), 1);
    assert_eq!(store.stats().hits(), 1);
    assert_eq!(store.stats().discards(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Publishes the tiny job and returns (store, key, entry path).
fn published(tag: &str) -> (ResultStore, String, std::path::PathBuf) {
    let store = ResultStore::open(temp_dir(tag)).unwrap();
    let job = tiny_job();
    store.put(&job.key(), &job.run().unwrap());
    let path = store.entry_path(&job.key());
    assert!(path.exists());
    (store, job.key(), path)
}

/// The common assertion: a rotten entry reads as a miss, counts a
/// discard, and is unlinked so the next publish starts fresh.
fn assert_discarded(store: &ResultStore, key: &str, path: &std::path::Path, what: &str) {
    assert!(
        store.get(key).is_none(),
        "{what} entry must read as a miss, not a report"
    );
    assert_eq!(
        store.stats().discards(),
        1,
        "{what} entry must count a discard"
    );
    assert!(!path.exists(), "{what} entry must be unlinked on discard");
}

#[test]
fn truncated_entry_is_discarded_and_reexecuted() {
    let (store, key, path) = published("truncated");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert_discarded(&store, &key, &path, "truncated");

    // The discard heals through normal execution: a sweep over the
    // same store misses, re-runs the job, and re-publishes.
    let report = Sweep::new()
        .job(tiny_job())
        .run(&SweepOptions::serial().with_store(Arc::new(ResultStore::open(store.dir()).unwrap())));
    assert_eq!(report.stats.executed, 1, "corrupt entry must re-execute");
    assert!(
        store.get(&key).is_some(),
        "re-execution must re-publish the entry"
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn bit_flip_in_payload_fails_the_checksum() {
    let (store, key, path) = published("bitflip");
    let mut bytes = std::fs::read(&path).unwrap();
    // The final 8 bytes are the checksum; the payload ends just before
    // them. Flip one payload byte so the checksum catches it.
    let idx = bytes.len() - 9;
    bytes[idx] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert_discarded(&store, &key, &path, "bit-flipped");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn wrong_snapshot_version_is_stale() {
    let (store, key, path) = published("stale-snapshot");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[20..24].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_discarded(&store, &key, &path, "stale-snapshot");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn wrong_store_format_is_stale() {
    let (store, key, path) = published("stale-format");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16..20].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_discarded(&store, &key, &path, "stale-format");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn garbage_magic_is_discarded() {
    let (store, key, path) = published("magic");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..16].copy_from_slice(b"NOTMAGIC");
    std::fs::write(&path, &bytes).unwrap();
    assert_discarded(&store, &key, &path, "bad-magic");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn snapshot_entry_never_reads_as_a_report() {
    // A checkpoint entry shares the report envelope but carries the
    // other kind tag: moved into a report slot, it must discard, not
    // decode.
    let dir = temp_dir("wrong-kind");
    let store = ResultStore::open(&dir).unwrap();
    let key = tiny_job().key();
    store.put_snapshot(&key, b"session snapshot bytes");
    assert_eq!(
        store.get_snapshot(&key).as_deref(),
        Some(&b"session snapshot bytes"[..])
    );
    let snap = std::fs::read_dir(dir.join("snaps"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let path = store.entry_path(&key);
    std::fs::copy(&snap, &path).unwrap();
    assert_discarded(&store, &key, &path, "wrong-kind");
    let _ = std::fs::remove_dir_all(&dir);
}
