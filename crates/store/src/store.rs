//! The content-addressed on-disk result store.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use triangel_obs::{Probe, ProbeSet};
use triangel_sim::{RunReport, SNAPSHOT_VERSION};
use triangel_types::hash::{fnv1a, FNV_OFFSET};
use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter};

use crate::flock;
use crate::framing::{report_from_bytes, report_to_bytes};

/// Magic opening every store entry file.
pub const ENTRY_MAGIC: [u8; 8] = *b"TRGLSTO\0";

/// Version of the store entry envelope itself (the framing around the
/// persisted payload). Bumped when the envelope layout or its hash
/// changes. v2 hashes with the standard FNV-1a prime and tags each
/// entry with its kind (report or snapshot).
pub const STORE_FORMAT_VERSION: u32 = 2;

/// What an entry holds, and where. The tag is written into the
/// envelope, so a snapshot can never be read back as a report, nor a
/// report as a snapshot.
#[derive(Debug, Clone, Copy)]
struct Kind {
    tag: u32,
    dir: &'static str,
    ext: &'static str,
}

/// A finished job's framed [`RunReport`]: `entries/<stem>.rpt`.
const REPORT: Kind = Kind {
    tag: 1,
    dir: "entries",
    ext: "rpt",
};

/// An in-flight job's latest session snapshot: `snaps/<stem>.snap`.
const SNAPSHOT: Kind = Kind {
    tag: 2,
    dir: "snaps",
    ext: "snap",
};

/// FNV-1a over the job key, truncated to `mask`: the file stem of the
/// key's entries.
fn key_stem(key: &str, mask: u64) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, key.as_bytes()) & mask)
}

/// Distinguishes the temp files of concurrent writers in one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with the concatenation of `parts` (write
/// to a sibling temp file, then rename), so a kill mid-write never
/// corrupts an entry. The temp name is unique per writer (pid plus a
/// process-wide counter): two writers of one key never truncate each
/// other's file. The parent directory is fsynced after the rename, so
/// a published entry survives power loss along with its contents.
fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}.{seq}.tmp", std::process::id()));
    let written = File::create(&tmp)
        .and_then(|mut f| {
            for part in parts {
                f.write_all(part)?;
            }
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| File::open(path.parent().unwrap_or(Path::new(".")))?.sync_all());
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Store traffic counters. All monotonic; shared across every thread
/// using one [`ResultStore`] handle.
#[derive(Debug, Default)]
pub struct StoreStats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    discards: AtomicU64,
}

impl StoreStats {
    /// Report lookups satisfied from a persisted entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Report lookups that found no usable entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Reports published (one per job executed against this handle).
    /// Snapshot checkpoints are not counted.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Corrupt or stale entries discarded, reports and snapshots alike
    /// (each discarded job re-executes from its last good state).
    pub fn discards(&self) -> u64 {
        self.discards.load(Ordering::Relaxed)
    }

    /// The standard one-line rendering, e.g. for stderr summaries:
    /// `hits=3 misses=14 inserts=14 discards=0`.
    pub fn render(&self) -> String {
        format!(
            "hits={} misses={} inserts={} discards={}",
            self.hits(),
            self.misses(),
            self.inserts(),
            self.discards()
        )
    }
}

impl Probe for StoreStats {
    fn probe(&self, out: &mut ProbeSet) {
        out.record("hits", self.hits());
        out.record("misses", self.misses());
        out.record("inserts", self.inserts());
        out.record("discards", self.discards());
    }
}

/// The outcome of [`ResultStore::claim_blocking`].
pub enum Claim<'a> {
    /// Another writer published the job while we waited; here is its
    /// report.
    Hit(Arc<RunReport>),
    /// We hold the job: execute it and [`JobLease::publish`] the
    /// report. Dropping the lease unpublished releases the job for the
    /// next claimant.
    Lease(JobLease<'a>),
}

/// Exclusive right to execute one job, backed by an `flock` on the
/// job's lock file. Held for the duration of the simulation; the lock
/// releases when the lease drops (including on panic or process
/// death), so a crashed writer never wedges the store.
pub struct JobLease<'a> {
    store: &'a ResultStore,
    key: String,
    // Held only for its flock; dropping it releases the lock.
    _lock: File,
}

impl JobLease<'_> {
    /// The claimed job's content key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Publishes the finished report under the leased key, then
    /// releases the lock. Publish-before-unlock is the exactly-once
    /// guarantee: a writer blocked on our lock re-checks the store the
    /// moment it acquires it, and finds this entry.
    pub fn publish(self, report: &RunReport) {
        self.store.put(&self.key, report);
    }
}

/// An on-disk, content-addressed result store shared across processes.
///
/// Maps a [`JobSpec` content key](crate) (the same string the
/// in-process `ResultCache` uses) to a framed [`RunReport`], interval
/// series included, and — for the campaign runner — to the latest
/// session snapshot of a job still in flight. Layout under the store
/// directory:
///
/// * `entries/<stem>.rpt` — one finished report per job, `<stem>` the
///   FNV-1a of the key.
/// * `snaps/<stem>.snap` — the latest checkpoint of an in-flight job,
///   removed once its report is published.
/// * `locks/<stem>.lock` — empty `flock(2)` rendezvous files for
///   cross-process claim coordination.
/// * `store.meta` — human-readable version banner.
///
/// Reports and snapshots share one envelope: magic, versions, the
/// entry kind, the full key (collision guard), the payload and a
/// payload checksum. Every entry is written atomically (temp + rename).
/// Entries record both [`STORE_FORMAT_VERSION`] and the simulator's
/// [`SNAPSHOT_VERSION`]: an entry written by a build whose simulation
/// semantics differ is *stale*, discarded loudly, and re-executed, as
/// is any corrupt entry.
///
/// Distinct keys can hash to the same stem. Colliding keys probe
/// suffixed slots (`entries/<stem>-1.rpt`, `-2`, … up to
/// [`MAX_STEM_PROBES`]): a read walks the slots until it finds its own
/// key or an absent file, and a write lands in the first slot that is
/// free, corrupt, or already holds its key. Both colliding keys
/// therefore stay cached instead of overwriting each other on every
/// publish.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StoreStats,
    stem_mask: u64,
}

/// Slots probed per stem before a publish falls back to overwriting
/// the last slot. Real fnv64 collisions are vanishingly rare; the
/// bound only caps pathological stores.
pub const MAX_STEM_PROBES: usize = 8;

/// Bytes read to recognize an entry's key from its header. Keys are
/// far shorter; a longer header just falls back to a full read.
const HEADER_PROBE: u64 = 4096;

impl ResultStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the layout.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with_stem_bits(dir, 64)
    }

    /// Like [`ResultStore::open`], but truncates stem hashes to the low
    /// `bits` bits. This is a fault-injection knob: with a tiny width
    /// (even 0), arbitrary keys collide on the same stem, making the
    /// suffix-probing collision path testable without hunting for real
    /// 64-bit fnv collisions. Production callers use [`ResultStore::open`]
    /// (full width). Stores opened at different widths must not share a
    /// directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the layout.
    pub fn open_with_stem_bits(dir: impl Into<PathBuf>, bits: u32) -> io::Result<ResultStore> {
        let stem_mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let dir = dir.into();
        for sub in [REPORT.dir, SNAPSHOT.dir, "locks"] {
            std::fs::create_dir_all(dir.join(sub))?;
        }
        let meta_path = dir.join("store.meta");
        let banner =
            format!("triangel-store v{STORE_FORMAT_VERSION} snapshot={SNAPSHOT_VERSION}\n");
        match std::fs::read_to_string(&meta_path) {
            Ok(existing) if existing == banner => {}
            Ok(existing) => {
                eprintln!(
                    "[store] version banner changed ({} -> {}); stale entries will be \
                     discarded as they are touched",
                    existing.trim(),
                    banner.trim()
                );
                write_atomic(&meta_path, &[banner.as_bytes()])?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_atomic(&meta_path, &[banner.as_bytes()])?;
            }
            Err(e) => return Err(e),
        }
        Ok(ResultStore {
            dir,
            stats: StoreStats::default(),
            stem_mask,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This handle's traffic counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    fn stem(&self, key: &str) -> String {
        key_stem(key, self.stem_mask)
    }

    /// The report entry file for `key`'s first probe slot (colliding
    /// keys may live in suffixed siblings; see the type docs).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.slot_path(REPORT, &self.stem(key), 0)
    }

    fn slot_path(&self, kind: Kind, stem: &str, slot: usize) -> PathBuf {
        let ext = kind.ext;
        let name = if slot == 0 {
            format!("{stem}.{ext}")
        } else {
            format!("{stem}-{slot}.{ext}")
        };
        self.dir.join(kind.dir).join(name)
    }

    fn lock_path(&self, key: &str) -> PathBuf {
        self.dir
            .join("locks")
            .join(format!("{}.lock", self.stem(key)))
    }

    /// Looks up `key`, counting a hit or a miss. Corrupt or stale
    /// entries are discarded loudly and read as a miss — the caller
    /// re-executes the job, and the fresh publish replaces the entry.
    pub fn get(&self, key: &str) -> Option<Arc<RunReport>> {
        let found = self.read_report(key);
        if found.is_some() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Publishes a finished report under `key` (atomic replace), into
    /// the first probe slot that is absent, corrupt, or already ours —
    /// never over another key's valid entry (unless every slot is
    /// taken by colliding keys, where the last slot is sacrificed).
    pub fn put(&self, key: &str, report: &RunReport) {
        if self.write(REPORT, key, &report_to_bytes(report)) {
            self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The latest checkpoint saved for `key` by
    /// [`ResultStore::put_snapshot`]: the bytes of a
    /// `SimSession::snapshot`. A corrupt or stale snapshot entry is
    /// discarded loudly (counted in [`StoreStats::discards`]) and reads
    /// as absent, so the job re-runs from its first access. Neither a
    /// hit nor a miss is counted.
    pub fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.read(SNAPSHOT, key, |payload| Ok(payload.to_vec()))
    }

    /// Saves `snapshot` as `key`'s latest checkpoint (atomic replace),
    /// probing slots like [`ResultStore::put`].
    pub fn put_snapshot(&self, key: &str, snapshot: &[u8]) {
        self.write(SNAPSHOT, key, snapshot);
    }

    /// Removes `key`'s checkpoint, if any: called once the job's report
    /// is published.
    pub fn remove_snapshot(&self, key: &str) {
        let path = self.free_slot(SNAPSHOT, key);
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                eprintln!("[store] cannot remove snapshot for {key}: {e}");
            }
            _ => {}
        }
    }

    /// Claims the right to execute `key`, blocking on the job's lock
    /// until it is free. Call this after a missed [`ResultStore::get`]:
    /// if another writer (thread or process) published the entry while
    /// we waited for the lock, the claim resolves to [`Claim::Hit`]
    /// without executing anything; otherwise the returned lease holds
    /// the lock until the report is published (or the lease dropped).
    ///
    /// Exactly-once follows from the publish-before-unlock ordering in
    /// [`JobLease::publish`] plus this re-check under the lock.
    ///
    /// # Errors
    ///
    /// Filesystem or `flock` errors; callers may fall back to plain
    /// (uncoordinated) execution.
    pub fn claim_blocking(&self, key: &str) -> io::Result<Claim<'_>> {
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.lock_path(key))?;
        flock::lock_exclusive(&lock)?;
        // Under the lock: did whoever held it before us publish?
        if let Some(report) = self.read_report(key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Claim::Hit(report));
        }
        Ok(Claim::Lease(JobLease {
            store: self,
            key: key.to_string(),
            _lock: lock,
        }))
    }

    fn read_report(&self, key: &str) -> Option<Arc<RunReport>> {
        self.read(REPORT, key, |payload| {
            report_from_bytes(payload).map(Arc::new)
        })
    }

    /// Reads, validates and decodes `key`'s entry of `kind`, without
    /// counting hits or misses. Probes the stem's suffixed slots past
    /// colliding keys' entries (which stay untouched) until it finds
    /// its own key or an absent slot. An entry that fails validation or
    /// `decode` is discarded: counted, unlinked, and read as absent.
    fn read<T>(
        &self,
        kind: Kind,
        key: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, SnapError>,
    ) -> Option<T> {
        let stem = self.stem(key);
        for probe in 0..MAX_STEM_PROBES {
            let path = self.slot_path(kind, &stem, probe);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                // A write always lands in the first non-foreign slot,
                // so an absent slot proves the key is not stored.
                Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
                Err(e) => {
                    eprintln!("[store] unreadable entry for {key}: {e}");
                    return None;
                }
            };
            let decoded = match unseal(kind, &bytes).and_then(Envelope::verified) {
                Ok(entry) if entry.key == key => decode(entry.payload),
                Ok(_) => {
                    // A different key hashed to this stem: someone
                    // else's valid entry. Leave it alone and probe the
                    // next suffixed slot; both keys stay cached.
                    eprintln!(
                        "[store] key-stem collision on {stem} (slot {probe}): probing next slot"
                    );
                    continue;
                }
                Err(e) => Err(e),
            };
            return match decoded {
                Ok(value) => Some(value),
                Err(e) => {
                    self.stats.discards.fetch_add(1, Ordering::Relaxed);
                    eprintln!("[store] discarding entry for {key}: {e} (will re-execute)");
                    let _ = std::fs::remove_file(&path);
                    None
                }
            };
        }
        None
    }

    /// The slot `key`'s entry of `kind` is written to: the first one
    /// that is absent, corrupt, or already ours — never another key's
    /// valid entry, unless every slot holds one (then the last slot).
    fn free_slot(&self, kind: Kind, key: &str) -> PathBuf {
        let stem = self.stem(key);
        let foreign = |path: &Path| {
            let Ok(mut file) = File::open(path) else {
                return false;
            };
            // Our own entry is about to be replaced: its header is
            // enough to recognize it, so the payload is neither read
            // nor checksummed. Only another key's entry must prove
            // valid.
            let mut bytes = Vec::new();
            let head = (&mut file).take(HEADER_PROBE).read_to_end(&mut bytes);
            if head.is_err()
                || read_header(&mut SnapReader::new(&bytes), kind).is_ok_and(|k| k == key)
            {
                return false;
            }
            file.read_to_end(&mut bytes).is_ok()
                && unseal(kind, &bytes).is_ok_and(|e| e.key != key && e.verified().is_ok())
        };
        for probe in 0..MAX_STEM_PROBES - 1 {
            let path = self.slot_path(kind, &stem, probe);
            if !foreign(&path) {
                return path;
            }
        }
        self.slot_path(kind, &stem, MAX_STEM_PROBES - 1)
    }

    /// Writes `payload` as `key`'s entry of `kind`; whether it landed.
    fn write(&self, kind: Kind, key: &str, payload: &[u8]) -> bool {
        let path = self.free_slot(kind, key);
        let checksum = fnv1a(FNV_OFFSET, payload).to_le_bytes();
        match write_atomic(
            &path,
            &[&envelope_head(kind, key, payload), payload, &checksum],
        ) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("[store] publish failed for {key}: {e}");
                false
            }
        }
    }
}

impl Probe for ResultStore {
    fn probe(&self, out: &mut ProbeSet) {
        self.stats.probe(out);
    }
}

/// The envelope fields before an entry's payload: magic, versions,
/// kind, key, and the payload's length prefix. The payload and its
/// checksum follow, so the entry reads back as
/// `magic, versions, kind, key, bytes(payload), u64 checksum`.
fn envelope_head(kind: Kind, key: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.bytes(&ENTRY_MAGIC);
    w.u32(STORE_FORMAT_VERSION);
    w.u32(SNAPSHOT_VERSION);
    w.u32(kind.tag);
    w.str(key);
    w.usize(payload.len());
    w.into_bytes()
}

/// A parsed entry envelope whose checksum is not yet checked.
struct Envelope<'a> {
    key: String,
    payload: &'a [u8],
    checksum: u64,
}

impl Envelope<'_> {
    /// The envelope, if its payload matches the checksum.
    fn verified(self) -> Result<Self, SnapError> {
        snap_check(
            self.checksum == fnv1a(FNV_OFFSET, self.payload),
            "entry checksum mismatch",
        )?;
        Ok(self)
    }
}

/// Reads an envelope up to and including the key, checking the magic,
/// both versions and the kind.
fn read_header(r: &mut SnapReader<'_>, kind: Kind) -> Result<String, SnapError> {
    snap_check(r.bytes()? == ENTRY_MAGIC, "bad entry magic")?;
    for expected in [STORE_FORMAT_VERSION, SNAPSHOT_VERSION] {
        let found = r.u32()?;
        if found != expected {
            return Err(SnapError::Version { found, expected });
        }
    }
    snap_check(r.u32()? == kind.tag, "wrong entry kind")?;
    r.str()
}

/// Parses an entry envelope of `kind`. Errors mean the entry is
/// corrupt, stale, or of the other kind, and must be discarded.
fn unseal(kind: Kind, bytes: &[u8]) -> Result<Envelope<'_>, SnapError> {
    let mut r = SnapReader::new(bytes);
    let key = read_header(&mut r, kind)?;
    let payload = r.bytes()?;
    let checksum = r.u64()?;
    r.finish()?;
    Ok(Envelope {
        key,
        payload,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stem_is_pinned() {
        // Entry file names are on-disk format: a store must keep
        // resolving a key to the same stem within one format version.
        assert_eq!(
            key_stem("spec:Xalan|pf=Triangel", u64::MAX),
            "068aa1b3c262d9f1"
        );
    }
}
