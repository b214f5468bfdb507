//! The content-addressed on-disk result store.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use triangel_obs::{Probe, ProbeSet};
use triangel_sim::{RunReport, SNAPSHOT_VERSION};
use triangel_types::hash::{fnv1a_with_prime, FNV_OFFSET};
use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter};

use crate::flock;
use crate::framing::{report_from_bytes, report_to_bytes};

/// Magic opening every store entry file.
pub const ENTRY_MAGIC: [u8; 8] = *b"TRGLSTO\0";

/// Version of the store entry envelope itself (the framing around the
/// persisted report). Bumped when the envelope layout changes.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// FNV-1a over the job key: the stable file stem for a job's
/// artifacts. Shared with the campaign runner so a campaign directory
/// and a store directory name the same job the same way.
pub fn key_stem(key: &str) -> String {
    format!("{:016x}", store_hash(key.as_bytes()))
}

/// The multiplier of the store's FNV-1a variant: `0x1000_0000_01b3`,
/// one zero nibble wider than the standard [`FNV_PRIME`]. Every entry
/// stem and checksum on disk was written with it, so it can only change
/// together with [`STORE_FORMAT_VERSION`].
///
/// [`FNV_PRIME`]: triangel_types::hash::FNV_PRIME
const STORE_FNV_PRIME: u64 = 0x1000_0000_01b3;

/// The store's 64-bit hash: entry stems and entry payload checksums.
fn store_hash(bytes: &[u8]) -> u64 {
    fnv1a_with_prime(STORE_FNV_PRIME, FNV_OFFSET, bytes)
}

/// Atomically replaces `path` with `bytes` (write to a sibling temp
/// file, then rename), so a kill mid-write never corrupts an artifact.
///
/// # Errors
///
/// The underlying filesystem error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
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
    /// Lookups satisfied from a persisted entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no usable entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries published (one per job executed against this handle).
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Corrupt or stale entries discarded (each one was re-executed).
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
/// series included. Layout under the store directory:
///
/// * `entries/<stem>.rpt` — one entry per job, `<stem>` the FNV-1a of
///   the key ([`key_stem`]). Written atomically (temp + rename) and
///   self-checking: envelope magic + versions, the full key (collision
///   guard), and a payload checksum.
/// * `locks/<stem>.lock` — empty `flock(2)` rendezvous files for
///   cross-process claim coordination.
/// * `store.meta` — human-readable version banner.
///
/// Entries record both [`STORE_FORMAT_VERSION`] and the simulator's
/// [`SNAPSHOT_VERSION`]: an entry written by a build whose simulation
/// semantics differ is *stale*, discarded loudly, and re-executed —
/// the same resume semantics the campaign runner pins.
///
/// Distinct keys can hash to the same stem. Colliding keys probe
/// suffixed slots (`entries/<stem>-1.rpt`, `-2`, … up to
/// [`MAX_STEM_PROBES`]): a read walks the slots until it finds its own
/// key or an absent file, and a publish lands in the first slot that
/// is free or already holds its key. Both colliding keys therefore
/// stay cached instead of overwriting each other on every publish.
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
        std::fs::create_dir_all(dir.join("entries"))?;
        std::fs::create_dir_all(dir.join("locks"))?;
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
                write_atomic(&meta_path, banner.as_bytes())?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_atomic(&meta_path, banner.as_bytes())?;
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
        format!("{:016x}", store_hash(key.as_bytes()) & self.stem_mask)
    }

    /// The entry file for `key`'s first probe slot (colliding keys may
    /// live in suffixed siblings; see the type docs).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.slot_path(&self.stem(key), 0)
    }

    fn slot_path(&self, stem: &str, slot: usize) -> PathBuf {
        let name = if slot == 0 {
            format!("{stem}.rpt")
        } else {
            format!("{stem}-{slot}.rpt")
        };
        self.dir.join("entries").join(name)
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
        let found = self.read_entry(key);
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
        let stem = self.stem(key);
        let mut slot = MAX_STEM_PROBES - 1;
        for probe in 0..MAX_STEM_PROBES {
            match std::fs::read(self.slot_path(&stem, probe)) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    slot = probe;
                    break;
                }
                Ok(bytes) => match entry_from_bytes(key, &bytes) {
                    Ok(None) => continue, // another key's valid entry
                    Ok(Some(_)) | Err(_) => {
                        slot = probe;
                        break;
                    }
                },
                Err(_) => {
                    slot = probe;
                    break;
                }
            }
        }
        let path = self.slot_path(&stem, slot);
        match write_atomic(&path, &entry_to_bytes(key, report)) {
            Ok(()) => {
                self.stats.inserts.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("[store] publish failed for {key}: {e}"),
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
        if let Some(report) = self.read_entry(key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Claim::Hit(report));
        }
        Ok(Claim::Lease(JobLease {
            store: self,
            key: key.to_string(),
            _lock: lock,
        }))
    }

    /// Reads and validates the entry for `key`, without counting.
    /// Probes the stem's suffixed slots past colliding keys' entries
    /// (which stay untouched) until it finds its own key or an absent
    /// slot.
    fn read_entry(&self, key: &str) -> Option<Arc<RunReport>> {
        let stem = self.stem(key);
        for probe in 0..MAX_STEM_PROBES {
            let path = self.slot_path(&stem, probe);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                // A publish always lands in the first non-foreign slot,
                // so an absent slot proves the key is not stored.
                Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
                Err(e) => {
                    eprintln!("[store] unreadable entry for {key}: {e}");
                    return None;
                }
            };
            match entry_from_bytes(key, &bytes) {
                Ok(Some(report)) => return Some(Arc::new(report)),
                Ok(None) => {
                    // A different key hashed to this stem: someone
                    // else's valid entry. Leave it alone and probe the
                    // next suffixed slot; both keys stay cached.
                    eprintln!(
                        "[store] key-stem collision on {stem} (slot {probe}): probing next slot"
                    );
                }
                Err(e) => {
                    self.stats.discards.fetch_add(1, Ordering::Relaxed);
                    eprintln!("[store] discarding entry for {key}: {e} (will re-execute)");
                    let _ = std::fs::remove_file(&path);
                    return None;
                }
            }
        }
        None
    }
}

impl Probe for ResultStore {
    fn probe(&self, out: &mut ProbeSet) {
        self.stats.probe(out);
    }
}

/// Frames one store entry: envelope (magic, versions, key) around the
/// report payload, closed by a payload checksum.
fn entry_to_bytes(key: &str, report: &RunReport) -> Vec<u8> {
    let payload = report_to_bytes(report);
    let mut w = SnapWriter::new();
    w.bytes(&ENTRY_MAGIC);
    w.u32(STORE_FORMAT_VERSION);
    w.u32(SNAPSHOT_VERSION);
    w.str(key);
    w.bytes(&payload);
    w.u64(store_hash(&payload));
    w.into_bytes()
}

/// Parses a store entry. `Ok(None)` means the entry is valid but
/// stores a *different* key (a stem collision); errors mean the entry
/// is corrupt or stale and must be discarded.
fn entry_from_bytes(key: &str, bytes: &[u8]) -> Result<Option<RunReport>, SnapError> {
    let mut r = SnapReader::new(bytes);
    snap_check(r.bytes()? == ENTRY_MAGIC, "bad entry magic")?;
    let fmt = r.u32()?;
    if fmt != STORE_FORMAT_VERSION {
        return Err(SnapError::Version {
            found: fmt,
            expected: STORE_FORMAT_VERSION,
        });
    }
    let snap = r.u32()?;
    if snap != SNAPSHOT_VERSION {
        return Err(SnapError::Version {
            found: snap,
            expected: SNAPSHOT_VERSION,
        });
    }
    let stored_key = r.str()?;
    let payload = r.bytes()?;
    let checksum = r.u64()?;
    r.finish()?;
    snap_check(checksum == store_hash(payload), "entry checksum mismatch")?;
    if stored_key != key {
        return Ok(None);
    }
    report_from_bytes(payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stem_is_pinned() {
        // Entry file names are on-disk format: existing stores and
        // campaign directories must keep resolving to the same stems.
        assert_eq!(key_stem("spec:Xalan|pf=Triangel"), "12d1fbb3c262d9f1");
    }
}
