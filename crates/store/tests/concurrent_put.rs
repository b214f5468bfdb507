//! Concurrent unleased publishes of one key must never tear an entry.
//!
//! Campaigns publish reports and checkpoints without a claim lease, so
//! several writers may replace the same entry at once. Each writer
//! stages its bytes in a temp file of its own before the atomic rename;
//! a shared temp name would let one writer truncate another's file
//! mid-write, and readers would see (and discard) torn entries.

use std::sync::{Arc, Barrier};

use triangel_harness::{JobSpec, RunParams, WorkloadSpec};
use triangel_sim::PrefetcherChoice;
use triangel_store::{report_to_bytes, ResultStore};
use triangel_workloads::spec::SpecWorkload;

const THREADS: usize = 4;
const ROUNDS: usize = 300;

#[test]
fn racing_puts_of_one_key_never_tear_the_entry() {
    let dir = std::env::temp_dir().join(format!("triangel-store-put-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let job = JobSpec::new(
        WorkloadSpec::Spec(SpecWorkload::Mcf),
        PrefetcherChoice::Triangel,
        RunParams {
            warmup: 500,
            accesses: 500,
            sizing_window: 250,
            seed: 3,
        },
    );
    let key = job.key();
    let report = job.run().unwrap();
    let want = report_to_bytes(&report);

    // All writers start together, so their publishes overlap.
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    store.put(&key, &report);
                    if let Some(got) = store.get(&key) {
                        assert_eq!(report_to_bytes(&got), want);
                    }
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(stats.discards(), 0, "a racing publish tore an entry");
    assert_eq!(stats.misses(), 0, "a published entry must always read back");
    assert_eq!(
        stats.inserts() as usize,
        THREADS * ROUNDS,
        "every publish must land"
    );
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("entries"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(leftovers.len(), 1, "only the entry remains: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
