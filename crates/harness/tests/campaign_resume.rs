//! Campaign crash-resume semantics: killing a sweep mid-flight and
//! re-running against the same store must produce byte-identical
//! results to a clean run, without re-executing completed work.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use triangel_harness::{
    Campaign, CampaignOptions, JobOutcome, JobSpec, ResultStore, RunParams, Sweep, SweepOptions,
    WorkloadSpec,
};
use triangel_sim::PrefetcherChoice;
use triangel_workloads::spec::SpecWorkload;

const WARMUP: u64 = 2_000;
const ACCESSES: u64 = 2_000;
/// 3 segments per job at this interval.
const SEGMENT: u64 = 1_500;

fn params() -> RunParams {
    RunParams {
        warmup: WARMUP,
        accesses: ACCESSES,
        sizing_window: 1_000,
        seed: 11,
    }
}

fn jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for wl in [SpecWorkload::Xalan, SpecWorkload::Mcf, SpecWorkload::Sphinx] {
        for pf in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
            jobs.push(JobSpec::new(WorkloadSpec::Spec(wl), pf, params()));
        }
    }
    jobs
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("triangel-campaign-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Jobs with a checkpoint entry in the store at `dir`.
fn snapshot_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("snaps")).unwrap().count()
}

/// Every finished report, rendered exhaustively, keyed by job key.
fn render(report: &triangel_harness::CampaignReport) -> BTreeMap<String, String> {
    report
        .keys
        .iter()
        .zip(&report.outcomes)
        .map(|(k, o)| {
            let body = match o {
                JobOutcome::Done(r) => format!("{r:?}"),
                other => panic!("job `{k}` did not finish: {other:?}"),
            };
            (k.clone(), body)
        })
        .collect()
}

#[test]
fn interrupted_campaign_resumes_byte_identically() {
    let job_list = jobs();
    let total_segments = job_list.len() as u64 * (WARMUP + ACCESSES).div_ceil(SEGMENT);

    // Reference: the same jobs through the ordinary (non-segmented)
    // sweep scheduler — the campaign must agree with it exactly.
    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial());
    let reference: BTreeMap<String, String> = sweep
        .keys
        .iter()
        .zip(&sweep.results)
        .map(|(k, r)| (k.clone(), format!("{:?}", r.as_ref().unwrap())))
        .collect();

    // Clean, uninterrupted campaign.
    let clean_dir = scratch_dir("clean");
    let clean = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&clean_dir)
                .workers(1)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    assert!(clean.is_complete());
    assert_eq!(clean.stats.segments_run, total_segments);
    assert_eq!(render(&clean), reference, "campaign != sweep");

    // "Kill" a sweep mid-flight: drop the pool after 7 segments.
    let dir = scratch_dir("resume");
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&dir)
                .workers(2)
                .segment_accesses(SEGMENT)
                .max_segments(7),
        )
        .unwrap();
    assert!(!interrupted.is_complete(), "budget must bite");
    assert!(interrupted.stats.interrupted > 0);
    assert_eq!(interrupted.stats.segments_run, 7);
    assert!(dir.join("store.meta").exists());
    // Jobs the budget stopped *before their first segment* write no
    // checkpoint (there is nothing to save); everything that did make
    // progress must hold a snapshot entry. Counted now — the resumed
    // run below removes them.
    let partial_rows = snapshot_entries(&dir);
    assert!(partial_rows > 0, "some job must have checkpointed mid-run");

    // Re-run against the same store: completed jobs load their
    // reports, partial jobs resume from their snapshots.
    let resumed = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&dir)
                .workers(2)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(
        resumed.stats.loaded, interrupted.stats.completed,
        "every job finished before the kill must load, not re-run"
    );
    assert_eq!(
        resumed.stats.resumed, partial_rows,
        "every checkpointed job must resume from its snapshot"
    );
    assert_eq!(
        interrupted.stats.segments_run + resumed.stats.segments_run,
        total_segments,
        "no completed segment may be re-executed"
    );
    assert_eq!(
        render(&resumed),
        reference,
        "resumed sweep diverged from clean run"
    );
    assert_eq!(
        snapshot_entries(&dir),
        0,
        "finished jobs drop their checkpoints"
    );

    // A third invocation is all cache hits: nothing executes.
    let warm = Campaign::new()
        .jobs(job_list)
        .run(
            &CampaignOptions::new(&dir)
                .workers(1)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    assert_eq!(warm.stats.segments_run, 0);
    assert_eq!(warm.stats.loaded, warm.stats.unique);
    assert_eq!(render(&warm), reference);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_parallelism_does_not_change_results() {
    let job_list = jobs();
    let d1 = scratch_dir("j1");
    let d8 = scratch_dir("j8");
    let serial = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&d1)
                .workers(1)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    let parallel = Campaign::new()
        .jobs(job_list)
        .run(
            &CampaignOptions::new(&d8)
                .workers(8)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    assert_eq!(render(&serial), render(&parallel));
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d8);
}

#[test]
fn campaign_cache_slots_into_sweep_folds() {
    // The campaign's result cache satisfies an ordinary sweep without
    // executing anything — the bridge the figure folds use.
    let job_list = jobs();
    let dir = scratch_dir("cache");
    let campaign = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&dir)
                .workers(1)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial().with_cache(campaign.cache.clone()));
    assert_eq!(sweep.stats.executed, 0, "all jobs must cache-hit");
    assert_eq!(sweep.stats.cache_hits, job_list.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_bytes_round_trip() {
    let report = jobs()[0].run().unwrap();
    let bytes = triangel_store::report_to_bytes(&report);
    let parsed = triangel_store::report_from_bytes(&bytes).unwrap();
    assert_eq!(format!("{report:?}"), format!("{parsed:?}"));
    assert!(triangel_store::report_from_bytes(&bytes[..bytes.len() - 2]).is_err());
}

/// The acceptance bar: snapshot/restore/continue on the *golden
/// sweeps* (the byte-pinned fixture job lists), at `--jobs 1` and
/// `--jobs 8`, interrupted mid-flight — reports must equal the plain
/// serial sweep's exactly. Together with the golden fixture tests
/// (which pin that sweep to committed bytes), this transitively pins
/// campaign output to the fixtures.
#[test]
fn golden_sweeps_survive_interrupt_and_resume_at_jobs_1_and_8() {
    for (tag, sweep, segment, workers) in [
        (
            "golden-j1",
            triangel_harness::goldens::golden_sweep(),
            2_500u64,
            1usize,
        ),
        (
            "golden-j8",
            triangel_harness::goldens::golden_sweep(),
            2_500,
            8,
        ),
        (
            "evict-j8",
            triangel_harness::goldens::evict_train_sweep(),
            20_000,
            8,
        ),
    ] {
        let job_list: Vec<JobSpec> = sweep.jobs().to_vec();
        let reference: BTreeMap<String, String> = {
            let report = job_list
                .iter()
                .fold(Sweep::new(), |s, j| s.job(j.clone()))
                .run(&SweepOptions::serial());
            report
                .keys
                .iter()
                .zip(&report.results)
                .map(|(k, r)| (k.clone(), format!("{:?}", r.as_ref().unwrap())))
                .collect()
        };
        let dir = scratch_dir(tag);
        let opts = |budget: Option<u64>| {
            let mut o = CampaignOptions::new(&dir)
                .workers(workers)
                .segment_accesses(segment);
            if let Some(b) = budget {
                o = o.max_segments(b);
            }
            o
        };
        let first = Campaign::new()
            .jobs(job_list.clone())
            .run(&opts(Some(5)))
            .unwrap();
        assert!(!first.is_complete(), "{tag}: interrupt must bite");
        let resumed = Campaign::new().jobs(job_list).run(&opts(None)).unwrap();
        assert!(resumed.is_complete(), "{tag}");
        assert_eq!(render(&resumed), reference, "{tag} diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Mid-trace interrupt → resume: a campaign over a recorded trace
/// file that is *shorter* than the run (so replay wraps) must resume
/// from a snapshot whose cursor sits mid-file, byte-identically to an
/// uninterrupted run. This pins the `FileTrace` save/restore pair
/// (logical record cursor + wrap counter) through the whole campaign
/// stack, alongside the irregular-family snapshots.
#[test]
fn mid_trace_interrupt_resumes_byte_identically() {
    use triangel_workloads::irregular::IrregularWorkload;
    use triangel_workloads::trace_file::record_trace;

    let trace_dir = scratch_dir("trace-file");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("short.trc");
    let mut src = IrregularWorkload::ZipfKv.generator(11);
    let header = record_trace(&mut src, 1_000, &trace_path).unwrap();
    assert_eq!(header.records, 1_000);

    // A 1000-record trace under a 2000+2000-access run wraps 4 times,
    // and the 1500-access segment boundaries land at replay cursor 500
    // — every checkpoint of a trace job saves a mid-file position and
    // a non-zero wrap count. Trace jobs first: with one worker they
    // run in order, so the 4-segment budget below completes the first
    // (3 segments) and checkpoints the second mid-trace.
    let mut job_list = Vec::new();
    for pf in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
        job_list.push(JobSpec::new(
            WorkloadSpec::trace_file(&trace_path).unwrap(),
            pf,
            params(),
        ));
    }
    for pf in [PrefetcherChoice::Baseline, PrefetcherChoice::Triangel] {
        job_list.push(JobSpec::new(
            WorkloadSpec::Irregular(IrregularWorkload::HashJoin),
            pf,
            params(),
        ));
    }

    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial());
    let reference: BTreeMap<String, String> = sweep
        .keys
        .iter()
        .zip(&sweep.results)
        .map(|(k, r)| (k.clone(), format!("{:?}", r.as_ref().unwrap())))
        .collect();

    let dir = scratch_dir("trace-resume");
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&dir)
                .workers(1)
                .segment_accesses(SEGMENT)
                .max_segments(4),
        )
        .unwrap();
    assert!(!interrupted.is_complete(), "budget must bite");
    let store = ResultStore::open(&dir).unwrap();
    let partial_trace_rows = job_list
        .iter()
        .map(JobSpec::key)
        .filter(|key| key.starts_with("trace:") && store.get_snapshot(key).is_some())
        .count();
    assert!(
        partial_trace_rows > 0,
        "a trace-file job must have checkpointed mid-trace"
    );

    let resumed = Campaign::new()
        .jobs(job_list)
        .run(
            &CampaignOptions::new(&dir)
                .workers(1)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(
        render(&resumed),
        reference,
        "mid-trace resume diverged from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Campaigns and sweeps share results through one store, both ways:
/// a campaign persists into the store at its `out_dir` (so sweeps over
/// that directory hit), and a campaign handed an open store is served
/// from it without running a single segment.
#[test]
fn campaign_bridges_the_shared_store_both_ways() {
    let store_dir = scratch_dir("bridge-store");
    let job_list = jobs();

    // Campaign A executes everything and publishes into the store.
    let store_a = Arc::new(ResultStore::open(&store_dir).unwrap());
    let a = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&store_dir)
                .workers(2)
                .segment_accesses(SEGMENT)
                .with_store(Arc::clone(&store_a)),
        )
        .expect("campaign io");
    assert_eq!(a.stats.completed, a.stats.unique);
    assert_eq!(
        store_a.stats().inserts() as usize,
        job_list.len(),
        "every completed job must publish into the store"
    );

    // A plain sweep over the same directory executes nothing.
    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial().with_store(Arc::new(ResultStore::open(&store_dir).unwrap())));
    assert_eq!(
        sweep.stats.executed, 0,
        "sweep must be served from the campaign's publishes"
    );

    // Campaign B, handed the open store: all loads, zero segments,
    // byte-identical outcomes, and nothing written at its own out-dir.
    let dir_b = scratch_dir("bridge-b");
    let b = Campaign::new()
        .jobs(job_list)
        .run(
            &CampaignOptions::new(&dir_b)
                .workers(1)
                .segment_accesses(SEGMENT)
                .with_store(Arc::new(ResultStore::open(&store_dir).unwrap())),
        )
        .expect("campaign io");
    assert_eq!(
        b.stats.loaded, b.stats.unique,
        "store must serve the whole campaign"
    );
    assert_eq!(b.stats.segments_run, 0);
    assert_eq!(render(&a), render(&b));
    assert!(!dir_b.exists(), "a campaign with a store handle uses it");

    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A checkpoint that rots on disk is discarded loudly like any store
/// entry: its job is not resumed but re-runs from access 0, and the
/// results still equal a clean run's.
#[test]
fn corrupt_snapshot_entry_reruns_its_job_from_scratch() {
    let job_list = jobs();
    let per_job = (WARMUP + ACCESSES).div_ceil(SEGMENT);
    let reference = {
        let dir = scratch_dir("corrupt-snap-ref");
        let clean = Campaign::new()
            .jobs(job_list.clone())
            .run(
                &CampaignOptions::new(&dir)
                    .workers(1)
                    .segment_accesses(SEGMENT),
            )
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        render(&clean)
    };

    // One worker runs the jobs in order: the budget finishes job 0 and
    // stops job 1 after its first segment, checkpointed.
    let dir = scratch_dir("corrupt-snap");
    let opts = |budget: Option<u64>| {
        let o = CampaignOptions::new(&dir)
            .workers(1)
            .segment_accesses(SEGMENT)
            .with_store(Arc::new(ResultStore::open(&dir).unwrap()));
        match budget {
            Some(b) => o.max_segments(b),
            None => o,
        }
    };
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(&opts(Some(per_job + 1)))
        .unwrap();
    assert_eq!(interrupted.stats.completed, 1);
    assert_eq!(snapshot_entries(&dir), 1, "job 1 must have checkpointed");

    // Flip one payload byte (the checksum is the final 8 bytes).
    let snap = std::fs::read_dir(dir.join("snaps"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&snap).unwrap();
    let idx = bytes.len() - 9;
    bytes[idx] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();

    let resume_opts = opts(None);
    let resumed = Campaign::new()
        .jobs(job_list.clone())
        .run(&resume_opts)
        .unwrap();
    let store = resume_opts.store.as_ref().unwrap();
    assert_eq!(
        store.stats().discards(),
        1,
        "the bad snapshot must be discarded loudly"
    );
    assert_eq!(
        resumed.stats.resumed, 0,
        "a discarded snapshot is not a resume"
    );
    assert_eq!(resumed.stats.loaded, 1);
    assert_eq!(
        resumed.stats.segments_run,
        (job_list.len() as u64 - 1) * per_job,
        "the corrupted job must re-run from access 0"
    );
    assert_eq!(
        render(&resumed),
        reference,
        "results must equal a clean run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heterogeneous_multicore_job_resumes_byte_identically() {
    // A three-core job with a *different* workload per core — the MCF
    // generator, the zipfian KV store, and a recorded-trace replay —
    // interrupted and resumed through the campaign runner. Exercises
    // the contended N-core timing model's snapshot path end to end
    // with per-core sources of three different kinds.
    use triangel_workloads::irregular::IrregularWorkload;
    use triangel_workloads::trace_file::record_trace;

    let trace_dir = scratch_dir("hetero-trace");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("hetero.trc");
    // Deliberately shorter than the run, so the looping end-of-trace
    // policy wraps mid-campaign.
    let mut src = IrregularWorkload::WebServe.generator(9);
    record_trace(&mut src, (WARMUP + ACCESSES) / 2, &trace_path).unwrap();

    let workload = WorkloadSpec::Multi(vec![
        WorkloadSpec::Spec(SpecWorkload::Mcf),
        WorkloadSpec::Irregular(IrregularWorkload::ZipfKv),
        WorkloadSpec::trace_file(&trace_path).unwrap(),
    ]);
    let job_list = vec![JobSpec::new(workload, PrefetcherChoice::Triangel, params()).with_cores(3)];

    // Reference: the ordinary sweep scheduler.
    let sweep = job_list
        .iter()
        .fold(Sweep::new(), |s, j| s.job(j.clone()))
        .run(&SweepOptions::serial());
    let reference: BTreeMap<String, String> = sweep
        .keys
        .iter()
        .zip(&sweep.results)
        .map(|(k, r)| (k.clone(), format!("{:?}", r.as_ref().unwrap())))
        .collect();

    // Interrupt after 1 segment, then resume with the same out-dir.
    let dir = scratch_dir("hetero");
    let interrupted = Campaign::new()
        .jobs(job_list.clone())
        .run(
            &CampaignOptions::new(&dir)
                .workers(1)
                .segment_accesses(SEGMENT)
                .max_segments(1),
        )
        .unwrap();
    assert!(!interrupted.is_complete(), "budget must bite");
    let resumed = Campaign::new()
        .jobs(job_list)
        .run(
            &CampaignOptions::new(&dir)
                .workers(1)
                .segment_accesses(SEGMENT),
        )
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats.resumed, 1, "the job must resume, not restart");
    assert_eq!(
        render(&resumed),
        reference,
        "resumed heterogeneous 3-core job diverged from the straight run"
    );

    let _ = std::fs::remove_dir_all(&trace_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
