//! Paper-scale campaigns: checkpointable, resumable sweeps.
//!
//! A [`Campaign`] runs [`JobSpec`]s like a [`crate::Sweep`] does, but
//! in *segments*: each job's simulation advances
//! [`CampaignOptions::segment_accesses`] accesses at a time through
//! [`SimSession::run_segment`](triangel_sim::SimSession::run_segment),
//! and after every segment the full simulation state is checkpointed.
//! Killing the process (or exhausting a segment/wall-clock budget)
//! therefore loses at most one segment of work: re-running the same
//! campaign against the same store resumes every partial job from its
//! checkpoint and skips every finished job entirely, loading its
//! report instead.
//!
//! All campaign state lives in a [`ResultStore`] — the one opened at
//! `out_dir`, or the handle given with [`CampaignOptions::with_store`]:
//!
//! * a finished job is the store's report entry for its key
//!   (`entries/`), so figure sweeps sharing the store hit it too;
//! * an in-flight job's latest
//!   [`SimSession::snapshot`](triangel_sim::SimSession::snapshot) is the
//!   store's snapshot entry for its key (`snaps/`), removed once the
//!   report is published.
//!
//! Both kinds share the store's envelope, so a corrupt or stale
//! checkpoint is discarded loudly and its job re-runs from access 0,
//! exactly like a corrupt report.
//!
//! Determinism: segmented execution is byte-identical to uninterrupted
//! execution (the `snapshot_equivalence` suite pins this), and the
//! campaign writes results into per-job slots, so a resumed campaign's
//! output equals a clean run's whatever was interrupted and whatever
//! `--jobs` is.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use triangel_obs::TraceArg;
use triangel_sim::RunReport;
use triangel_store::ResultStore;
use triangel_types::snap::SnapError;

use crate::job::JobSpec;
use crate::pool;
use crate::sweep::{JobError, Progress, ResultCache};

/// How a campaign executes.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Accesses per core to run per segment (the checkpoint interval).
    pub segment_accesses: u64,
    /// The store directory the campaign persists reports and
    /// checkpoints into (unless [`CampaignOptions::store`] is set).
    pub out_dir: PathBuf,
    /// Per-segment progress reporting.
    pub progress: Progress,
    /// Maximum segments to execute across the whole invocation
    /// (`None` = unlimited). When the budget runs out, in-flight jobs
    /// checkpoint and report [`JobOutcome::Interrupted`]; a later run
    /// against the same store picks them up where they stopped. This
    /// is also how tests and CI force a mid-flight "kill".
    pub max_segments: Option<u64>,
    /// Wall-clock budget for this invocation (`None` = unlimited).
    /// Checked between segments; the campaign checkpoints and stops
    /// issuing work once the deadline passes.
    pub wall_budget: Option<Duration>,
    /// Host-side trace buffer recording per-job and per-segment
    /// wall-time spans (see [`triangel_obs::TraceBuffer`]). Purely
    /// observational: tracing never changes what is simulated or
    /// persisted.
    pub trace: Option<Arc<triangel_obs::TraceBuffer>>,
    /// An already open [`ResultStore`] to persist into instead of
    /// opening one at `out_dir`; its counters then include the
    /// campaign's traffic.
    pub store: Option<Arc<ResultStore>>,
}

impl CampaignOptions {
    /// A campaign persisting into the store at `out_dir`, with one
    /// worker per core, 250k-access segments, and no budgets.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            workers: 0,
            segment_accesses: 250_000,
            out_dir: out_dir.into(),
            progress: Progress::Silent,
            max_segments: None,
            wall_budget: None,
            trace: None,
            store: None,
        }
    }

    /// Sets the worker-thread count (`0` = one per core).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the checkpoint interval in accesses per core.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero.
    #[must_use]
    pub fn segment_accesses(mut self, accesses: u64) -> Self {
        assert!(accesses > 0, "segments must make progress");
        self.segment_accesses = accesses;
        self
    }

    /// Enables per-segment progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = Progress::Stderr;
        self
    }

    /// Caps the number of segments this invocation executes.
    #[must_use]
    pub fn max_segments(mut self, segments: u64) -> Self {
        self.max_segments = Some(segments);
        self
    }

    /// Caps this invocation's wall-clock time.
    #[must_use]
    pub fn wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Records host-side spans (job lifetimes, segment wall-times)
    /// into `trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<triangel_obs::TraceBuffer>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Persists into this open store handle instead of opening
    /// `out_dir` (see [`CampaignOptions::store`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// What happened to one job of a campaign invocation.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job finished (now or in an earlier invocation); the report
    /// is available.
    Done(Arc<RunReport>),
    /// The job was checkpointed mid-run when a budget ran out; a later
    /// invocation against the same store resumes it.
    Interrupted {
        /// Accesses per core executed so far.
        executed: u64,
        /// Accesses per core the job needs in total.
        total: u64,
    },
    /// The job failed.
    Failed(JobError),
}

impl JobOutcome {
    /// The report, if the job finished.
    pub fn report(&self) -> Option<&Arc<RunReport>> {
        match self {
            JobOutcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Execution counters for one campaign invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs requested (including duplicates).
    pub jobs: usize,
    /// Unique simulations after key dedup.
    pub unique: usize,
    /// Unique jobs finished by the end of this invocation.
    pub completed: usize,
    /// Unique jobs satisfied from the store's reports without
    /// executing a single access (the campaign-level cache-hit counter).
    pub loaded: usize,
    /// Unique jobs resumed from a mid-run checkpoint.
    pub resumed: usize,
    /// Unique jobs left checkpointed when a budget ran out.
    pub interrupted: usize,
    /// Segments executed in this invocation.
    pub segments_run: u64,
    /// Accesses per core simulated in this invocation.
    pub accesses_run: u64,
    /// Jobs that failed.
    pub errors: usize,
}

/// Results of one campaign invocation, in job-submission order.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-job outcome, indexed like the submitted job list.
    pub outcomes: Vec<JobOutcome>,
    /// The job keys, indexed like `outcomes`.
    pub keys: Vec<String>,
    /// Execution counters.
    pub stats: CampaignStats,
    /// Every finished report, keyed by job key — hand this to
    /// [`crate::SweepOptions::with_cache`] and the ordinary sweep/grid
    /// folds resolve entirely from campaign results.
    pub cache: Arc<ResultCache>,
}

impl CampaignReport {
    /// Whether every job finished.
    pub fn is_complete(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, JobOutcome::Done(_)))
    }
}

/// A resumable, checkpointed sweep of [`JobSpec`]s.
#[derive(Debug, Default)]
pub struct Campaign {
    jobs: Vec<JobSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Adds a job, returning its index in the report.
    pub fn push(&mut self, job: JobSpec) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Adds a job, builder-style.
    #[must_use]
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Adds every job of an iterator.
    #[must_use]
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// The submitted job list.
    pub fn job_list(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Runs (or resumes) the campaign.
    ///
    /// Each unique job resolves in a fixed order: its report in the
    /// store (counted as `loaded`; no session is built), else its
    /// checkpoint (restored and counted as `resumed`), else a fresh
    /// run. The assembled results are byte-identical to a clean,
    /// uninterrupted run of the same job list.
    ///
    /// # Errors
    ///
    /// I/O errors opening the store at `opts.out_dir`. Per-job failures
    /// are reported in the outcomes, not here.
    pub fn run(&self, opts: &CampaignOptions) -> std::io::Result<CampaignReport> {
        let store = match &opts.store {
            Some(store) => Arc::clone(store),
            None => Arc::new(ResultStore::open(&opts.out_dir)?),
        };

        let keys: Vec<String> = self.jobs.iter().map(JobSpec::key).collect();

        // Dedup to unique keys, preserving first-occurrence order.
        let mut unique: Vec<(&JobSpec, &str)> = Vec::new();
        let mut slot_of_key: HashMap<&str, usize> = HashMap::new();
        for (job, key) in self.jobs.iter().zip(&keys) {
            if !slot_of_key.contains_key(key.as_str()) {
                slot_of_key.insert(key, unique.len());
                unique.push((job, key));
            }
        }

        let invocation = Invocation {
            opts,
            store: &store,
            segment_budget: AtomicI64::new(match opts.max_segments {
                Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
                None => i64::MAX,
            }),
            deadline: opts.wall_budget.map(|b| Instant::now() + b),
            segments_run: AtomicU64::new(0),
            accesses_run: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
        };
        let outcomes: Vec<JobOutcome> =
            pool::run_indexed(unique.len(), opts.workers_effective(), |i| {
                let (job, key) = unique[i];
                invocation.run_job(job, key)
            });

        // Publish finished reports to a cache keyed like sweeps are.
        let cache = Arc::new(ResultCache::new());
        for ((_, key), outcome) in unique.iter().zip(&outcomes) {
            if let JobOutcome::Done(report) = outcome {
                cache.insert(key.to_string(), Arc::clone(report));
            }
        }

        let results: Vec<JobOutcome> = keys
            .iter()
            .map(|key| outcomes[slot_of_key[key.as_str()]].clone())
            .collect();
        let count = |pred: fn(&JobOutcome) -> bool| outcomes.iter().filter(|o| pred(o)).count();
        let stats = CampaignStats {
            jobs: self.jobs.len(),
            unique: unique.len(),
            completed: count(|o| matches!(o, JobOutcome::Done(_))),
            loaded: invocation.loaded.load(Ordering::Relaxed) as usize,
            resumed: invocation.resumed.load(Ordering::Relaxed) as usize,
            interrupted: count(|o| matches!(o, JobOutcome::Interrupted { .. })),
            segments_run: invocation.segments_run.load(Ordering::Relaxed),
            accesses_run: invocation.accesses_run.load(Ordering::Relaxed),
            errors: count(|o| matches!(o, JobOutcome::Failed(_))),
        };
        Ok(CampaignReport {
            outcomes: results,
            keys,
            stats,
            cache,
        })
    }
}

/// The store, budgets and counters every worker of one
/// [`Campaign::run`] invocation shares.
struct Invocation<'a> {
    opts: &'a CampaignOptions,
    store: &'a ResultStore,
    segment_budget: AtomicI64,
    deadline: Option<Instant>,
    segments_run: AtomicU64,
    accesses_run: AtomicU64,
    loaded: AtomicU64,
    resumed: AtomicU64,
}

impl Invocation<'_> {
    fn run_job(&self, job: &JobSpec, key: &str) -> JobOutcome {
        let store = self.store;
        let progress = self.opts.progress == Progress::Stderr;
        let trace = self.opts.trace.as_deref();
        let job_start = trace.map(|t| t.now_us());
        // Closes this job's wall-time span in the host trace; tagged
        // with how the job left this invocation.
        let job_span = |outcome: &str| {
            if let (Some(t), Some(start)) = (trace, job_start) {
                t.complete(
                    &format!("job {}", job.workload.label()),
                    "campaign",
                    start,
                    vec![
                        ("key".to_string(), TraceArg::Str(key.to_string())),
                        ("outcome".to_string(), TraceArg::Str(outcome.to_string())),
                    ],
                );
            }
        };
        let build = || {
            job.session().map_err(|e| {
                job_span("failed");
                JobOutcome::Failed(JobError {
                    key: key.to_string(),
                    message: e.to_string(),
                })
            })
        };

        // Finished earlier, by this campaign or by any process sharing
        // the store: serve the report without building a session.
        if let Some(report) = store.get(key) {
            self.loaded.fetch_add(1, Ordering::Relaxed);
            if progress {
                eprintln!("[campaign] loaded  {key}");
            }
            job_span("loaded");
            return JobOutcome::Done(report);
        }

        let mut session = match build() {
            Ok(s) => s,
            Err(failed) => return failed,
        };
        let total = session.total_accesses();

        // Partially finished earlier: restore the checkpoint.
        if let Some(snapshot) = store.get_snapshot(key) {
            match session.restore(&snapshot) {
                Ok(()) => {
                    self.resumed.fetch_add(1, Ordering::Relaxed);
                    if progress {
                        eprintln!(
                            "[campaign] resumed {key} at {}/{total}",
                            session.executed_accesses()
                        );
                    }
                }
                Err(e) => {
                    eprintln!("[campaign] discarding snapshot for {key}: {e}");
                    store.remove_snapshot(key);
                    session = match build() {
                        Ok(s) => s,
                        Err(failed) => return failed,
                    };
                }
            }
        }

        // Whether this session's state can be checkpointed at all
        // (custom boxed sources cannot); decided on first attempt.
        let mut checkpointable = true;
        while !session.is_complete() {
            let out_of_budget = self.segment_budget.fetch_sub(1, Ordering::SeqCst) <= 0
                || self.deadline.is_some_and(|d| Instant::now() >= d);
            if out_of_budget {
                // Every segment already run was checkpointed as it
                // finished, so stopping here owes no write.
                if progress {
                    eprintln!(
                        "[campaign] paused  {key} at {}/{total} (budget exhausted)",
                        session.executed_accesses()
                    );
                }
                job_span("interrupted");
                return JobOutcome::Interrupted {
                    executed: session.executed_accesses(),
                    total,
                };
            }

            let seg_span = trace.map(|t| t.now_us());
            let ran = session.run_segment(self.opts.segment_accesses);
            if let (Some(t), Some(start)) = (trace, seg_span) {
                t.complete(
                    "segment",
                    "campaign",
                    start,
                    vec![
                        ("key".to_string(), TraceArg::Str(key.to_string())),
                        (
                            "end_access".to_string(),
                            TraceArg::U64(session.executed_accesses()),
                        ),
                        ("ran".to_string(), TraceArg::U64(ran)),
                    ],
                );
            }
            self.segments_run.fetch_add(1, Ordering::Relaxed);
            self.accesses_run.fetch_add(ran, Ordering::Relaxed);
            if progress {
                eprintln!(
                    "[campaign] segment {key} {}/{total} ({:.0}%)",
                    session.executed_accesses(),
                    100.0 * session.executed_accesses() as f64 / total.max(1) as f64,
                );
            }

            if !session.is_complete() && checkpointable {
                match session.snapshot() {
                    Ok(bytes) => store.put_snapshot(key, &bytes),
                    Err(SnapError::Unsupported(why)) => {
                        // Run on without checkpoints rather than fail.
                        eprintln!("[campaign] {key}: not checkpointable ({why})");
                        checkpointable = false;
                    }
                    Err(e) => eprintln!("[campaign] checkpoint failed for {key}: {e}"),
                }
            }
        }

        // Publish before dropping the checkpoint: a kill in between
        // leaves a report, which the next invocation loads.
        let report = Arc::new(session.report());
        store.put(key, &report);
        store.remove_snapshot(key);
        if progress {
            eprintln!("[campaign] done    {key}");
        }
        job_span("done");
        JobOutcome::Done(report)
    }
}

impl CampaignOptions {
    fn workers_effective(&self) -> usize {
        if self.workers == 0 {
            pool::default_workers()
        } else {
            self.workers
        }
    }
}

#[cfg(test)]
mod tests {
    use triangel_store::{report_from_bytes, report_to_bytes};

    #[test]
    fn sampled_report_framing_round_trips() {
        use crate::{JobSpec, RunParams, WorkloadSpec};
        use triangel_sim::PrefetcherChoice;
        use triangel_workloads::spec::SpecWorkload;

        let job = JobSpec::new(
            WorkloadSpec::Spec(SpecWorkload::Mcf),
            PrefetcherChoice::Triangel,
            RunParams {
                warmup: 400,
                accesses: 600,
                sizing_window: 300,
                seed: 7,
            },
        )
        .sample_every(200);
        let report = job.run().unwrap();
        let series = report.intervals.as_ref().expect("sampling was on");
        assert_eq!(series.len(), 3);

        let bytes = report_to_bytes(&report);
        let back = report_from_bytes(&bytes).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(back.intervals, report.intervals);

        // And an unsampled report still frames as intervals-absent.
        let plain = job.clone().sample_every(0).run().unwrap();
        assert!(plain.intervals.is_none());
        let back = report_from_bytes(&report_to_bytes(&plain)).unwrap();
        assert!(back.intervals.is_none());
    }
}
