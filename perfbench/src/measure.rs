//! The untraced measurement: end-to-end metrics and the correctness
//! gate.

use std::path::Path;
use std::time::{Duration, Instant};

use triangel_harness::{Campaign, CampaignOptions, CampaignReport, JobSpec, ResultStore};
use triangel_sim::{PrefetcherChoice, RunReport};
use triangel_store::report_to_bytes;

use crate::calib::Calibrator;
use crate::host::{self, mean, median, Tracer, FNV_OFFSET};
use crate::plan::{self, column_name, Workload, CAMPAIGN_SEGMENT};

/// Operations attempted and correctness violations.
#[derive(Debug, Default)]
pub struct Gate {
    pub ops: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("[gate] FAILED: {}", what());
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// Host time, host memory, or a ratio of host times. Everything else
    /// is a count or ratio of the simulated system or of the harness's
    /// work, and repeats exactly for a seed.
    pub fn is_host(&self) -> bool {
        matches!(self.unit, "1/s" | "ns" | "us" | "ms" | "s" | "MB")
            || ["obs.tracing_overhead", "harness.overhead_share"].contains(&self.name.as_str())
    }
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One simulated job, as the measurement saw it.
#[derive(Debug)]
pub struct JobRun {
    pub report: RunReport,
    pub bytes: Vec<u8>,
    pub build_s: f64,
    pub run_s: f64,
    /// Process CPU time of the run, all threads.
    pub cpu_ns: u64,
    /// Simulated accesses, warm-up + measured, all cores.
    pub accesses: u64,
}

/// What a measured workload hands back besides its metrics: the first
/// report of every job (job order) and their digest.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub jobs: Vec<JobSpec>,
    pub reports: Vec<RunReport>,
    pub digest: u64,
}

/// The reports of one prefetcher column, from `(job, report)` pairs.
pub fn of_column<'a>(
    runs: impl IntoIterator<Item = (&'a JobSpec, &'a RunReport)>,
    col: PrefetcherChoice,
) -> Vec<&'a RunReport> {
    runs.into_iter()
        .filter(|(j, _)| column_name(j.prefetcher) == column_name(col))
        .map(|(_, r)| r)
        .collect()
}

/// Temporal-prefetch accuracy pooled over every core of `reports`:
/// used / (used + wasted).
pub fn pooled_accuracy(reports: &[&RunReport]) -> f64 {
    let cores = || reports.iter().flat_map(|r| &r.cores);
    let used: u64 = cores().map(|c| c.core.temporal_used).sum();
    let wasted: u64 = cores().map(|c| c.core.temporal_wasted).sum();
    used as f64 / (used + wasted).max(1) as f64
}

/// Times `f`, inside a span when tracing.
pub fn timed<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracer {
        Some(t) => t.span(name, f),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64())
        }
    }
}

/// Digest of the persisted form of `reports`, in order.
pub fn sim_digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    reports
        .into_iter()
        .fold(FNV_OFFSET, |h, r| host::fnv1a(h, &report_to_bytes(r)))
}

/// Checks one finished report against its job.
pub fn check_report(gate: &mut Gate, job: &JobSpec, cores: usize, report: &RunReport) {
    let key = job.key();
    gate.check(report.cores.len() == cores, || {
        format!(
            "{key}: {} core report(s), expected {cores}",
            report.cores.len()
        )
    });
    for (i, c) in report.cores.iter().enumerate() {
        gate.check(c.instructions > 0 && c.cycles > 0, || {
            format!(
                "{key}: core {i} retired {} instr in {} cycles",
                c.instructions, c.cycles
            )
        });
        gate.check((0.0..=1.0).contains(&c.core.accuracy()), || {
            format!("{key}: core {i} accuracy {}", c.core.accuracy())
        });
    }
    gate.check((0.0..=1.0).contains(&report.accuracy()), || {
        format!("{key}: accuracy {}", report.accuracy())
    });
}

/// Builds and runs one job, checking it ran every requested access and
/// produced a sane report. `None` (counted as failed) on error.
pub fn run_job(
    gate: &mut Gate,
    tracer: Option<&Tracer>,
    job: &JobSpec,
    cores: usize,
) -> Option<JobRun> {
    gate.ops += 1;
    let (session, build_s) = timed(tracer, "sim.build", || job.session());
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            gate.check(false, || format!("{}: {e}", job.key()));
            return None;
        }
    };
    let total = session.total_accesses();
    let name = format!("sim.run.{}", column_name(job.prefetcher));
    let cpu0 = host::process_cpu_ns();
    let (ran, run_s) = timed(tracer, &name, || session.run_segment(u64::MAX));
    let cpu_ns = host::process_cpu_ns() - cpu0;
    gate.check(ran == total && session.is_complete(), || {
        format!("{}: ran {ran} of {total} accesses per core", job.key())
    });
    let report = session.report();
    check_report(gate, job, cores, &report);
    Some(JobRun {
        bytes: report_to_bytes(&report),
        report,
        build_s,
        run_s,
        cpu_ns,
        accesses: total * cores as u64,
    })
}

/// A short discarded run (first job at a tenth of its scale), so
/// allocator, page-cache and frequency warm-up is not measured.
fn warm_up(job: &JobSpec) {
    let mut small = job.clone();
    small.params.warmup /= 10;
    small.params.accesses /= 10;
    let _ = small.run();
}

/// The end-to-end metrics from raw host figures. `run_s` and `cpu_ns`
/// are means over repetitions, scaled to nominal host speed by the
/// calibrator's mean slowdown over the run. `setup_s` is a median and
/// is not scaled: session builds are page-fault- and allocation-bound,
/// and follow the kernel's slowdown only in part, so scaling them
/// over-corrects (in one five-seed round on a 2-vCPU host, set-up
/// spread 0.18 scaled against 0.05 unscaled).
fn end_to_end(
    cal: &Calibrator,
    accesses: u64,
    run_s: f64,
    cpu_ns: f64,
    setup_s: f64,
) -> Vec<Metric> {
    let (wall, cpu) = (cal.wall_mean(), cal.cpu_mean());
    eprintln!(
        "[bench] host slowdown against nominal over {} kernel call(s): wall {wall:.3}, cpu {cpu:.3}; \
         unscaled: {:.0} accesses/s, {:.2} cpu ns/access",
        cal.samples(),
        accesses as f64 / run_s,
        cpu_ns / accesses as f64,
    );
    vec![
        metric("accesses_per_s", accesses as f64 * wall / run_s, "1/s"),
        metric("cpu_ns_per_access", cpu_ns / cpu / accesses as f64, "ns"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// Measures a workload that runs its jobs directly (`spec-stride`,
/// `spec-temporal`, `mix4-contended`): jobs run in order, cycling
/// until `seconds` have passed and every job ran at least twice, with
/// the calibration kernel catching up after each. Run time sums per-job
/// means (over the run, the kernel's mean slowdown tracks them best);
/// set-up sums per-job medians, so a stalled build moves only its own
/// term.
pub fn measure_jobs(w: Workload, seed: u64, seconds: f64, tmp: &Path) -> (Outcome, Gate) {
    let mut gate = Gate::default();
    let cores = w.cores();
    let mut trace_setup: Vec<f64> = Vec::new();
    let set_up_trace = |trace_setup: &mut Vec<f64>, gate: &mut Gate| {
        if !w.records_trace() {
            return Some(None);
        }
        let (spec, secs) = timed(None, "workloads.record", || {
            plan::record_hashjoin(tmp, w, seed)
        });
        trace_setup.push(secs);
        match spec {
            Ok(s) => Some(Some(s)),
            Err(e) => {
                gate.check(false, || format!("recording {}: {e}", plan::TRACE_NAME));
                None
            }
        }
    };
    let Some(trace) = set_up_trace(&mut trace_setup, &mut gate) else {
        return (Outcome::default(), gate);
    };
    let jobs = w.jobs(seed, trace.as_ref());
    warm_up(&jobs[0]);
    let mut cal = Calibrator::new();

    let mut runs: Vec<Vec<JobRun>> = jobs.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    'cycles: for cycle in 0.. {
        if cycle > 0 {
            let over = cycle > 1 && start.elapsed() >= budget;
            if over || set_up_trace(&mut trace_setup, &mut gate).is_none() {
                break;
            }
        }
        for (j, job) in jobs.iter().enumerate() {
            if cycle > 1 && start.elapsed() >= budget {
                break 'cycles;
            }
            let Some(run) = run_job(&mut gate, None, job, cores) else {
                continue;
            };
            if let Some(first) = runs[j].first() {
                gate.check(first.bytes == run.bytes, || {
                    format!("{}: report differs between repetitions", job.key())
                });
            }
            runs[j].push(run);
            cal.keep_up();
        }
    }
    if runs.iter().any(Vec::is_empty) {
        gate.check(false, || format!("{}: not every job completed", w.name()));
        return (Outcome::default(), gate);
    }

    let accesses: u64 = runs.iter().map(|r| r[0].accesses).sum();
    let per_job = |stat: fn(&[f64]) -> f64, f: fn(&JobRun) -> f64| -> f64 {
        runs.iter()
            .map(|r| stat(&r.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let run_s = per_job(mean, |r| r.run_s);
    let cpu_ns = per_job(mean, |r| r.cpu_ns as f64);
    let build_s = per_job(median, |r| r.build_s);
    let record_s = if trace_setup.is_empty() {
        0.0
    } else {
        median(&trace_setup)
    };
    let samples: usize = runs.iter().map(Vec::len).sum();
    eprintln!(
        "[bench] {}: {samples} job run(s) of {} job(s) in {:.1} s",
        w.name(),
        jobs.len(),
        start.elapsed().as_secs_f64()
    );

    let reports: Vec<RunReport> = runs
        .into_iter()
        .map(|r| r.into_iter().next().expect("non-empty").report)
        .collect();
    let outcome = Outcome {
        metrics: end_to_end(&cal, accesses, run_s, cpu_ns, build_s + record_s),
        digest: sim_digest(&reports),
        jobs,
        reports,
    };
    (outcome, gate)
}

fn campaign_opts(out: &Path, store: &std::sync::Arc<ResultStore>) -> CampaignOptions {
    CampaignOptions::new(out)
        .workers(1)
        .segment_accesses(CAMPAIGN_SEGMENT)
        .with_store(std::sync::Arc::clone(store))
}

/// Runs one warm campaign pass and checks it served every job from
/// persisted results without simulating, with `expected` report bytes.
fn warm_pass(gate: &mut Gate, campaign: &Campaign, opts: &CampaignOptions, expected: &[Vec<u8>]) {
    gate.ops += expected.len() as u64;
    match campaign.run(opts) {
        Ok(r) => check_warm(gate, &r, expected),
        Err(e) => gate.check(false, || format!("warm campaign: {e}")),
    }
}

fn check_warm(gate: &mut Gate, r: &CampaignReport, expected: &[Vec<u8>]) {
    gate.check(
        r.stats.loaded == r.stats.unique && r.stats.accesses_run == 0,
        || {
            format!(
                "warm phase loaded {} of {} job(s) and ran {} access(es)",
                r.stats.loaded, r.stats.unique, r.stats.accesses_run
            )
        },
    );
    for (outcome, want) in r.outcomes.iter().zip(expected) {
        let got = outcome.report().map(|rep| report_to_bytes(rep));
        gate.check(got.as_ref() == Some(want), || {
            "warm phase served a report that differs from the simulated one".to_string()
        });
    }
}

/// Cold-phase segment budget: half of all segments plus half a job's,
/// so the serial phase stops in the middle of a job and the resume
/// phase restores its snapshot.
pub fn cold_budget(jobs: &[JobSpec]) -> u64 {
    let per_job: Vec<u64> = jobs
        .iter()
        .map(|j| (j.params.warmup + j.params.accesses).div_ceil(CAMPAIGN_SEGMENT))
        .collect();
    per_job.iter().sum::<u64>() / 2 + per_job[0] / 2
}

/// One cold → resume → warm pass of `campaign-resume`, in its own
/// directory.
#[derive(Debug)]
pub struct CampaignPass {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_ns: u64,
    pub accesses: u64,
    pub reports: Vec<RunReport>,
    pub cold: CampaignReport,
    pub resume: CampaignReport,
}

pub fn campaign_pass(
    gate: &mut Gate,
    tracer: Option<&Tracer>,
    mut cal: Option<&mut Calibrator>,
    jobs: &[JobSpec],
    dir: &Path,
    warm_passes: usize,
) -> Option<CampaignPass> {
    let _ = std::fs::remove_dir_all(dir);
    // Set-up: the store opening plus the session builds the campaign
    // performs inside `Campaign::run`, timed here on their own.
    let (store, setup_s) = timed(tracer, "setup", || {
        let store = ResultStore::open(dir.join("store"));
        for job in jobs {
            let _ = timed(tracer, "sim.build", || job.session());
        }
        store
    });
    let store = match store {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => {
            gate.check(false, || format!("opening the result store: {e}"));
            return None;
        }
    };
    let campaign = Campaign::new().jobs(jobs.iter().cloned());
    let opts = campaign_opts(&dir.join("out"), &store);
    let total: u64 = jobs
        .iter()
        .map(|j| j.params.warmup + j.params.accesses)
        .sum();
    gate.ops += jobs.len() as u64;

    let cpu0 = host::process_cpu_ns();
    let (cold, cold_s) = timed(tracer, "harness.cold", || {
        campaign.run(&opts.clone().max_segments(cold_budget(jobs)))
    });
    let cpu_ns = host::process_cpu_ns() - cpu0;
    if let Some(c) = cal.as_deref_mut() {
        c.keep_up();
    }
    let cpu1 = host::process_cpu_ns();
    let (resume, resume_s) = timed(tracer, "harness.resume", || campaign.run(&opts));
    let cpu_ns = cpu_ns + host::process_cpu_ns() - cpu1;
    if let Some(c) = cal.as_deref_mut() {
        c.keep_up();
    }
    let (cold, resume) = match (cold, resume) {
        (Ok(c), Ok(r)) => (c, r),
        (Err(e), _) | (_, Err(e)) => {
            gate.check(false, || format!("campaign: {e}"));
            return None;
        }
    };
    gate.check(!cold.is_complete() && cold.stats.interrupted > 0, || {
        "cold phase was not interrupted by its segment budget".to_string()
    });
    gate.check(resume.is_complete() && resume.stats.resumed > 0, || {
        format!(
            "resume phase: complete={} resumed={}",
            resume.is_complete(),
            resume.stats.resumed
        )
    });
    let accesses = cold.stats.accesses_run + resume.stats.accesses_run;
    gate.check(accesses == total, || {
        format!("cold + resume ran {accesses} of {total} accesses")
    });
    let mut reports = Vec::new();
    for (job, outcome) in jobs.iter().zip(&resume.outcomes) {
        match outcome.report() {
            Some(r) => {
                check_report(gate, job, 1, r);
                reports.push(RunReport::clone(r));
            }
            None => gate.check(false, || format!("{}: {outcome:?}", job.key())),
        }
    }
    if reports.len() != jobs.len() {
        return None;
    }
    let expected: Vec<Vec<u8>> = reports.iter().map(report_to_bytes).collect();
    for _ in 0..warm_passes {
        warm_pass(gate, &campaign, &opts, &expected);
    }
    if let Some(c) = cal {
        c.keep_up();
    }
    Some(CampaignPass {
        setup_s,
        run_s: cold_s + resume_s,
        cpu_ns,
        accesses,
        reports,
        cold,
        resume,
    })
}

/// Warm passes per `campaign-resume` pass, checked by the gate.
const CAMPAIGN_WARM_PASSES: usize = 3;

/// Measures `campaign-resume`: whole passes until `seconds` have
/// passed (at least two), with the calibration kernel catching up
/// between the phases of each pass. Run time is the mean over passes;
/// set-up is the median.
pub fn measure_campaign(w: Workload, seed: u64, seconds: f64, tmp: &Path) -> (Outcome, Gate) {
    let mut gate = Gate::default();
    let jobs = w.jobs(seed, None);
    warm_up(&jobs[0]);
    let mut cal = Calibrator::new();
    let start = Instant::now();
    let mut passes: Vec<CampaignPass> = Vec::new();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let dir = tmp.join(format!("campaign-{}", passes.len()));
        let Some(pass) = campaign_pass(
            &mut gate,
            None,
            Some(&mut cal),
            &jobs,
            &dir,
            CAMPAIGN_WARM_PASSES,
        ) else {
            return (Outcome::default(), gate);
        };
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(first) = passes.first() {
            gate.check(
                sim_digest(&first.reports) == sim_digest(&pass.reports),
                || "campaign reports differ between passes".to_string(),
            );
        }
        passes.push(pass);
    }
    eprintln!(
        "[bench] {}: {} pass(es) in {:.1} s",
        w.name(),
        passes.len(),
        start.elapsed().as_secs_f64()
    );
    let over = |stat: fn(&[f64]) -> f64, f: &dyn Fn(&CampaignPass) -> f64| {
        stat(&passes.iter().map(f).collect::<Vec<_>>())
    };
    // Every pass runs the same accesses (the gate checks the total).
    let metrics = end_to_end(
        &cal,
        passes[0].accesses,
        over(mean, &|p| p.run_s),
        over(mean, &|p| p.cpu_ns as f64),
        over(median, &|p| p.setup_s),
    );
    let reports = passes.swap_remove(0).reports;
    let outcome = Outcome {
        metrics,
        digest: sim_digest(&reports),
        jobs,
        reports,
    };
    (outcome, gate)
}
