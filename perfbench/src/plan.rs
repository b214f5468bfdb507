//! The workloads: their job lists, scales and set-up.

use std::io;
use std::path::Path;

use triangel_harness::{JobSpec, RunParams, WorkloadSpec};
use triangel_sim::PrefetcherChoice;
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::mix::WorkloadMix;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::record_trace;

/// A benchmark workload, by the name later changes refer to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 7 SPEC generators × stride-only baseline, single core, serial.
    SpecStride,
    /// 7 SPEC generators × {Triage-Deg4, Triangel}, serial.
    SpecTemporal,
    /// One contended 4-core mix (MCF, ZipfKV, Omnetpp, recorded
    /// HashJoin trace) × {Baseline, Triangel}, one generation thread.
    Mix4Contended,
    /// A checkpointed `Campaign` over 7 SPEC × {Baseline, Triangel}:
    /// cold (interrupted), resume, and warm phases. Runnable, but not in
    /// `BENCHMARK.json`: its wall time waits on the disk.
    CampaignResume,
}

/// Every workload: those of `BENCHMARK.json` in its order, then
/// `campaign-resume`.
pub const ALL: [Workload; 4] = [
    Workload::SpecStride,
    Workload::SpecTemporal,
    Workload::Mix4Contended,
    Workload::CampaignResume,
];

/// The three prefetcher columns.
pub const COLUMNS: [PrefetcherChoice; 3] = [
    PrefetcherChoice::Baseline,
    PrefetcherChoice::TriageDeg4,
    PrefetcherChoice::Triangel,
];

/// Metric-name suffix of a column.
pub fn column_name(choice: PrefetcherChoice) -> &'static str {
    match choice {
        PrefetcherChoice::Baseline => "baseline",
        PrefetcherChoice::TriageDeg4 => "triage_deg4",
        PrefetcherChoice::Triangel => "triangel",
        other => unreachable!("{other:?} is not a benchmark column"),
    }
}

/// Checkpoint interval of the campaign's cold and resume phases, in
/// accesses per core.
pub const CAMPAIGN_SEGMENT: u64 = 10_000;

/// File name of the recorded HashJoin trace (it enters the report's
/// workload label, so it is fixed).
pub const TRACE_NAME: &str = "hashjoin.trc";

/// Core index of the recorded trace in the 4-core mix.
const TRACE_CORE: u64 = 3;

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecStride => "spec-stride",
            Workload::SpecTemporal => "spec-temporal",
            Workload::Mix4Contended => "mix4-contended",
            Workload::CampaignResume => "campaign-resume",
        }
    }

    /// Scale per core. Large enough for Triangel's sizing and history
    /// gates to open (at 25k accesses they never do).
    pub fn params(self, seed: u64) -> RunParams {
        let (warmup, accesses) = match self {
            Workload::SpecStride | Workload::SpecTemporal => (200_000, 400_000),
            Workload::Mix4Contended => (100_000, 200_000),
            Workload::CampaignResume => (100_000, 100_000),
        };
        RunParams {
            warmup,
            accesses,
            sizing_window: 50_000,
            seed,
        }
    }

    pub fn columns(self) -> Vec<PrefetcherChoice> {
        match self {
            Workload::SpecStride => vec![PrefetcherChoice::Baseline],
            Workload::SpecTemporal => {
                vec![PrefetcherChoice::TriageDeg4, PrefetcherChoice::Triangel]
            }
            Workload::Mix4Contended | Workload::CampaignResume => {
                vec![PrefetcherChoice::Baseline, PrefetcherChoice::Triangel]
            }
        }
    }

    /// Simulated cores per job.
    pub fn cores(self) -> usize {
        match self {
            Workload::Mix4Contended => 4,
            _ => 1,
        }
    }

    /// The workload specs its jobs run: the seven SPEC generators, or
    /// the one 4-core mix (whose last core replays `trace`).
    pub fn rows(self, trace: Option<&WorkloadSpec>) -> Vec<WorkloadSpec> {
        match self {
            Workload::Mix4Contended => vec![WorkloadSpec::Multi(vec![
                WorkloadSpec::Spec(SpecWorkload::Mcf),
                WorkloadSpec::Irregular(IrregularWorkload::ZipfKv),
                WorkloadSpec::Spec(SpecWorkload::Omnetpp),
                trace
                    .expect("the 4-core mix replays a recorded trace")
                    .clone(),
            ])],
            _ => SpecWorkload::ALL
                .into_iter()
                .map(WorkloadSpec::Spec)
                .collect(),
        }
    }

    /// One job per row × column, row-major.
    pub fn jobs_for(
        self,
        columns: &[PrefetcherChoice],
        seed: u64,
        trace: Option<&WorkloadSpec>,
    ) -> Vec<JobSpec> {
        let params = self.params(seed);
        let mut jobs = Vec::new();
        for row in self.rows(trace) {
            for &col in columns {
                let mut job = JobSpec::new(row.clone(), col, params);
                if self == Workload::Mix4Contended {
                    job = job.with_cores(self.cores());
                }
                jobs.push(job);
            }
        }
        jobs
    }

    /// The workload's own jobs.
    pub fn jobs(self, seed: u64, trace: Option<&WorkloadSpec>) -> Vec<JobSpec> {
        self.jobs_for(&self.columns(), seed, trace)
    }

    /// Whether set-up records a trace file.
    pub fn records_trace(self) -> bool {
        self == Workload::Mix4Contended
    }
}

/// Records the mix's HashJoin core to `dir/hashjoin.trc`, long enough
/// that replay never wraps, and returns its workload spec. The core is
/// seeded like the job would seed it (`seed ^ 0x9999 * core`).
pub fn record_hashjoin(dir: &Path, w: Workload, seed: u64) -> io::Result<WorkloadSpec> {
    let p = w.params(seed);
    let path = dir.join(TRACE_NAME);
    record_trace(&mut hashjoin_source(seed), p.warmup + p.accesses, &path)?;
    WorkloadSpec::trace_file(path)
}

/// The generator the mix's HashJoin trace is recorded from.
pub fn hashjoin_source(seed: u64) -> WorkloadMix {
    IrregularWorkload::HashJoin.generator(seed ^ 0x9999u64.wrapping_mul(TRACE_CORE))
}
