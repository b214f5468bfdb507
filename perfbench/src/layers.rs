//! The traced run: per-layer metrics.
//!
//! Spans are recorded around every call into a layer's public API, from
//! the benchmark's own code. Layers the simulation only reaches from
//! inside `SimSession::run` (trace generation, caches, Markov table,
//! DRAM, the memory system) are replayed standalone on the workload's
//! own access streams, so each gets its own host time per operation.
//! Counts are simulated quantities and repeat exactly for a seed.

use std::collections::HashMap;
use std::path::Path;

use triangel_cache::Cache;
use triangel_harness::{Campaign, CampaignOptions, JobSpec, ResultStore, WorkloadSpec};
use triangel_markov::{MarkovTableConfig, MarkovTableImpl};
use triangel_mem::Dram;
use triangel_sim::{MemorySystem, PrefetcherChoice, RunReport, SystemConfig};
use triangel_store::report_to_bytes;
use triangel_types::{Addr, LineAddr, Pc};
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::paging::PageMapper;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::{record_trace, EndPolicy, FileTrace};
use triangel_workloads::{AccessRing, MemoryAccess, TraceSource};

use crate::host::Tracer;
use crate::measure::{
    self, metric, of_column, pooled_accuracy, run_job, sim_digest, Gate, JobRun, Metric, Outcome,
};
use crate::plan::{self, column_name, Workload, COLUMNS};

/// Accesses per core replayed through each standalone layer.
const REPLAY_ACCESSES: u64 = 200_000;
/// DRAM requests replayed (the L3-miss stream, looped).
const DRAM_REQUESTS: u64 = 1_000_000;
/// The engine's per-core tag positions (`crates/sim/src/engine.rs`).
const PC_TAG_SHIFT: u32 = 40;
const VADDR_TAG_SHIFT: u32 = 46;
/// The session builder's default page-mapper seed.
const MAPPER_SEED: u64 = 0xA11C;

/// One demand access after per-core tagging and translation.
#[derive(Debug, Clone, Copy)]
struct Demand {
    core: usize,
    pc: Pc,
    line: LineAddr,
}

fn ns_per(secs: f64, ops: u64) -> f64 {
    secs * 1e9 / ops.max(1) as f64
}

/// Each row's per-core trace sources, seeded the way `JobSpec` seeds
/// them (core `i` runs `seed ^ 0x9999 * i`).
fn sources(
    w: Workload,
    seed: u64,
    trace: Option<&Path>,
) -> std::io::Result<Vec<Vec<Box<dyn TraceSource>>>> {
    let core_seed = |i: u64| seed ^ 0x9999u64.wrapping_mul(i);
    Ok(match w {
        Workload::Mix4Contended => {
            let path = trace.expect("the 4-core mix replays a recorded trace");
            vec![vec![
                Box::new(SpecWorkload::Mcf.generator(core_seed(0))),
                Box::new(IrregularWorkload::ZipfKv.generator(core_seed(1))),
                Box::new(SpecWorkload::Omnetpp.generator(core_seed(2))),
                Box::new(FileTrace::open(path, EndPolicy::Loop)?),
            ]]
        }
        _ => SpecWorkload::ALL
            .into_iter()
            .map(|wl| vec![Box::new(wl.generator(core_seed(0))) as Box<dyn TraceSource>])
            .collect(),
    })
}

/// Pulls `n` accesses from `source` through `TraceSource::fill`,
/// returning them and the seconds spent inside `fill`.
fn pull(source: &mut dyn TraceSource, n: u64) -> (Vec<MemoryAccess>, f64) {
    let mut ring = AccessRing::new();
    let mut out = Vec::with_capacity(n as usize);
    let mut secs = 0.0;
    while (out.len() as u64) < n {
        let t0 = std::time::Instant::now();
        source.fill(&mut ring);
        secs += t0.elapsed().as_secs_f64();
        while let Some(a) = ring.pop() {
            if (out.len() as u64) < n {
                out.push(a);
            }
        }
    }
    (out, secs)
}

/// Tags and translates one row's per-core streams the way the engine
/// does, interleaved round-robin across cores.
fn demands(streams: &[Vec<MemoryAccess>]) -> Vec<Demand> {
    let mut mapper = PageMapper::realistic(MAPPER_SEED);
    let len = streams.iter().map(Vec::len).min().unwrap_or(0);
    let mut out = Vec::with_capacity(len * streams.len());
    for i in 0..len {
        for (core, s) in streams.iter().enumerate() {
            let a = s[i];
            let vaddr =
                (a.vaddr.get() & ((1 << VADDR_TAG_SHIFT) - 1)) | ((core as u64) << VADDR_TAG_SHIFT);
            let pc = (a.pc.get() & ((1 << PC_TAG_SHIFT) - 1)) | ((core as u64) << PC_TAG_SHIFT);
            out.push(Demand {
                core,
                pc: Pc::new(pc),
                line: mapper.translate(Addr::new(vaddr)).line(),
            });
        }
    }
    out
}

fn system_config(w: Workload) -> SystemConfig {
    match w.cores() {
        1 => SystemConfig::paper_single_core(),
        n => SystemConfig::paper_n_core(n),
    }
}

fn issued(reports: &[&RunReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.cores)
        .map(|c| c.pf.prefetches_issued)
        .sum()
}

/// Traced run of `w`: see the module docs. Its length is set by its
/// work, not by `--seconds`. Writes every span to
/// `.bench_out/trace-<workload>-s<seed>.json` at exit.
pub fn traced_run(w: Workload, seed: u64, tmp: &Path) -> (Outcome, Gate) {
    let tracer = Tracer::new();
    let t = Some(&tracer);
    let mut gate = Gate::default();
    let mut m: Vec<Metric> = Vec::new();
    let cores = w.cores();

    // Set-up: the mix records its HashJoin core; every other workload
    // records its first generator for the replay probe below.
    let trace_path = tmp.join(if w.records_trace() {
        plan::TRACE_NAME
    } else {
        "probe.trc"
    });
    let (trace, record_s) = tracer.span(
        "workloads.record",
        || -> std::io::Result<Option<WorkloadSpec>> {
            if w.records_trace() {
                plan::record_hashjoin(tmp, w, seed).map(Some)
            } else {
                let mut first = SpecWorkload::ALL[0].generator(seed);
                record_trace(&mut first, REPLAY_ACCESSES, &trace_path).map(|_| None)
            }
        },
    );
    let trace = match trace {
        Ok(t) => t,
        Err(e) => {
            gate.check(false, || format!("recording {}: {e}", trace_path.display()));
            return (Outcome::default(), gate);
        }
    };
    m.push(metric("workloads.record_s", record_s, "s"));
    let own_jobs = w.jobs(seed, trace.as_ref());

    // Untraced reference pass of the workload's own jobs.
    let untraced = own_pass(&mut gate, None, w, &own_jobs, tmp);
    // Traced pass of the same work.
    let traced = tracer
        .span("pass.traced", || own_pass(&mut gate, t, w, &own_jobs, tmp))
        .0;
    let (Some(untraced), Some(traced)) = (untraced, traced) else {
        return (Outcome::default(), gate);
    };
    gate.check(untraced.digest == traced.digest, || {
        "traced and untraced passes simulated different results".to_string()
    });
    m.push(metric(
        "obs.tracing_overhead",
        untraced.aps / traced.aps,
        "ratio",
    ));

    // Every column on the workload's rows, run plainly (`JobSpec`
    // session + run), traced per column: the traced pass's runs, plus
    // the columns it lacks (all of them for the campaign workload).
    let own_cols: Vec<&str> = w.columns().into_iter().map(column_name).collect();
    let mut runs = traced.runs;
    let have_own = !runs.is_empty();
    tracer.span("plain", || {
        for col in COLUMNS {
            if have_own && own_cols.contains(&column_name(col)) {
                continue;
            }
            for job in w.jobs_for(&[col], seed, trace.as_ref()) {
                if let Some(run) = run_job(&mut gate, t, &job, cores) {
                    runs.push((job, run));
                }
            }
        }
    });
    let (mut build_s, mut plain_s) = (0.0, 0.0);
    let mut run_ns = HashMap::new();
    for col in COLUMNS {
        let name = column_name(col);
        let of_col = runs
            .iter()
            .filter(|(j, _)| column_name(j.prefetcher) == name);
        let (secs, accesses) =
            of_col.fold((0.0, 0), |(s, a), (_, r)| (s + r.run_s, a + r.accesses));
        run_ns.insert(name, ns_per(secs, accesses));
        if own_cols.contains(&name) {
            for (_, r) in runs
                .iter()
                .filter(|(j, _)| column_name(j.prefetcher) == name)
            {
                build_s += r.build_s;
                plain_s += r.build_s + r.run_s;
            }
        }
    }
    let plain: Vec<(JobSpec, RunReport)> = runs.into_iter().map(|(j, r)| (j, r.report)).collect();
    let by_key: HashMap<String, &RunReport> = plain.iter().map(|(j, r)| (j.key(), r)).collect();
    let own_plain: Vec<&RunReport> = own_jobs
        .iter()
        .filter_map(|j| by_key.get(&j.key()).copied())
        .collect();
    gate.check(
        own_plain.len() == own_jobs.len() && sim_digest(own_plain) == untraced.digest,
        || "plain runs simulated different results from the measured pass".to_string(),
    );
    m.push(metric("sim.build_s", build_s, "s"));
    for col in COLUMNS {
        let name = column_name(col);
        m.push(metric(format!("sim.run_ns.{name}"), run_ns[name], "ns"));
    }
    m.push(metric(
        "core.extra_ns",
        run_ns["triangel"] - run_ns["baseline"],
        "ns",
    ));
    m.push(metric(
        "triage.extra_ns",
        run_ns["triage_deg4"] - run_ns["baseline"],
        "ns",
    ));

    // The mix must simulate the same bytes with two generation threads.
    if w == Workload::Mix4Contended {
        let parallel: Vec<JobSpec> = own_jobs.iter().map(|j| j.clone().exec_threads(2)).collect();
        let reports: Vec<RunReport> = parallel
            .iter()
            .filter_map(|j| run_job(&mut gate, None, j, cores).map(|r| r.report))
            .collect();
        gate.check(sim_digest(&reports) == untraced.digest, || {
            "exec_threads 1 and 2 simulated different results".to_string()
        });
    }

    // Simulated counts, from the plain runs.
    let column = |col| of_column(plain.iter().map(|(j, r)| (j, r)), col);
    let base = column(PrefetcherChoice::Baseline);
    let tri = column(PrefetcherChoice::Triangel);
    let triage = column(PrefetcherChoice::TriageDeg4);
    let l2_misses = |rs: &[&RunReport]| rs.iter().map(|r| r.l2_demand_misses()).sum::<u64>();
    m.push(metric("core.issued", issued(&tri) as f64, "count"));
    m.push(metric("core.accuracy", pooled_accuracy(&tri), "ratio"));
    m.push(metric(
        "core.coverage",
        (1.0 - l2_misses(&tri) as f64 / l2_misses(&base).max(1) as f64).max(0.0),
        "ratio",
    ));
    m.push(metric("triage.issued", issued(&triage) as f64, "count"));
    m.push(metric("triage.accuracy", pooled_accuracy(&triage), "ratio"));
    let ways = tri.iter().map(|r| r.markov_ways).max().unwrap_or(0);
    m.push(metric("markov.ways", ways as f64, "count"));
    let pf = tri.iter().flat_map(|r| &r.cores).map(|c| c.pf);
    let (mrb, reads) = pf.fold((0, 0), |(h, r), s| (h + s.mrb_hits, r + s.markov_reads));
    m.push(metric(
        "markov.mrb_hit_ratio",
        mrb as f64 / (mrb + reads).max(1) as f64,
        "ratio",
    ));
    let own_reports = &untraced.reports;
    m.push(metric(
        "mem.dram_reads",
        own_reports.iter().map(RunReport::dram_reads).sum::<u64>() as f64,
        "count",
    ));
    m.push(metric(
        "mem.queue_delay_cycles",
        own_reports
            .iter()
            .map(|r| r.dram.total_queue_delay)
            .sum::<u64>() as f64,
        "cycles",
    ));

    // Standalone layer replays.
    let replay = tracer.span("replay", || {
        replays(&mut gate, &tracer, w, seed, &trace_path, own_reports)
    });
    match replay.0 {
        Ok(layer) => {
            let fill_ns = layer
                .iter()
                .find(|x| x.name == "workloads.fill_ns")
                .map(|x| x.value);
            let hier_ns = layer
                .iter()
                .find(|x| x.name == "sim.hierarchy_ns.baseline")
                .map(|x| x.value);
            if let (Some(f), Some(h)) = (fill_ns, hier_ns) {
                m.push(metric(
                    "sim.engine_self_ns.baseline",
                    run_ns["baseline"] - f - h,
                    "ns",
                ));
            }
            m.extend(layer);
        }
        Err(e) => gate.check(false, || format!("layer replay: {e}")),
    }
    snapshot_probe(&mut gate, &tracer, &own_jobs, &mut m);
    store_probe(
        &mut gate,
        &tracer,
        &own_jobs,
        own_reports,
        &tmp.join("store-probe"),
        &mut m,
    );

    // Harness: campaign wall against the same jobs run plainly.
    let campaign_s = traced.campaign_s.unwrap_or_else(|| {
        tracer
            .span("harness", || {
                harness_probe(
                    &mut gate,
                    &tracer,
                    &own_jobs,
                    &untraced.reports,
                    &tmp.join("harness"),
                    &mut m,
                )
            })
            .0
    });
    if let Some(c) = &traced.campaign {
        m.push(metric("harness.segments", c.0 as f64, "count"));
        m.push(metric("harness.resumed", c.1 as f64, "count"));
        m.push(metric("harness.loaded", c.2 as f64, "count"));
    }
    m.push(metric(
        "harness.overhead_share",
        (campaign_s - plain_s) / campaign_s,
        "ratio",
    ));

    print_self_times(&tracer);
    let out_dir = Path::new(".bench_out");
    let path = out_dir.join(format!("trace-{}-s{seed}.json", w.name()));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        eprintln!("[bench] could not write {}: {e}", path.display());
    } else {
        eprintln!("[bench] spans written to {}", path.display());
    }

    m.sort_by(|a, b| a.name.cmp(&b.name));
    let outcome = Outcome {
        metrics: m,
        jobs: own_jobs,
        digest: untraced.digest,
        reports: untraced.reports,
    };
    (outcome, gate)
}

/// One pass of a workload's own jobs, as `--trace 0` runs them.
struct OwnPass {
    aps: f64,
    digest: u64,
    reports: Vec<RunReport>,
    /// Every job run, in job order (empty for the campaign workload).
    runs: Vec<(JobSpec, JobRun)>,
    /// `campaign-resume` only: cold + resume wall seconds, and
    /// (segments, resumed, loaded).
    campaign_s: Option<f64>,
    campaign: Option<(u64, usize, usize)>,
}

fn own_pass(
    gate: &mut Gate,
    t: Option<&Tracer>,
    w: Workload,
    jobs: &[JobSpec],
    tmp: &Path,
) -> Option<OwnPass> {
    if w == Workload::CampaignResume {
        let dir = tmp.join(if t.is_some() {
            "campaign-traced"
        } else {
            "campaign"
        });
        let pass = measure::campaign_pass(gate, t, None, jobs, &dir, 1)?;
        let _ = std::fs::remove_dir_all(&dir);
        let (cold, resume) = (&pass.cold, &pass.resume);
        return Some(OwnPass {
            aps: pass.accesses as f64 / pass.run_s,
            runs: Vec::new(),
            digest: sim_digest(&pass.reports),
            campaign_s: Some(pass.run_s),
            campaign: Some((
                cold.stats.segments_run + resume.stats.segments_run,
                resume.stats.resumed,
                jobs.len(),
            )),
            reports: pass.reports,
        });
    }
    let mut runs = Vec::new();
    let (mut run_s, mut accesses) = (0.0, 0);
    for job in jobs {
        let run = run_job(gate, t, job, w.cores())?;
        run_s += run.run_s;
        accesses += run.accesses;
        runs.push((job.clone(), run));
    }
    let reports: Vec<RunReport> = runs.iter().map(|(_, r)| r.report.clone()).collect();
    Some(OwnPass {
        aps: accesses as f64 / run_s,
        digest: sim_digest(&reports),
        reports,
        runs,
        campaign_s: None,
        campaign: None,
    })
}

/// Trace generation, file replay, caches, Markov table, memory system
/// and DRAM, each replayed on the workload's own streams.
fn replays(
    gate: &mut Gate,
    tracer: &Tracer,
    w: Workload,
    seed: u64,
    trace_path: &Path,
    reports: &[RunReport],
) -> std::io::Result<Vec<Metric>> {
    let mut m = Vec::new();
    let cfg = system_config(w);
    let n = REPLAY_ACCESSES.min(w.params(seed).warmup + w.params(seed).accesses);

    // workloads: `TraceSource::fill` on every core's source.
    let mut rows = sources(w, seed, Some(trace_path))?;
    let mut fill_s = 0.0;
    let streams: Vec<Vec<Vec<MemoryAccess>>> = tracer
        .span("workloads.fill", || {
            rows.iter_mut()
                .map(|row| {
                    row.iter_mut()
                        .map(|s| {
                            let (acc, secs) = pull(s.as_mut(), n);
                            fill_s += secs;
                            acc
                        })
                        .collect()
                })
                .collect()
        })
        .0;
    let pulled = streams.iter().flatten().map(|s| s.len() as u64).sum();
    m.push(metric("workloads.fill_ns", ns_per(fill_s, pulled), "ns"));

    // workloads: `FileTrace` replay of the recording, checked against
    // the generator that produced it.
    let mut file = FileTrace::open(trace_path, EndPolicy::Loop)?;
    let records = file.records().min(n);
    let ((replayed, replay_s), _) = tracer.span("workloads.replay", || pull(&mut file, records));
    let (reference, _) = match w {
        Workload::Mix4Contended => pull(&mut plan::hashjoin_source(seed), records),
        _ => pull(&mut SpecWorkload::ALL[0].generator(seed), records),
    };
    gate.check(replayed == reference, || {
        "trace replay differs from the generator it recorded".to_string()
    });
    m.push(metric(
        "workloads.replay_ns",
        ns_per(replay_s, records),
        "ns",
    ));

    let rows: Vec<Vec<Demand>> = streams.iter().map(|r| demands(r)).collect();
    let total: u64 = rows.iter().map(|r| r.len() as u64).sum();

    // cache: paper L2 (per core) and L3 (shared), demand path only.
    let mut l2_misses: Vec<Vec<Demand>> = Vec::new();
    let mut l3_misses: Vec<Vec<LineAddr>> = Vec::new();
    let (mut l2_hits, mut l2_demand, mut l3_accesses) = (0u64, 0u64, 0u64);
    let mut caches: Vec<(Vec<Cache>, Cache)> = rows
        .iter()
        .map(|_| {
            let l2 = (0..w.cores()).map(|_| Cache::new(cfg.l2.clone())).collect();
            (l2, Cache::new(cfg.l3.clone()))
        })
        .collect();
    let (_, cache_s) = tracer.span("cache.replay", || {
        for (row, (l2, l3)) in rows.iter().zip(&mut caches) {
            let (mut miss2, mut miss3) = (Vec::new(), Vec::new());
            for d in row {
                if l2[d.core].access(d.line, Some(d.pc), false).hit {
                    continue;
                }
                if !l3.access(d.line, Some(d.pc), false).hit {
                    l3.fill(d.line, Some(d.pc), false);
                    miss3.push(d.line);
                }
                l2[d.core].fill(d.line, Some(d.pc), false);
                miss2.push(*d);
            }
            for c in l2.iter() {
                l2_hits += c.stats().demand_hits;
                l2_demand += c.stats().demand_accesses();
            }
            l3_accesses += l3.stats().demand_accesses();
            l2_misses.push(miss2);
            l3_misses.push(miss3);
        }
    });
    m.push(metric("cache.access_ns", ns_per(cache_s, total), "ns"));
    m.push(metric(
        "cache.l2_demand_misses",
        (l2_demand - l2_hits) as f64,
        "count",
    ));
    m.push(metric(
        "cache.l2_hit_rate",
        l2_hits as f64 / l2_demand.max(1) as f64,
        "ratio",
    ));
    m.push(metric("cache.l3_accesses", l3_accesses as f64, "count"));

    // markov: train on per-PC successive L2 misses, then look every
    // miss up, at full partition size.
    for (cfg_name, mcfg) in [
        ("triangel", MarkovTableConfig::triangel()),
        ("triage", MarkovTableConfig::triage()),
    ] {
        let (mut train_s, mut lookup_s, mut trains, mut lookups) = (0.0, 0.0, 0u64, 0u64);
        let (mut reads, mut writes) = (0u64, 0u64);
        for misses in &l2_misses {
            let mut last: HashMap<(usize, Pc), LineAddr> = HashMap::new();
            let pairs: Vec<(LineAddr, LineAddr, Pc)> = misses
                .iter()
                .filter_map(|d| {
                    last.insert((d.core, d.pc), d.line)
                        .map(|prev| (prev, d.line, d.pc))
                })
                .collect();
            let mut table = MarkovTableImpl::new(mcfg);
            table.set_ways(mcfg.max_ways);
            train_s += tracer
                .span(&format!("markov.train.{cfg_name}"), || {
                    for &(prev, next, pc) in &pairs {
                        table.train(prev, next, pc);
                    }
                })
                .1;
            lookup_s += tracer
                .span(&format!("markov.lookup.{cfg_name}"), || {
                    for d in misses {
                        std::hint::black_box(table.lookup(d.line));
                    }
                })
                .1;
            trains += pairs.len() as u64;
            lookups += misses.len() as u64;
            reads += table.stats().reads;
            writes += table.stats().writes;
        }
        let suffix = if cfg_name == "triangel" {
            String::new()
        } else {
            format!(".{cfg_name}")
        };
        m.push(metric(
            format!("markov.lookup_ns{suffix}"),
            ns_per(lookup_s, lookups),
            "ns",
        ));
        m.push(metric(
            format!("markov.train_ns{suffix}"),
            ns_per(train_s, trains),
            "ns",
        ));
        if cfg_name == "triangel" {
            m.push(metric("markov.reads", reads as f64, "count"));
            m.push(metric("markov.writes", writes as f64, "count"));
        }
    }

    // sim: `MemorySystem::demand_access` per column, one cycle apart.
    for col in COLUMNS {
        let name = column_name(col);
        let sizing = w.params(seed).sizing_window;
        let mut systems: Vec<MemorySystem> = rows
            .iter()
            .map(|_| {
                let pf = (0..w.cores()).map(|_| col.build_impl(sizing)).collect();
                MemorySystem::with_prefetchers(cfg.clone(), pf)
            })
            .collect();
        let (_, secs) = tracer.span(&format!("sim.hierarchy.{name}"), || {
            for (row, sys) in rows.iter().zip(&mut systems) {
                for (i, d) in row.iter().enumerate() {
                    std::hint::black_box(sys.demand_access(d.core, d.pc, d.line, i as u64));
                }
            }
        });
        m.push(metric(
            format!("sim.hierarchy_ns.{name}"),
            ns_per(secs, total),
            "ns",
        ));
    }

    // mem: `Dram::request_line` over the looped L3-miss stream, spaced
    // at the workload's simulated read rate.
    let reads: u64 = reports.iter().map(RunReport::dram_reads).sum();
    let cycles: u64 = reports
        .iter()
        .map(|r| r.cores.iter().map(|c| c.cycles).max().unwrap_or(0))
        .sum();
    let gap = (cycles / reads.max(1)).max(1);
    let lines: Vec<LineAddr> = l3_misses.into_iter().flatten().collect();
    gate.check(!lines.is_empty(), || {
        "the cache replay missed no L3 line".to_string()
    });
    if !lines.is_empty() {
        let mut dram = Dram::new(cfg.dram);
        let (_, secs) = tracer.span("mem.dram", || {
            for i in 0..DRAM_REQUESTS {
                let line = lines[(i % lines.len() as u64) as usize];
                std::hint::black_box(dram.request_line(i * gap, line.index(), false));
            }
        });
        m.push(metric(
            "mem.dram_request_ns",
            ns_per(secs, DRAM_REQUESTS),
            "ns",
        ));
    }
    Ok(m)
}

/// `SimSession::snapshot` and `restore` after each own column's first
/// job has run its warm-up.
fn snapshot_probe(gate: &mut Gate, tracer: &Tracer, jobs: &[JobSpec], m: &mut Vec<Metric>) {
    let mut seen = Vec::new();
    let (mut snap_s, mut restore_s, mut bytes, mut n) = (0.0, 0.0, 0usize, 0u32);
    for job in jobs {
        let col = column_name(job.prefetcher);
        if seen.contains(&col) {
            continue;
        }
        seen.push(col);
        let (Ok(mut session), Ok(mut fresh)) = (job.session(), job.session()) else {
            gate.check(false, || format!("{}: session build failed", job.key()));
            continue;
        };
        session.run_segment(job.params.warmup);
        let (snap, s) = tracer.span("sim.snapshot", || session.snapshot());
        let Ok(snap) = snap else {
            gate.check(false, || format!("{}: snapshot failed", job.key()));
            continue;
        };
        let (restored, r) = tracer.span("sim.restore", || fresh.restore(&snap));
        gate.check(
            restored.is_ok() && fresh.executed_accesses() == job.params.warmup,
            || format!("{}: restore failed", job.key()),
        );
        snap_s += s;
        restore_s += r;
        bytes += snap.len();
        n += 1;
    }
    let n = f64::from(n.max(1));
    m.push(metric("sim.snapshot_ms", snap_s * 1e3 / n, "ms"));
    m.push(metric("sim.restore_ms", restore_s * 1e3 / n, "ms"));
    m.push(metric(
        "sim.snapshot_mb",
        bytes as f64 / n / (1 << 20) as f64,
        "MB",
    ));
}

/// `ResultStore::put` and `get` of every own report in a fresh store.
fn store_probe(
    gate: &mut Gate,
    tracer: &Tracer,
    jobs: &[JobSpec],
    reports: &[RunReport],
    dir: &Path,
    m: &mut Vec<Metric>,
) {
    let store = match ResultStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            gate.check(false, || format!("opening the probe store: {e}"));
            return;
        }
    };
    let (mut put_s, mut get_s) = (0.0, 0.0);
    for (job, report) in jobs.iter().zip(reports) {
        let key = job.key();
        put_s += tracer.span("store.put", || store.put(&key, report)).1;
        let (got, s) = tracer.span("store.get", || store.get(&key));
        get_s += s;
        gate.check(
            got.is_some_and(|g| report_to_bytes(&g) == report_to_bytes(report)),
            || format!("{key}: store returned a different report"),
        );
    }
    let n = jobs.len().max(1) as f64;
    m.push(metric("store.put_ms", put_s * 1e3 / n, "ms"));
    m.push(metric("store.get_us", get_s * 1e6 / n, "us"));
}

/// For workloads that do not run through a campaign: a cold campaign
/// over their jobs (default segments), then a warm one. Returns the
/// cold campaign's wall seconds.
fn harness_probe(
    gate: &mut Gate,
    tracer: &Tracer,
    jobs: &[JobSpec],
    reports: &[RunReport],
    dir: &Path,
    m: &mut Vec<Metric>,
) -> f64 {
    let campaign = Campaign::new().jobs(jobs.iter().cloned());
    let opts = CampaignOptions::new(dir).workers(1);
    let (cold, secs) = tracer.span("harness.cold", || campaign.run(&opts));
    let (warm, _) = tracer.span("harness.warm", || campaign.run(&opts));
    match (cold, warm) {
        (Ok(c), Ok(wm)) => {
            let got: Vec<RunReport> = c
                .outcomes
                .iter()
                .filter_map(|o| o.report().map(|r| RunReport::clone(r)))
                .collect();
            gate.check(
                sim_digest(&got) == sim_digest(reports) && got.len() == reports.len(),
                || "campaign simulated different results from the plain runs".to_string(),
            );
            m.push(metric(
                "harness.segments",
                c.stats.segments_run as f64,
                "count",
            ));
            m.push(metric("harness.resumed", c.stats.resumed as f64, "count"));
            m.push(metric("harness.loaded", wm.stats.loaded as f64, "count"));
        }
        (Err(e), _) | (_, Err(e)) => gate.check(false, || format!("campaign: {e}")),
    }
    secs
}

/// Prints host self time per span name.
fn print_self_times(tracer: &Tracer) {
    eprintln!("[bench] host time by span (total s, self s, count):");
    for (name, total, own, count) in tracer.self_times() {
        eprintln!("[bench]   {name:<26} {total:>9.4} {own:>9.4} {count:>6}");
    }
}
