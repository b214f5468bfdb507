//! Property tests on [`JobSpec::key`]: equal keys ⇔ identical
//! simulations, including the documented omission rules (the sizing
//! window enters only where it is read; a features override enters only
//! where it is accepted).

use proptest::prelude::*;
use triangel_harness::{JobSpec, MapperSpec, RunParams, TriangelFeatures, WorkloadSpec};
use triangel_sim::PrefetcherChoice;
use triangel_triage::TriageConfig;
use triangel_workloads::spec::SpecWorkload;

fn workloads() -> Vec<WorkloadSpec> {
    let mut w: Vec<WorkloadSpec> = SpecWorkload::ALL
        .iter()
        .map(|s| WorkloadSpec::Spec(*s))
        .collect();
    w.push(WorkloadSpec::Pair(
        SpecWorkload::Xalan,
        SpecWorkload::Omnetpp,
    ));
    w.push(WorkloadSpec::Pair(SpecWorkload::Mcf, SpecWorkload::Gcc166));
    w
}

fn prefetchers() -> Vec<PrefetcherChoice> {
    use triangel_markov::TargetFormat;
    vec![
        PrefetcherChoice::Baseline,
        PrefetcherChoice::Triage,
        PrefetcherChoice::TriageDeg4,
        PrefetcherChoice::TriageDeg4Look2,
        PrefetcherChoice::TriageFormat(TargetFormat::triage_default()),
        PrefetcherChoice::TriageFormat(TargetFormat::Ideal32),
        PrefetcherChoice::Triangel,
        PrefetcherChoice::TriangelBloom,
        PrefetcherChoice::TriangelNoMrb,
        PrefetcherChoice::TriangelLadder(0),
        PrefetcherChoice::TriangelLadder(3),
        PrefetcherChoice::TriangelLadder(8),
        PrefetcherChoice::TriageCustom(TriageConfig::degree4()),
        PrefetcherChoice::TriangelCustom(triangel_core::TriangelConfig::paper_default()),
    ]
}

fn features_choices() -> Vec<Option<TriangelFeatures>> {
    vec![
        None,
        Some(TriangelFeatures {
            train_on_eviction: true,
            ..TriangelFeatures::all()
        }),
        Some(TriangelFeatures::none()),
    ]
}

fn mappers() -> Vec<MapperSpec> {
    vec![MapperSpec::Default, MapperSpec::Realistic(7)]
}

type Draw = ((usize, usize, usize), (u64, u64, u64, u64), usize);

/// Builds the job a draw describes.
fn job_of(d: Draw) -> JobSpec {
    let ((wl, pf, feat), (warmup, accesses, window, seed), mapper) = d;
    let mut job = JobSpec::new(
        workloads()[wl].clone(),
        prefetchers()[pf],
        RunParams {
            warmup: warmup * 1_000,
            accesses: accesses * 1_000,
            sizing_window: window * 500,
            seed,
        },
    )
    .mapper(mappers()[mapper]);
    if let Some(f) = features_choices()[feat] {
        job = job.features(f);
    }
    job
}

/// The identity of the simulation a job describes, written directly
/// from the documented semantics: every field that can change the
/// simulation, with the sizing window blanked for configurations that
/// never read it and the features override blanked where it is
/// ignored. Two jobs are the same simulation iff their identities are
/// equal — and `key()` must agree exactly.
fn identity(d: Draw) -> String {
    let ((wl, pf, feat), (warmup, accesses, window, seed), mapper) = d;
    let choice = prefetchers()[pf];
    let window = if choice.uses_sizing_window() {
        Some(window)
    } else {
        None
    };
    let features = match features_choices()[feat] {
        Some(f) if choice.accepts_feature_override() => Some(format!("{f:?}")),
        _ => None,
    };
    format!(
        "{:?}|{choice:?}|{warmup}|{accesses}|{window:?}|{seed}|{:?}|{features:?}",
        workloads()[wl],
        mappers()[mapper],
    )
}

fn draws() -> impl Strategy<Value = (Draw, Draw)> {
    let one = || {
        (
            (0usize..9, 0usize..14, 0usize..3),
            (1u64..4, 1u64..4, 1u64..4, 0u64..3),
            0usize..2,
        )
    };
    (one(), one())
}

proptest! {
    /// Distinct (config, features-override, scale, segmentless) tuples
    /// never collide, and identical tuples always share a key.
    #[test]
    fn keys_collide_exactly_when_simulations_coincide(pair in draws()) {
        let (a, b) = pair;
        let (ja, jb) = (job_of(a), job_of(b));
        let (ka, kb) = (ja.key(), jb.key());
        prop_assert_eq!(ka == kb, identity(a) == identity(b),
            "keys `{}` vs `{}`", ja.key(), jb.key());
        // Stability: a key is a pure function of the spec.
        prop_assert_eq!(ka, ja.clone().key());
    }

    /// Keys are single-line and tab-free, so every line-oriented
    /// record that quotes one verbatim (progress and store diagnostics
    /// on stderr) stays one line per event.
    #[test]
    fn keys_are_manifest_safe(d in (
        (0usize..9, 0usize..14, 0usize..3),
        (1u64..4, 1u64..4, 1u64..4, 0u64..3),
        0usize..2,
    )) {
        let key = job_of(d).key();
        prop_assert!(!key.contains('\n') && !key.contains('\t'), "key `{key}`");
    }
}

#[test]
fn omission_rules_are_pinned() {
    // `uses_sizing_window`: configurations that never read the window
    // share a key across sweeps that differ only in it.
    let p1 = RunParams {
        warmup: 1_000,
        accesses: 1_000,
        sizing_window: 100,
        seed: 1,
    };
    let p2 = RunParams {
        sizing_window: 999,
        ..p1
    };
    for pf in prefetchers() {
        let k1 = JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Mcf), pf, p1).key();
        let k2 = JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Mcf), pf, p2).key();
        assert_eq!(
            k1 == k2,
            !pf.uses_sizing_window(),
            "window omission rule violated for {pf:?}"
        );
    }
    // Unset features never mark the key; a set override marks it only
    // for configurations that accept one.
    let gate = TriangelFeatures {
        train_on_eviction: true,
        ..TriangelFeatures::all()
    };
    for pf in prefetchers() {
        let plain = JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Xalan), pf, p1);
        assert!(
            !plain.key().contains("|f="),
            "unset features leaked: {pf:?}"
        );
        let gated = plain.clone().features(gate);
        assert_eq!(
            plain.key() == gated.key(),
            !pf.accepts_feature_override(),
            "feature omission rule violated for {pf:?}"
        );
    }
}
