//! PR 6 job-control guarantees, checked end to end:
//!
//! * every interrupt — a tripped [`CancelToken`], an expired wall-clock
//!   deadline, a contained worker panic — surfaces as a **typed**
//!   [`MapError`] variant carrying a [`PartialMapping`], never a hang and
//!   never an abort;
//! * the salvaged partial is internally consistent
//!   ([`check_partial`]) and **resumable**: resuming a fresh mapper from
//!   its snapshot maps the network bit-identically to an uninterrupted
//!   run (counts, degraded nodes, candidate high-water mark, combine
//!   steps), and never re-solves a salvaged unit;
//! * a snapshot only resumes the run it was taken from: another network
//!   or a result-affecting config change is a typed error.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use soi_domino::circuits::misc::random::{generate, RandomSpec};
use soi_domino::circuits::registry;
use soi_domino::guard::check_partial;
use soi_domino::mapper::{
    CancelToken, Limits, MapConfig, MapError, Mapper, MappingResult, Parallelism, PartialMapping,
};
use soi_domino::netlist::Network;
use soi_domino::unate::{convert, Options};

const SCHEDULES: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(2)];

/// Audits the salvage, clears every interrupt knob, resumes from the
/// snapshot, and requires the resumed result to be bit-identical to
/// `clean`. Returns the resumed result for further inspection.
fn assert_resume_matches(
    clean: &MappingResult,
    partial: &Arc<PartialMapping>,
    interrupted: MapConfig,
    network: &Network,
    what: &str,
) -> MappingResult {
    if let Err(e) = check_partial(partial) {
        panic!("{what}: salvaged partial fails its audit: {e}");
    }
    let config = MapConfig {
        poison_node: None,
        limits: Limits {
            deadline: None,
            cancel: CancelToken::none(),
            cancel_after_steps: None,
            ..interrupted.limits
        },
        ..interrupted
    };
    let resumed = Mapper::soi(config)
        .resume_from(Arc::clone(partial))
        .run(network)
        .unwrap_or_else(|e| panic!("{what}: resume fails: {e}"));
    assert_eq!(clean.counts, resumed.counts, "{what}: counts diverge");
    assert_eq!(
        clean.degraded_nodes, resumed.degraded_nodes,
        "{what}: degraded nodes diverge"
    );
    assert_eq!(
        clean.peak_candidates, resumed.peak_candidates,
        "{what}: peak candidates diverge"
    );
    assert_eq!(
        clean.combine_steps, resumed.combine_steps,
        "{what}: combine steps diverge"
    );
    resumed
}

/// A token tripped before the run starts cancels at the first boundary
/// check: zero units complete, zero steps are charged, and the frontier
/// is exactly the partition's dependency-free units — on every schedule.
#[test]
fn pre_tripped_token_cancels_before_any_work() {
    let network = generate(&RandomSpec::control("jc-token", 14, 6, 90, 7));
    let clean = Mapper::soi(MapConfig::default())
        .run(&network)
        .expect("clean maps");
    let token = CancelToken::new();
    token.cancel();
    for parallelism in SCHEDULES {
        let config = MapConfig {
            parallelism,
            limits: Limits {
                cancel: token,
                ..Limits::default()
            },
            ..MapConfig::default()
        };
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("a tripped token must cancel the run");
        let MapError::Cancelled { what, partial } = err else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert!(what.contains("token"), "{what}");
        let partial = partial.expect("interrupts carry salvage");
        assert!(partial.is_empty());
        assert_eq!(partial.completed_units(), 0);
        assert_eq!(partial.combine_steps(), 0);

        let unate = convert(
            &network,
            &Options {
                output_phase: config.output_phase,
            },
        )
        .expect("converts");
        let partition = unate.cone_partition();
        assert_eq!(partial.total_units(), partition.units().len());
        let dep_free: Vec<usize> = partition
            .units()
            .iter()
            .enumerate()
            .filter(|(_, u)| u.deps().is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(partial.frontier(), &dep_free[..]);

        assert_resume_matches(&clean, &partial, config, &network, "tripped token");
    }
}

/// An expired deadline surfaces as `DeadlineExceeded` with the elapsed
/// time and the allowance, plus a resumable salvage. The allowance is
/// calibrated against the machine: fractions of the measured clean wall
/// time, largest first (fullest partial), with a zero deadline as the
/// guaranteed-trip fallback.
#[test]
fn deadline_trips_to_a_typed_error_with_salvage() {
    let network = generate(&RandomSpec::control("jc-deadline", 16, 8, 4000, 11));
    let base = MapConfig::default();
    let t0 = Instant::now();
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    let clean_wall = t0.elapsed();

    let mut allowances: Vec<Duration> = [2u32, 4, 8, 16, 64]
        .iter()
        .map(|d| clean_wall / *d)
        .collect();
    allowances.push(Duration::ZERO);
    let mut tripped = None;
    for allowance in allowances {
        let config = MapConfig {
            limits: Limits {
                deadline: Some(allowance),
                ..base.limits
            },
            ..base
        };
        match Mapper::soi(config).run(&network) {
            // The machine outran this allowance; tighten and retry.
            Ok(_) => continue,
            Err(e) => {
                tripped = Some((e, config));
                break;
            }
        }
    }
    let (err, config) = tripped.expect("a zero deadline always trips");
    let MapError::DeadlineExceeded {
        elapsed,
        deadline,
        partial,
    } = err
    else {
        panic!("expected DeadlineExceeded, got {err:?}");
    };
    assert!(elapsed >= deadline);
    let partial = partial.expect("interrupts carry salvage");
    // Only the zero-allowance fallback may legitimately salvage nothing.
    assert!(
        !partial.is_empty() || deadline == Duration::ZERO,
        "{partial}"
    );
    assert_resume_matches(&clean, &partial, config, &network, "deadline");
}

/// A poisoned cone unit panics its worker; the panic is contained as a
/// typed `WorkerPanicked` naming the unit, the other workers drain
/// cleanly, and the completed units resume bit-identically — on every
/// schedule.
#[test]
fn poisoned_unit_is_contained_and_salvaged() {
    let network = generate(&RandomSpec::control("jc-poison", 14, 6, 120, 3));
    let base = MapConfig::default();
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    let unate = convert(
        &network,
        &Options {
            output_phase: base.output_phase,
        },
    )
    .expect("converts");
    let partition = unate.cone_partition();
    // Poison the last unit that has dependencies: its deps complete before
    // it is scheduled, so the salvage is non-empty under every schedule.
    let (target, unit) = partition
        .units()
        .iter()
        .enumerate()
        .rev()
        .find(|(_, u)| !u.deps().is_empty())
        .expect("a 120-gate network has dependent cone units");
    for parallelism in SCHEDULES {
        let config = MapConfig {
            parallelism,
            poison_node: Some(unit.root().index() as u32),
            ..base
        };
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("a poisoned unit must fail the run");
        let MapError::WorkerPanicked {
            unit: failed,
            payload,
            partial,
        } = err
        else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(failed, target, "the poisoned unit is the one that fails");
        assert!(payload.contains("injected fault"), "{payload}");
        let partial = partial.expect("contained panics carry salvage");
        assert!(!partial.is_empty(), "{partial}");
        assert!(partial.completed_units() < partial.total_units());
        assert_resume_matches(&clean, &partial, config, &network, "poison");
    }
}

/// Registry sweep: cancel each circuit halfway through its combine-step
/// budget, then resume from the salvage. The resumed run never re-solves
/// a salvaged unit — poisoning one of them cannot fail the resume — and
/// lands bit-identical.
#[test]
fn registry_circuits_cancel_and_resume_bit_identically() {
    for name in ["cm150", "mux", "z4ml", "cordic", "frg1", "b9"] {
        let network = registry::benchmark(name).expect("registered benchmark");
        let base = MapConfig {
            parallelism: Parallelism::Serial,
            ..MapConfig::default()
        };
        let clean = Mapper::soi(base).run(&network).expect("clean maps");
        assert!(clean.combine_steps > 0, "{name}: no DP work to interrupt");
        let config = MapConfig {
            limits: Limits {
                cancel_after_steps: Some((clean.combine_steps / 2).max(1)),
                ..base.limits
            },
            ..base
        };
        let err = Mapper::soi(config)
            .run(&network)
            .expect_err("the halfway trip must fire");
        let MapError::Cancelled { partial, .. } = err else {
            panic!("{name}: expected Cancelled, got {err:?}");
        };
        let partial = partial.expect("interrupts carry salvage");
        assert!(partial.combine_steps() <= clean.combine_steps, "{name}");
        assert_resume_matches(&clean, &partial, config, &network, name);

        // The serial walk completes units in index order, so unit
        // `completed - 1` is salvaged. Poisoning it cannot fail a resume,
        // which copies the snapshot in instead of solving; poisoning a
        // frontier unit, which the resume must solve, does.
        let unate = convert(&network, &Options::default()).expect("converts");
        let partition = unate.cone_partition();
        assert!(
            !partial.is_empty(),
            "{name}: a halfway trip completes units"
        );
        let resume_poisoned = |unit: usize| {
            Mapper::soi(MapConfig {
                poison_node: Some(partition.unit(unit).root().index() as u32),
                ..base
            })
            .resume_from(Arc::clone(&partial))
            .run(&network)
        };
        let salvaged = resume_poisoned(partial.completed_units() - 1)
            .unwrap_or_else(|e| panic!("{name}: a salvaged unit was re-solved: {e}"));
        assert_eq!(clean.counts, salvaged.counts, "{name}");
        assert_eq!(clean.combine_steps, salvaged.combine_steps, "{name}");
        let frontier = partial.frontier()[0];
        assert!(
            matches!(
                resume_poisoned(frontier),
                Err(MapError::WorkerPanicked { unit, .. }) if unit == frontier
            ),
            "{name}: the frontier unit must be solved on resume"
        );
    }
}

/// A snapshot only resumes the run it was taken from. Resuming another
/// network, the same network under a different `clock_weight`, or with
/// another algorithm is refused with the typed `SnapshotMismatch` —
/// never rebound onto the wrong nodes.
#[test]
fn foreign_snapshots_are_refused_with_a_typed_error() {
    let network = registry::benchmark("frg1").expect("registered benchmark");
    let other = registry::benchmark("cordic").expect("registered benchmark");
    let base = MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    };
    let clean = Mapper::soi(base).run(&network).expect("clean maps");
    let err = Mapper::soi(MapConfig {
        limits: Limits {
            cancel_after_steps: Some((clean.combine_steps / 2).max(1)),
            ..base.limits
        },
        ..base
    })
    .run(&network)
    .expect_err("the halfway trip must fire");
    let partial = Arc::clone(err.partial().expect("interrupts carry salvage"));
    assert!(!partial.is_empty());

    let refused = |what: &str, result: Result<MappingResult, MapError>| match result {
        Err(MapError::SnapshotMismatch { .. }) => {}
        other => panic!("{what}: expected SnapshotMismatch, got {other:?}"),
    };
    refused(
        "other network",
        Mapper::soi(base)
            .resume_from(Arc::clone(&partial))
            .run(&other),
    );
    refused(
        "other clock weight",
        Mapper::soi(MapConfig {
            clock_weight: 2,
            ..base
        })
        .resume_from(Arc::clone(&partial))
        .run(&network),
    );
    refused(
        "other algorithm",
        Mapper::baseline(base)
            .resume_from(Arc::clone(&partial))
            .run(&network),
    );
    // Scheduling is not part of the fingerprint: the same snapshot
    // resumes on the pool.
    let resumed = Mapper::soi(MapConfig {
        parallelism: Parallelism::Threads(2),
        ..base
    })
    .resume_from(partial)
    .run(&network)
    .expect("a scheduling change still resumes");
    assert_eq!(clean.counts, resumed.counts);
    assert_eq!(clean.combine_steps, resumed.combine_steps);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized sweep: cancelling at a random fraction of the clean
    /// run's combine-step budget — under serial and parallel schedules,
    /// resumed on either — always yields a salvage whose resume is
    /// bit-identical to the uninterrupted run.
    #[test]
    fn prop_cancel_salvage_resumes_bit_identically(
        seed in 0u64..10_000,
        gates in 20usize..140,
        frac in 10u64..90,
    ) {
        let network = generate(&RandomSpec::control("jc-prop", 12, 4, gates, seed));
        let base = MapConfig::default();
        let clean = Mapper::soi(base).run(&network).expect("clean maps");
        let trip_at = (clean.combine_steps * frac / 100).max(1);
        let schedules = [
            (Parallelism::Serial, Parallelism::Serial),
            (Parallelism::Threads(2), Parallelism::Threads(2)),
            (Parallelism::Threads(2), Parallelism::Serial),
        ];
        for (parallelism, resume_on) in schedules {
            let config = MapConfig {
                parallelism,
                limits: Limits {
                    cancel_after_steps: Some(trip_at),
                    ..base.limits
                },
                ..base
            };
            // The trip point is at or below the total budget, so the run
            // can never finish: the crossing charge observes the trip.
            let err = match Mapper::soi(config).run(&network) {
                Err(e) => e,
                Ok(_) => {
                    prop_assert!(false, "trip at {trip_at} of {} did not fire", clean.combine_steps);
                    unreachable!()
                }
            };
            prop_assert!(matches!(err, MapError::Cancelled { .. }), "{err:?}");
            let partial = err.partial().expect("interrupts carry salvage");
            let resume_config = MapConfig {
                parallelism: resume_on,
                ..config
            };
            assert_resume_matches(&clean, partial, resume_config, &network, "prop");
        }
    }
}
