//! Job control for a mapping run: cooperative cancellation and
//! partial-result salvage.
//!
//! A long mapping can be interrupted three ways — an external
//! [`CancelToken`] trips, the wall-clock [`Limits::deadline`](crate::Limits)
//! expires, or a worker panics on a poisoned cone unit. All three surface
//! as a typed [`MapError`](crate::MapError) variant carrying a
//! [`PartialMapping`]: a snapshot of every cone unit the run finished
//! (its per-node solutions, degraded nodes and combine-step charge, keyed
//! by unit index), plus the unfinished frontier. A resumed run
//! ([`Mapper::resume_from`](crate::Mapper::resume_from)) copies the
//! snapshot in and only solves what was lost — bit-identically to an
//! uninterrupted run.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};

use soi_netlist::fx::FxBuildHasher;
use soi_unate::{ConePartition, UId, UnateNetwork};

use crate::tuple::NodeSol;
use crate::{Algorithm, MapConfig, MapError};

/// A shared flag for cancelling an in-flight mapping run from another
/// thread.
///
/// The token is `Copy` like [`TraceHandle`](crate::TraceHandle): it wraps a
/// leaked `&'static AtomicBool`, so handing it to a config struct and to a
/// controller thread needs no reference counting. [`CancelToken::none`]
/// (the default) can never trip and costs one branch per check.
///
/// Equality and hashing are by identity — two tokens are equal when they
/// share the same flag.
#[derive(Clone, Copy)]
pub struct CancelToken {
    flag: Option<&'static AtomicBool>,
}

impl CancelToken {
    /// A token that can never be cancelled (the default).
    pub const fn none() -> CancelToken {
        CancelToken { flag: None }
    }

    /// Creates a fresh, untripped token.
    ///
    /// The backing flag is leaked: tokens are tiny and meant to be created
    /// per long-running job, mirroring the recorder-installation idiom in
    /// `soi-trace`.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Some(Box::leak(Box::new(AtomicBool::new(false)))),
        }
    }

    /// Trips the token. Every run sharing it observes the cancellation at
    /// its next check; a no-op on [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(flag) = self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Identity of the backing flag, for [`Eq`]/[`Hash`].
    fn addr(&self) -> usize {
        self.flag.map_or(0, |f| f as *const AtomicBool as usize)
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::none()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.flag {
            None => write!(f, "CancelToken::none"),
            Some(flag) => f
                .debug_struct("CancelToken")
                .field("cancelled", &flag.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        self.addr() == other.addr()
    }
}

impl Eq for CancelToken {}

impl Hash for CancelToken {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.addr().hash(state);
    }
}

/// What an interrupted mapping run managed to finish.
///
/// Carried by the interrupt variants of [`MapError`](crate::MapError)
/// (`Cancelled`, `DeadlineExceeded`, `WorkerPanicked`). Every completed
/// cone unit is snapshotted by index — its solutions, degraded nodes and
/// the combine steps it charged — so resuming is just re-running with
/// [`Mapper::resume_from`](crate::Mapper::resume_from)`(partial)`: the
/// snapshot is copied in instead of re-solved, and the result is
/// bit-identical to an uninterrupted run. The snapshot is bound to a
/// fingerprint of the unate network, the algorithm and the
/// result-affecting config fields; a resume that does not match it fails
/// with [`MapError::SnapshotMismatch`](crate::MapError::SnapshotMismatch).
#[derive(Clone)]
pub struct PartialMapping {
    frontier: Vec<usize>,
    combine_steps: u64,
    fingerprint: u64,
    /// One slot per cone unit; `Some` for every completed unit.
    units: Vec<Option<SalvagedUnit>>,
}

/// The snapshot of one completed cone unit.
#[derive(Clone)]
pub(crate) struct SalvagedUnit {
    /// Solutions aligned with [`ConeUnit::nodes`](soi_unate::ConeUnit::nodes).
    pub sols: Vec<NodeSol>,
    /// The unit's nodes the degradation fallback fired on.
    pub degraded: Vec<UId>,
    /// Combine steps the unit charged.
    pub steps: u64,
}

impl PartialMapping {
    pub(crate) fn new(
        frontier: Vec<usize>,
        combine_steps: u64,
        fingerprint: u64,
        units: Vec<Option<SalvagedUnit>>,
    ) -> PartialMapping {
        PartialMapping {
            frontier,
            combine_steps,
            fingerprint,
            units,
        }
    }

    /// Cone units in the run's partition.
    pub fn total_units(&self) -> usize {
        self.units.len()
    }

    /// Cone units the run finished before the interrupt — all of them
    /// snapshotted.
    pub fn completed_units(&self) -> usize {
        self.units.iter().filter(|u| u.is_some()).count()
    }

    /// Unfinished cone units whose dependencies all completed — the work
    /// the interrupt actually cut off. Empty only when every unit finished
    /// (an interrupt observed after the last unit).
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// Combine steps charged before the interrupt.
    pub fn combine_steps(&self) -> u64 {
        self.combine_steps
    }

    /// Whether the interrupt arrived before any unit completed.
    pub fn is_empty(&self) -> bool {
        self.units.iter().all(Option::is_none)
    }

    /// The snapshot of unit `u`, when it completed.
    pub(crate) fn unit(&self, u: usize) -> Option<&SalvagedUnit> {
        self.units[u].as_ref()
    }

    /// Refuses to resume a run this snapshot was not taken from: the
    /// fingerprint and the unit count must both match.
    pub(crate) fn check_resumes(
        &self,
        unate: &UnateNetwork,
        partition: &ConePartition,
        config: &MapConfig,
        algorithm: Algorithm,
    ) -> Result<(), MapError> {
        if self.fingerprint != fingerprint(unate, config, algorithm) {
            return Err(MapError::SnapshotMismatch {
                what: "the network, algorithm or a result-affecting config field differs".into(),
            });
        }
        if self.units.len() != partition.units().len() {
            return Err(MapError::SnapshotMismatch {
                what: format!(
                    "snapshot has {} cone units, the network {}",
                    self.units.len(),
                    partition.units().len()
                ),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for PartialMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartialMapping")
            .field("total_units", &self.total_units())
            .field("completed_units", &self.completed_units())
            .field("frontier", &self.frontier)
            .field("combine_steps", &self.combine_steps)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for PartialMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} cone units completed ({} on the frontier) after {} combine steps",
            self.completed_units(),
            self.total_units(),
            self.frontier.len(),
            self.combine_steps
        )
    }
}

/// Everything a DP result depends on: the unate network's structure, the
/// algorithm, and the config fields that change solutions. Scheduling
/// (`parallelism`), instrumentation (`trace`), fault injection
/// (`poison_node`) and the job-control and pass/fail budgets of `limits`
/// are excluded — a resume clears its interrupt knobs and must still
/// match the run it revives. `limits.max_tuples_per_node` re-prunes
/// candidate sets, so it participates.
pub(crate) fn fingerprint(unate: &UnateNetwork, config: &MapConfig, algorithm: Algorithm) -> u64 {
    let mut h = FxBuildHasher::with_seed(0).build_hasher();
    for (_, node) in unate.iter() {
        node.hash(&mut h);
    }
    for output in unate.outputs() {
        output.signal.hash(&mut h);
        output.inverted.hash(&mut h);
    }
    algorithm.hash(&mut h);
    config.w_max.hash(&mut h);
    config.h_max.hash(&mut h);
    config.objective.hash(&mut h);
    config.clock_weight.hash(&mut h);
    config.depth_level_weight.hash(&mut h);
    config.footing.hash(&mut h);
    config.and_order.hash(&mut h);
    config.baseline_order.hash(&mut h);
    config.max_candidates.hash(&mut h);
    config.output_phase.hash(&mut h);
    config.allow_duplication.hash(&mut h);
    config.degrade_unmappable.hash(&mut h);
    config.limits.max_tuples_per_node.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_trips() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(!t.is_cancelled());
        assert_eq!(t, CancelToken::default());
    }

    #[test]
    fn fresh_token_trips_once_for_every_copy() {
        let t = CancelToken::new();
        let copy = t;
        assert!(!copy.is_cancelled());
        t.cancel();
        assert!(copy.is_cancelled());
        assert_eq!(t, copy);
        assert_ne!(t, CancelToken::new());
        assert_ne!(t, CancelToken::none());
    }

    fn done() -> Option<SalvagedUnit> {
        Some(SalvagedUnit {
            sols: Vec::new(),
            degraded: Vec::new(),
            steps: 0,
        })
    }

    #[test]
    fn partial_mapping_reports_progress() {
        let mut units = vec![None; 10];
        for u in [0, 1, 2, 3] {
            units[u] = done();
        }
        let p = PartialMapping::new(vec![4, 7], 1234, 0, units);
        assert_eq!(p.total_units(), 10);
        assert_eq!(p.completed_units(), 4);
        assert_eq!(p.frontier(), &[4, 7]);
        assert_eq!(p.combine_steps(), 1234);
        assert!(!p.is_empty());
        assert!(p.unit(3).is_some() && p.unit(4).is_none());
        let s = p.to_string();
        assert!(s.contains("4/10"), "{s}");
        assert!(s.contains("2 on the frontier"), "{s}");
    }

    #[test]
    fn fingerprint_tracks_results_not_scheduling() {
        use crate::{Limits, Parallelism};
        use soi_unate::{Literal, Phase, USignal};
        let mut unate = UnateNetwork::new(vec!["a".into(), "b".into()]);
        let lit = |input| Literal {
            input,
            phase: Phase::Pos,
        };
        let a = unate.add_literal(lit(0));
        let b = unate.add_literal(lit(1));
        let f = unate.add_and(a, b);
        unate.add_output("f", USignal::Node(f), false);
        let base = MapConfig::default();
        let soi = Algorithm::SoiDominoMap;
        let f0 = fingerprint(&unate, &base, soi);
        assert_eq!(f0, fingerprint(&unate, &base, soi));
        assert_ne!(f0, fingerprint(&unate, &base, Algorithm::DominoMap));
        for changed in [
            MapConfig::depth(),
            MapConfig::with_clock_weight(2),
            MapConfig { w_max: 3, ..base },
            MapConfig {
                limits: Limits {
                    max_tuples_per_node: 17,
                    ..base.limits
                },
                ..base
            },
        ] {
            assert_ne!(f0, fingerprint(&unate, &changed, soi), "{changed:?}");
        }
        let controlled = MapConfig {
            parallelism: Parallelism::Threads(7),
            poison_node: Some(3),
            limits: Limits {
                deadline: Some(std::time::Duration::from_millis(5)),
                cancel: CancelToken::new(),
                cancel_after_steps: Some(100),
                ..base.limits
            },
            ..base
        };
        assert_eq!(f0, fingerprint(&unate, &controlled, soi));
        let mut other = unate.clone();
        other.add_output("g", USignal::Node(a), false);
        assert_ne!(f0, fingerprint(&other, &base, soi));
    }
}
