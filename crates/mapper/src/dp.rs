//! Shared pieces of the two tuple DPs, including the driver that walks a
//! unate network — serially, or across independent fanout-free cones on a
//! persistent work-stealing worker pool — and hands each node to an
//! algorithm-specific solver.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soi_trace::{Counter, Gauge, Stage, TraceHandle};
use soi_unate::{ConePartition, ConeUnit, Literal, UId, UNode, UnateNetwork};

use crate::arena::CandArena;
use crate::job::{self, CancelToken, PartialMapping, SalvagedUnit};
use crate::tuple::{Cand, CandRef, Form, GateSol, NodeSol, TupleKey};
use crate::{Algorithm, Cost, CostModel, Footing, MapConfig, MapError};

/// The product of one DP run over a unate network.
pub(crate) struct Solution {
    /// One solution per unate node.
    pub(crate) sols: Vec<NodeSol>,
    /// Nodes where the degradation fallback forced a gate boundary (empty
    /// unless [`MapConfig::degrade_unmappable`] is set and triggered).
    pub(crate) degraded: Vec<UId>,
    /// Largest exported-candidate count any single node reached — the
    /// memory high-water mark of the DP (diagnostics; deterministic).
    pub(crate) peak_candidates: usize,
    /// Worker threads the schedule actually used.
    pub(crate) threads_used: usize,
    /// Candidate-combination steps the run charged against its budget —
    /// identical across serial and parallel schedules, and on a resume
    /// (salvaged units bulk-charge the step count they originally cost).
    pub(crate) combine_steps: u64,
}

/// Running charge against the per-run combine-step budget
/// ([`crate::Limits::max_combine_steps`]).
///
/// The counter is a shared atomic so cone workers running on different
/// threads charge the same global allowance: the budget stays a single
/// deterministic limit on the *total* amount of combination work, not a
/// per-thread one. Whether a run trips the budget is therefore identical
/// between serial and parallel execution, and between a resumed run and
/// an uninterrupted one (a salvaged unit charges the exact step count its
/// solve cost); only which node reports the exhaustion first may differ
/// under contention.
///
/// The budget doubles as the run's **interrupt poll point**: the shared
/// cancellation token, the deterministic step trip and the wall-clock
/// deadline from [`crate::Limits`] are checked here — once per
/// [`CHECK_STRIDE`] combine steps inside the inner loop, plus at every
/// cone-unit boundary — so every worker observes an interrupt within a
/// bounded amount of work without putting an `Instant::now()` on the hot
/// path.
pub(crate) struct Budget {
    steps: AtomicU64,
    max_steps: u64,
    cancel: CancelToken,
    /// `Limits::cancel_after_steps`, or `u64::MAX` when unset.
    cancel_after: u64,
    /// `(fire instant, configured allowance)` when a deadline is set.
    deadline: Option<(Instant, Duration)>,
    started: Instant,
    /// First-trip latch so `cancels_observed` counts interrupts, not polls.
    tripped: AtomicBool,
    trace: TraceHandle,
}

/// Combine steps between interrupt polls. Coarse enough that the poll
/// (an atomic load, occasionally a clock read) vanishes next to the
/// candidate combination work of a stride; fine enough that a cancel or
/// deadline is observed within microseconds on every schedule.
const CHECK_STRIDE: u64 = 1024;

impl Budget {
    pub(crate) fn new(config: &MapConfig) -> Budget {
        let started = Instant::now();
        Budget {
            steps: AtomicU64::new(0),
            max_steps: config.limits.max_combine_steps,
            cancel: config.limits.cancel,
            cancel_after: config.limits.cancel_after_steps.unwrap_or(u64::MAX),
            deadline: config.limits.deadline.map(|d| (started + d, d)),
            started,
            tripped: AtomicBool::new(false),
            trace: config.trace,
        }
    }

    /// Single-step charge — test convenience over
    /// [`charge_many`](Budget::charge_many).
    #[cfg(test)]
    pub(crate) fn charge(&self, node: UId) -> Result<(), MapError> {
        self.charge_many(1, node)
    }

    /// Charges `n` candidate-combination steps at once — how a salvaged
    /// unit pays for the combination work its solve originally cost, and
    /// how the solvers charge a node's candidate cross-product, keeping the
    /// cumulative total (and with it budget-trip behaviour) identical
    /// across both paths.
    pub(crate) fn charge_many(&self, n: u64, node: UId) -> Result<(), MapError> {
        let before = self.steps.fetch_add(n, Ordering::Relaxed);
        let steps = before + n;
        if steps > self.max_steps {
            return Err(MapError::BudgetExceeded {
                what: format!(
                    "combine-step budget of {} exhausted at node {node}",
                    self.max_steps
                ),
            });
        }
        // Poll interrupts once per stride — and always when this charge
        // crossed the deterministic test trip, so `cancel_after_steps`
        // interrupts at the exact step count regardless of stride phase.
        if before / CHECK_STRIDE != steps / CHECK_STRIDE || steps >= self.cancel_after {
            self.check_interrupt()?;
        }
        Ok(())
    }

    /// Polls the run's interrupt sources: the cancellation token, the
    /// deterministic step trip, then the wall-clock deadline. Called from
    /// the charge stride, at cone-unit boundaries, and by the scheduler's
    /// worker loop.
    pub(crate) fn check_interrupt(&self) -> Result<(), MapError> {
        if self.cancel.is_cancelled() {
            self.trip();
            return Err(MapError::Cancelled {
                what: "cancellation token tripped".into(),
                partial: None,
            });
        }
        if self.steps.load(Ordering::Relaxed) >= self.cancel_after {
            self.trip();
            return Err(MapError::Cancelled {
                what: format!("deterministic trip at {} combine steps", self.cancel_after),
                partial: None,
            });
        }
        if let Some((at, allowance)) = self.deadline {
            if Instant::now() >= at {
                self.trip();
                return Err(MapError::DeadlineExceeded {
                    elapsed: self.started.elapsed(),
                    deadline: allowance,
                    partial: None,
                });
            }
        }
        Ok(())
    }

    /// Counts the first observed interrupt (workers racing to the same
    /// trip report one cancellation, not one per worker).
    fn trip(&self) {
        if !self.tripped.swap(true, Ordering::Relaxed) {
            self.trace.count(Counter::CancelsObserved, 1);
        }
    }

    /// Total steps charged so far across all workers.
    pub(crate) fn total(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }
}

/// Rejects networks larger than the gate budget before any DP work.
pub(crate) fn check_gate_budget(unate: &UnateNetwork, config: &MapConfig) -> Result<(), MapError> {
    if unate.len() > config.limits.max_gates {
        return Err(MapError::BudgetExceeded {
            what: format!(
                "network has {} unate nodes, budget allows {}",
                unate.len(),
                config.limits.max_gates
            ),
        });
    }
    Ok(())
}

/// Per-worker context for solver invocations: the shared read-only run
/// state plus this worker's running step count (used to price completed
/// units for salvage).
pub(crate) struct NodeCtx<'a> {
    pub config: &'a MapConfig,
    pub model: &'a CostModel,
    pub fanouts: &'a [u32],
    budget: &'a Budget,
    steps: Cell<u64>,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(
        config: &'a MapConfig,
        model: &'a CostModel,
        fanouts: &'a [u32],
        budget: &'a Budget,
    ) -> NodeCtx<'a> {
        NodeCtx {
            config,
            model,
            fanouts,
            budget,
            steps: Cell::new(0),
        }
    }

    /// Bulk-charges `n` steps at `node`, keeping the worker tally in step
    /// with the global budget so completed units are priced correctly.
    /// Used by salvaged units paying for the work their solve originally
    /// cost, and by the solvers' combination loops, which charge a node's
    /// whole candidate cross-product upfront — one atomic add per node
    /// instead of one per pair, with an identical cumulative total (so
    /// budget-trip behaviour is unchanged).
    pub(crate) fn charge_many(&self, n: u64, node: UId) -> Result<(), MapError> {
        self.steps.set(self.steps.get() + n);
        self.budget.charge_many(n, node)
    }

    fn steps_so_far(&self) -> u64 {
        self.steps.get()
    }

    /// Polls the run's interrupt sources (see [`Budget::check_interrupt`]).
    pub(crate) fn check_interrupt(&self) -> Result<(), MapError> {
        self.budget.check_interrupt()
    }
}

/// Per-worker scratch arenas, reused across nodes so per-node accumulation
/// and pruning never allocate in steady state. All candidate payloads live
/// in the row-major [`CandArena`]; the vectors around it carry only `u32`
/// handles. The SOI solver copies both fanins' export lists into
/// `left`/`right`, buckets every combination by shape as it is generated
/// (`buckets`, replacing a stable sort over the whole pair list), prunes
/// each bucket with the batched skyline prune
/// ([`crate::arena::skyline_prune`]) via `order`/`keyed`/`kept`, and
/// stages the survivors in `staged` with their runs described by `shapes`.
/// The baseline keeps its key-sorted best-per-shape list in `pairs`.
/// Everything is cleared — never dropped — between nodes, so capacity is
/// retained across nodes *and* cone units for the lifetime of the worker.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Struct-of-arrays storage for every candidate of the current node.
    pub cands: CandArena,
    /// Key-sorted best-per-shape accumulation list (baseline DP).
    pub pairs: Vec<(TupleKey, u32)>,
    /// Materialized fanin export lists: copied once per node so the
    /// quadratic combination loop reads two dense slices instead of
    /// re-walking nested run iterators on every outer iteration.
    pub left: Vec<(CandRef, Cand)>,
    pub right: Vec<(CandRef, Cand)>,
    /// Shape runs of `right`: `(key, start, len)` — lets the combination
    /// loop test shape limits once per run instead of once per pair.
    pub right_runs: Vec<(TupleKey, u32, u32)>,
    /// Per-shape generation-order candidate buckets, indexed
    /// `(w-1)·h_grid + (h-1)` (SOI DP).
    pub buckets: Vec<Vec<u32>>,
    /// Skyline sweep ordering scratch: `(lex-prefix key, position)`.
    pub order: Vec<(u64, u32)>,
    /// Skyline final-ranking scratch: `(packed model key, position)`.
    pub keyed: Vec<(u128, u32)>,
    /// Pareto-pruning keep buffer for one shape run (handles).
    pub kept: Vec<u32>,
    /// Per-shape survivor runs: `(key, start, len)` into `staged`.
    pub shapes: Vec<(TupleKey, u32, u32)>,
    /// Survivor staging list (handles).
    pub staged: Vec<u32>,
}

/// The published per-node solutions of one DP run.
///
/// Slots are written exactly once — by the single worker that solves the
/// owning cone, or copies in its salvaged snapshot — and only read by
/// workers whose cone depends on that one, after the scheduler has
/// established a happens-before edge (dependency-counter release/acquire
/// plus the queue mutex). That write-once/read-after discipline is what
/// makes the `UnsafeCell` sound and buys the O(1) fanin lookup that
/// replaced the old worker-local overlay scan.
pub(crate) struct SolTable {
    slots: Box<[std::cell::UnsafeCell<Option<NodeSol>>]>,
}

// SAFETY: see the type docs — each slot has exactly one writer, and every
// reader is ordered after that write by the scheduler's synchronization.
unsafe impl Sync for SolTable {}

impl SolTable {
    pub(crate) fn new(nodes: usize) -> SolTable {
        SolTable {
            slots: (0..nodes)
                .map(|_| std::cell::UnsafeCell::new(None))
                .collect(),
        }
    }

    /// Publishes the solution of `id`. Must be called at most once per id,
    /// by the worker owning the containing cone.
    pub(crate) fn set(&self, id: UId, sol: NodeSol) {
        // SAFETY: single writer per slot (scheduler invariant).
        unsafe { *self.slots[id.index()].get() = Some(sol) };
    }

    /// The solution of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved — a scheduling bug.
    pub(crate) fn get(&self, id: UId) -> &NodeSol {
        // SAFETY: readers run strictly after the slot's unique write.
        unsafe { &*self.slots[id.index()].get() }
            .as_ref()
            .expect("fanin solved before its consumer")
    }

    /// Unwraps the table after a fully successful run.
    fn into_sols(self) -> Vec<NodeSol> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|slot| slot.into_inner().expect("every node solved"))
            .collect()
    }

    /// Moves a solved slot out — the salvage pass uses it to snapshot the
    /// nodes of completed units after an interrupted run (when the workers
    /// are gone and the table may be only partially filled, so
    /// [`into_sols`](SolTable::into_sols) is off the table).
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved.
    fn take(&mut self, id: UId) -> NodeSol {
        self.slots[id.index()]
            .get_mut()
            .take()
            .expect("every node of a completed unit is solved")
    }
}

/// View of the already-solved nodes a solver may read. A thin wrapper over
/// [`SolTable`] — fanin lookup is a direct indexed read.
pub(crate) struct SolView<'a> {
    table: &'a SolTable,
}

impl SolView<'_> {
    /// The solution of fanin `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved — a scheduling bug.
    pub fn get(&self, id: UId) -> &NodeSol {
        self.table.get(id)
    }
}

/// What a per-node solver returns: the node's solution plus whether the
/// degradation fallback fired.
pub(crate) type NodeOutcome = (NodeSol, bool);

/// A per-node DP step: solves `node` given the solutions of its fanins.
pub(crate) trait NodeSolver: Sync {
    fn solve_node(
        &self,
        ctx: &NodeCtx<'_>,
        view: &SolView<'_>,
        scratch: &mut Scratch,
        id: UId,
        node: UNode,
    ) -> Result<NodeOutcome, MapError>;
}

impl<F> NodeSolver for F
where
    F: Fn(&NodeCtx<'_>, &SolView<'_>, &mut Scratch, UId, UNode) -> Result<NodeOutcome, MapError>
        + Sync,
{
    fn solve_node(
        &self,
        ctx: &NodeCtx<'_>,
        view: &SolView<'_>,
        scratch: &mut Scratch,
        id: UId,
        node: UNode,
    ) -> Result<NodeOutcome, MapError> {
        self(ctx, view, scratch, id, node)
    }
}

/// One cone unit a worker finished, with the combine steps it charged —
/// the unit of account for partial-result salvage.
#[derive(Clone, Copy)]
pub(crate) struct CompletedUnit {
    pub unit: u32,
    pub steps: u64,
}

/// Per-worker accumulator merged into the [`Solution`] at the end.
#[derive(Default)]
pub(crate) struct UnitAcc {
    pub degraded: Vec<UId>,
    pub peak_candidates: usize,
    /// Largest candidate count the worker's scratch arena held for one
    /// node (pre-prune frontier high-water; see `Gauge::ScratchHighWater`).
    pub scratch_high_water: usize,
    /// Units this worker completed, in completion order.
    pub completed: Vec<CompletedUnit>,
}

/// A worker's mutable state: scratch arenas plus the accumulator.
#[derive(Default)]
pub(crate) struct WorkerState {
    pub scratch: Scratch,
    pub acc: UnitAcc,
}

/// Solves one cone unit's nodes in order, publishing each solution.
fn solve_unit<S: NodeSolver>(
    ctx: &NodeCtx<'_>,
    table: &SolTable,
    unate: &UnateNetwork,
    unit: &ConeUnit,
    solver: &S,
    state: &mut WorkerState,
) -> Result<(), MapError> {
    if let Some(poisoned) = ctx.config.poison_node {
        // Fault injection (see `MapConfig::poison_node`): blow up before
        // any solving, on every schedule alike, so the containment path is
        // exercised deterministically.
        if unit
            .nodes()
            .iter()
            .any(|&id| id.index() == poisoned as usize)
        {
            panic!("injected fault: poisoned unate node {poisoned}");
        }
    }
    for &id in unit.nodes() {
        let view = SolView { table };
        let (sol, deg) = solver.solve_node(ctx, &view, &mut state.scratch, id, unate.node(id))?;
        state.acc.scratch_high_water = state.acc.scratch_high_water.max(state.scratch.cands.len());
        if deg {
            state.acc.degraded.push(id);
        }
        state.acc.peak_candidates = state
            .acc
            .peak_candidates
            .max(sol.exported.total_candidates());
        table.set(id, sol);
    }
    Ok(())
}

/// Publishes a salvaged unit's snapshot instead of solving it, charging
/// the combine steps its solve originally cost.
fn copy_unit(
    ctx: &NodeCtx<'_>,
    table: &SolTable,
    unit: &ConeUnit,
    snapshot: &SalvagedUnit,
    acc: &mut UnitAcc,
) -> Result<(), MapError> {
    ctx.charge_many(snapshot.steps, unit.root())?;
    for (&id, sol) in unit.nodes().iter().zip(&snapshot.sols) {
        acc.peak_candidates = acc.peak_candidates.max(sol.exported.total_candidates());
        table.set(id, sol.clone());
    }
    acc.degraded.extend_from_slice(&snapshot.degraded);
    Ok(())
}

/// Runs one cone unit with full job control: an interrupt poll at the
/// unit boundary, the salvaged snapshot when resuming, panic containment
/// around the solve otherwise, and completion tracking for salvage. Both
/// schedules funnel through here.
#[allow(clippy::too_many_arguments)]
fn run_unit_isolated<S: NodeSolver>(
    ctx: &NodeCtx<'_>,
    table: &SolTable,
    unate: &UnateNetwork,
    unit: &ConeUnit,
    solver: &S,
    resume: Option<&PartialMapping>,
    state: &mut WorkerState,
    u: usize,
) -> Result<(), MapError> {
    ctx.check_interrupt()?;
    let steps_before = ctx.steps_so_far();
    let outcome = match resume.and_then(|p| p.unit(u)) {
        Some(snapshot) => Ok(copy_unit(ctx, table, unit, snapshot, &mut state.acc)),
        // AssertUnwindSafe: on a caught panic the worker's in-progress
        // unit state (scratch arenas, partially filled table slots) is
        // abandoned — the salvage pass only ever reads units recorded as
        // completed.
        None => std::panic::catch_unwind(AssertUnwindSafe(|| {
            solve_unit(ctx, table, unate, unit, solver, state)
        })),
    };
    match outcome {
        Ok(Ok(())) => {
            state.acc.completed.push(CompletedUnit {
                unit: u as u32,
                steps: ctx.steps_so_far() - steps_before,
            });
            Ok(())
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            ctx.config.trace.count(Counter::PanicsContained, 1);
            Err(MapError::WorkerPanicked {
                unit: u,
                payload: panic_text(payload.as_ref()),
                partial: None,
            })
        }
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs a per-node solver over the whole network, serially or on the
/// work-stealing pool according to [`MapConfig::parallelism`], copying in
/// the completed units of `resume` instead of solving them.
///
/// Both paths iterate cone units ([`UnateNetwork::cone_partition`]); the
/// serial path walks them in index order (a valid topological order), the
/// parallel path lets [`crate::sched`] schedule them as their dependencies
/// resolve. Because every per-node computation is a pure function of its
/// fanins' solutions — and the sorted [`crate::tuple::ExportMap`] makes
/// candidate enumeration order deterministic — the result is bit-identical
/// across all schedules, and between a resumed run and an uninterrupted
/// one.
pub(crate) fn run_dp<S: NodeSolver>(
    unate: &UnateNetwork,
    config: &MapConfig,
    algorithm: Algorithm,
    solver: S,
    resume: Option<&PartialMapping>,
) -> Result<Solution, MapError> {
    check_gate_budget(unate, config)?;
    let trace = config.trace;
    let model = CostModel::new(config, algorithm);
    let fanouts = fanouts(unate);
    let budget = Budget::new(config);
    let partition = {
        let _span = trace.span(Stage::ConePartition);
        unate.cone_partition()
    };
    if let Some(partial) = resume {
        partial.check_resumes(unate, &partition, config, algorithm)?;
    }
    let gates = unate.iter().filter(|(_, n)| n.is_gate()).count();
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = config
        .parallelism
        .resolved_threads(hw, gates, partition.units().len())
        .clamp(1, partition.units().len().max(1));
    let mut table = SolTable::new(unate.len());

    let (accs, outcome): (Vec<UnitAcc>, Result<(), MapError>) = if threads <= 1 {
        let ctx = NodeCtx::new(config, &model, &fanouts, &budget);
        let mut state = WorkerState::default();
        let mut outcome = Ok(());
        for (u, unit) in partition.units().iter().enumerate() {
            if let Err(e) =
                run_unit_isolated(&ctx, &table, unate, unit, &solver, resume, &mut state, u)
            {
                outcome = Err(e);
                break;
            }
        }
        (vec![state.acc], outcome)
    } else {
        let table_ref = &table;
        let partition_ref = &partition;
        let solver = &solver;
        let budget_ref = &budget;
        let (workers, outcome) = crate::sched::run_units(
            &partition,
            threads,
            |_| {
                (
                    NodeCtx::new(config, &model, &fanouts, &budget),
                    WorkerState::default(),
                )
            },
            |(ctx, state): &mut (NodeCtx<'_>, WorkerState), u: usize| {
                run_unit_isolated(
                    ctx,
                    table_ref,
                    unate,
                    partition_ref.unit(u),
                    solver,
                    resume,
                    state,
                    u,
                )
            },
            || budget_ref.check_interrupt(),
            trace,
        );
        (
            workers.into_iter().map(|(_, state)| state.acc).collect(),
            outcome,
        )
    };

    let mut degraded: Vec<UId> = Vec::new();
    let mut completed: Vec<CompletedUnit> = Vec::new();
    let mut peak_candidates = 0usize;
    let mut scratch_high_water = 0usize;
    for acc in accs {
        degraded.extend(acc.degraded);
        completed.extend(acc.completed);
        peak_candidates = peak_candidates.max(acc.peak_candidates);
        scratch_high_water = scratch_high_water.max(acc.scratch_high_water);
    }
    // Workers report degradations in unit-completion order; restore the
    // global topological order (what a serial walk produces).
    degraded.sort_unstable();
    completed.sort_unstable_by_key(|c| c.unit);

    let combine_steps = budget.total();

    if let Err(err) = outcome {
        return Err(match err {
            MapError::Cancelled { .. }
            | MapError::DeadlineExceeded { .. }
            | MapError::WorkerPanicked { .. } => {
                let salvage = build_salvage(
                    job::fingerprint(unate, config, algorithm),
                    &partition,
                    &completed,
                    &degraded,
                    &mut table,
                    combine_steps,
                    trace,
                );
                err.with_partial(Arc::new(salvage))
            }
            // Deterministic failures (budget trips, unmappable nodes)
            // recur identically on a resume — no salvage.
            other => other,
        });
    }

    if trace.enabled() {
        trace.count(Counter::CombineSteps, combine_steps);
        trace.count(Counter::DegradedNodes, degraded.len() as u64);
        trace.gauge(Gauge::PeakCandidates, peak_candidates as u64);
        trace.gauge(Gauge::ThreadsUsed, threads as u64);
        trace.gauge(Gauge::ScratchHighWater, scratch_high_water as u64);
    }

    Ok(Solution {
        sols: table.into_sols(),
        degraded,
        peak_candidates,
        threads_used: threads,
        combine_steps,
    })
}

/// Snapshots everything an interrupted run finished, producing the
/// [`PartialMapping`] that rides on the interrupt error: each completed
/// unit's solutions (moved out of the table), its degraded nodes and the
/// combine steps it charged, so a resume copies it back in and still
/// charges a bit-identical combine-step total.
fn build_salvage(
    fingerprint: u64,
    partition: &ConePartition,
    completed: &[CompletedUnit],
    degraded: &[UId],
    table: &mut SolTable,
    combine_steps: u64,
    trace: TraceHandle,
) -> PartialMapping {
    let mut units: Vec<Option<SalvagedUnit>> = vec![None; partition.units().len()];
    for c in completed {
        let nodes = partition.unit(c.unit as usize).nodes();
        units[c.unit as usize] = Some(SalvagedUnit {
            sols: nodes.iter().map(|&id| table.take(id)).collect(),
            degraded: nodes
                .iter()
                .copied()
                .filter(|id| degraded.binary_search(id).is_ok())
                .collect(),
            steps: c.steps,
        });
    }
    // The frontier: unfinished units whose dependencies all finished — the
    // exact work the interrupt cut off, under any schedule.
    let frontier: Vec<usize> = (0..units.len())
        .filter(|&u| {
            units[u].is_none() && partition.unit(u).deps().iter().all(|&d| units[d].is_some())
        })
        .collect();
    trace.count(Counter::UnitsSalvaged, completed.len() as u64);
    PartialMapping::new(frontier, combine_steps, fingerprint, units)
}

/// Gate-periphery cost: p-clock + output inverter (2) + keeper, plus the
/// foot n-clock when required. Clock-connected devices weigh
/// `config.clock_weight`.
pub(crate) fn gate_overhead(touches_pi: bool, config: &MapConfig) -> (Cost, bool) {
    let footed = matches!(config.footing, Footing::Always) || touches_pi;
    let k = config.clock_weight;
    let cost = Cost {
        tx: 4 + u32::from(footed),
        wtx: k + 2 + 1 + if footed { k } else { 0 },
        disch: 0,
        level: 0,
    };
    (cost, footed)
}

/// Picks the cheapest bare tuple (by the model's grounded key, ties broken
/// toward fewer potential discharge points, then smaller shape) and wraps it
/// into a formed-gate solution. Iterates the candidates in place — no
/// flattened copy of the bare sets is ever built.
pub(crate) fn form_gate(
    config: &MapConfig,
    model: &CostModel,
    bare: impl IntoIterator<Item = (TupleKey, Cand)>,
) -> Option<GateSol> {
    let mut best: Option<(Cost, u32, TupleKey, Cand)> = None;
    for (key, cand) in bare {
        let (overhead, _) = gate_overhead(cand.touches_pi, config);
        let mut cost = cand.g.combine(overhead);
        cost.level = cand.g.level + 1;
        let better = match &best {
            None => true,
            Some((bcost, bp, bkey, _)) => {
                let (ka, kb) = (model.key(&cost), model.key(bcost));
                ka < kb
                    || (ka == kb
                        && (cand.p_dis() < *bp
                            || (cand.p_dis() == *bp && (key.w, key.h) < (bkey.w, bkey.h))))
            }
        };
        if better {
            best = Some((cost, cand.p_dis(), key, cand));
        }
    }
    best.map(|(cost, _, shape, cand)| {
        let (_, footed) = gate_overhead(cand.touches_pi, config);
        GateSol {
            cost,
            footed,
            form: cand.form,
            shape,
        }
    })
}

/// The gate-as-input candidate a node exports to its consumers: a single
/// transistor at `{1,1}` driven by the node's formed gate. A fanout-1 node
/// carries the gate's whole cost (it is paid exactly once, here); shared
/// nodes charge their gate cost globally and expose only the transistor —
/// unless duplication is allowed, in which case each consumer sees an
/// *amortized* share so that replicating the logic can compete fairly
/// (final counts are always recomputed from the materialized circuit).
pub(crate) fn exported_gate_cand(
    node: UId,
    gate: &GateSol,
    fanout: u32,
    config: &MapConfig,
) -> Cand {
    let g = if fanout <= 1 {
        gate.cost.combine(Cost::transistors(1))
    } else if config.allow_duplication {
        Cost {
            tx: gate.cost.tx.div_ceil(fanout) + 1,
            wtx: gate.cost.wtx.div_ceil(fanout) + 1,
            disch: gate.cost.disch.div_ceil(fanout),
            level: gate.cost.level,
        }
    } else {
        Cost {
            tx: 1,
            wtx: 1,
            disch: 0,
            level: gate.cost.level,
        }
    };
    Cand {
        g,
        u: g,
        p_spine: 0,
        p_branch: 0,
        par_b: false,
        touches_pi: false,
        form: Form::ChildGate(node),
    }
}

/// The single candidate of a literal leaf: one transistor driven by a
/// primary input.
pub(crate) fn literal_cand(literal: Literal) -> Cand {
    let g = Cost::transistors(1);
    Cand {
        g,
        u: g,
        p_spine: 0,
        p_branch: 0,
        par_b: false,
        touches_pi: true,
        form: Form::Lit(literal),
    }
}

/// Builds the literal node's solution (exported literal tuple plus a
/// buffer-style gate for the rare case a literal drives a primary output).
pub(crate) fn literal_sol(
    _node: UId,
    literal: Literal,
    config: &MapConfig,
    model: &CostModel,
) -> NodeSol {
    let mut sol = NodeSol::default();
    let cand = literal_cand(literal);
    sol.gate = form_gate(config, model, [(TupleKey::UNIT, cand)]);
    sol.exported.push(TupleKey::UNIT, cand);
    sol
}

/// Fanout counts of every node, where primary outputs count as consumers.
pub(crate) fn fanouts(unate: &UnateNetwork) -> Vec<u32> {
    unate.fanout_counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use soi_unate::Phase;

    fn lit() -> Literal {
        Literal {
            input: 0,
            phase: Phase::Pos,
        }
    }

    #[test]
    fn overhead_footed_vs_footless() {
        let config = MapConfig::default();
        let (c, footed) = gate_overhead(true, &config);
        assert!(footed);
        assert_eq!(c.tx, 5);
        let (c, footed) = gate_overhead(false, &config);
        assert!(!footed);
        assert_eq!(c.tx, 4);
    }

    #[test]
    fn overhead_clock_weighting() {
        let config = MapConfig::with_clock_weight(3);
        let (c, _) = gate_overhead(true, &config);
        assert_eq!(c.tx, 5);
        assert_eq!(c.wtx, 3 + 2 + 1 + 3);
    }

    #[test]
    fn always_footed_policy() {
        let config = MapConfig {
            footing: Footing::Always,
            ..MapConfig::default()
        };
        let (c, footed) = gate_overhead(false, &config);
        assert!(footed);
        assert_eq!(c.tx, 5);
    }

    #[test]
    fn literal_gate_is_buffer() {
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        let sol = literal_sol(UId::from_index(0), lit(), &config, &model);
        let gate = sol.gate.expect("literal has a gate");
        // 1 transistor + 5 overhead (touches a PI), level 1.
        assert_eq!(gate.cost.tx, 6);
        assert_eq!(gate.cost.level, 1);
        assert!(gate.footed);
    }

    #[test]
    fn budget_charges_and_trips() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 2;
        let b = Budget::new(&config);
        assert!(b.charge(UId::from_index(0)).is_ok());
        assert!(b.charge(UId::from_index(0)).is_ok());
        assert!(matches!(
            b.charge(UId::from_index(0)),
            Err(MapError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn budget_charge_many_matches_singles() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 10;
        let singles = Budget::new(&config);
        let bulk = Budget::new(&config);
        for _ in 0..7 {
            singles.charge(UId::from_index(0)).unwrap();
        }
        bulk.charge_many(7, UId::from_index(0)).unwrap();
        // Both have 3 steps left: a 4-step bulk charge trips either.
        assert!(singles.charge_many(3, UId::from_index(1)).is_ok());
        assert!(bulk.charge_many(3, UId::from_index(1)).is_ok());
        assert!(singles.charge_many(1, UId::from_index(2)).is_err());
        assert!(bulk.charge(UId::from_index(2)).is_err());
    }

    #[test]
    fn budget_is_shareable_across_threads() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 100;
        let b = Budget::new(&config);
        let trips: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .filter(|_| b.charge(UId::from_index(0)).is_err())
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // 200 charges against a budget of 100: exactly 100 must fail,
        // regardless of interleaving.
        assert_eq!(trips, 100);
    }

    #[test]
    fn shared_gate_exports_unit_cost() {
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        let sol = literal_sol(UId::from_index(0), lit(), &config, &model);
        let gate = sol.gate.as_ref().unwrap();
        let shared = exported_gate_cand(UId::from_index(0), gate, 3, &config);
        assert_eq!(shared.g.tx, 1);
        assert_eq!(shared.g.level, gate.cost.level);
        let exclusive = exported_gate_cand(UId::from_index(0), gate, 1, &config);
        assert_eq!(exclusive.g.tx, gate.cost.tx + 1);
    }

    #[test]
    fn sol_table_round_trips() {
        let table = SolTable::new(2);
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        table.set(
            UId::from_index(1),
            literal_sol(UId::from_index(1), lit(), &config, &model),
        );
        let view = SolView { table: &table };
        assert_eq!(view.get(UId::from_index(1)).exported.total_candidates(), 1);
    }
}
