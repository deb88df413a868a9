//! Miter-based combinational equivalence checking.
//!
//! The checker is a SAT sweep over a shared-input miter, in three tiers
//! ordered cheapest first:
//!
//! 1. **Simulation filter.** Both networks run the guided + random word
//!    batches of [`crate::wordsim`] on shared input words. A lane where
//!    an output pair differs is a counterexample candidate: it is
//!    replayed through the scalar simulator on both networks, and only a
//!    confirmed mismatch is reported — the `cex_replays` discipline. The
//!    per-node signatures feed complement-aware candidate classes for
//!    the sweep.
//! 2. **Structural hashing.** Both networks encode into one
//!    [`Encoder`], sharing input literals positionally. Nodes of the
//!    right network whose fanins already collapsed onto left-network
//!    literals hash to the *same* literal, proving equivalence with zero
//!    solver effort.
//! 3. **SAT.** Every query is *cone-local*: it rebuilds only its
//!    miter's transitive fanin in a fresh solver, so it costs its cone,
//!    not the whole two-network CNF. The two kinds of query differ in
//!    what they may do with a `Sat` answer.
//!    - *Internal candidate pairs* (same canonical signature) are proof
//!      attempts: [`Encoder::refutes_bounded`] solves their XOR miter
//!      in a 64-variable window, deepened at most once to 1,024
//!      variables, under a small conflict budget. Only `Unsat` is acted
//!      on. A proven pair substitutes the left literal for the right
//!      node, shrinking every downstream cone (and is memoized, so
//!      strash-shared right nodes never re-prove). Any other answer
//!      skips the merge like an exhausted budget: no model is ever
//!      read, so building the complete cone to get one would be wasted
//!      work. The one deepening step stays because a lost merge
//!      cascades: every node above it misses structural hashing.
//!    - *Output miters* get the large budget and
//!      [`Encoder::solve_cone`], which deepens a cut window on `Sat`
//!      until the cone is complete. Its model's input assignment is
//!      replayed through the scalar simulator before it is believed.
//!
//! Everything is counted: SAT calls, CDCL conflicts, simulation-filtered
//! candidates, and counterexample replays, surfaced through
//! [`soi_trace`] as `cec_sat_calls` / `conflicts` / `cec_sim_filtered` /
//! `cex_replays`.

use std::error::Error;
use std::fmt;

use soi_netlist::fx::FxHashMap;
use soi_netlist::{Network, NetworkError, NodeId};
use soi_trace::{Counter, TraceHandle};

use crate::cnf::Lit;
use crate::encode::Encoder;
use crate::solver::SatResult;
use crate::wordsim;

/// Tuning knobs and budgets for one equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CecOptions {
    /// Random 64-lane batches appended to the guided vectors.
    pub sim_rounds: usize,
    /// Seed for the random batches.
    pub seed: u64,
    /// Conflict budget per internal candidate-pair query. Exhaustion just
    /// skips the merge, exactly as a query whose bounded cone is cut
    /// before it closes does (see [`Encoder::refutes_bounded`]);
    /// correctness never depends on it.
    pub node_conflict_budget: u64,
    /// Conflict budget per output miter. Exhaustion leaves the output
    /// *unproven*, which [`CecVerdict::Undecided`] reports.
    pub output_conflict_budget: u64,
    /// Candidates tried per node from its signature class.
    pub max_candidates: usize,
}

impl Default for CecOptions {
    fn default() -> CecOptions {
        CecOptions {
            sim_rounds: 8,
            seed: 0xCEC,
            node_conflict_budget: 200,
            output_conflict_budget: 1_000_000,
            max_candidates: 4,
        }
    }
}

/// A confirmed distinguishing input assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The input assignment, ordered as the networks' primary inputs.
    pub inputs: Vec<bool>,
    /// Index of the first differing output port.
    pub output: usize,
    /// The left network's value at that port.
    pub lhs: bool,
    /// The right network's value at that port.
    pub rhs: bool,
}

/// The check's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecVerdict {
    /// Every output pair proved equivalent.
    Equivalent,
    /// A replay-confirmed counterexample distinguishes the networks.
    NotEquivalent(Counterexample),
    /// Some output miters exhausted their conflict budget unproven.
    Undecided {
        /// Number of unproven output miters.
        unproven: usize,
    },
}

/// Everything a check run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecReport {
    /// The verdict.
    pub verdict: CecVerdict,
    /// Output pairs proved equivalent.
    pub outputs_proved: usize,
    /// Total output pairs.
    pub outputs_total: usize,
    /// Internal right-network nodes merged onto left-network literals
    /// (by structural hashing or a SAT proof).
    pub internal_merges: usize,
    /// Candidates discharged by simulation alone: nodes whose signature
    /// matched no class, plus output mismatches settled by a simulated
    /// counterexample.
    pub sim_filtered: u64,
    /// SAT queries issued.
    pub sat_calls: u64,
    /// CDCL conflicts across all queries.
    pub conflicts: u64,
    /// Counterexamples replayed through the scalar simulator.
    pub cex_replays: u64,
}

impl CecReport {
    /// Unproven output miters (0 unless [`CecVerdict::Undecided`]).
    pub fn unproven(&self) -> usize {
        match self.verdict {
            CecVerdict::Undecided { unproven } => unproven,
            _ => 0,
        }
    }

    /// Whether the verdict is [`CecVerdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        self.verdict == CecVerdict::Equivalent
    }
}

/// Why a check could not run (distinct from a *negative* verdict, which
/// [`CecReport`] carries).
#[derive(Debug)]
#[non_exhaustive]
pub enum CecError {
    /// The networks have different primary-input counts.
    InputArity {
        /// Left input count.
        lhs: usize,
        /// Right input count.
        rhs: usize,
    },
    /// The networks have different output counts.
    OutputArity {
        /// Left output count.
        lhs: usize,
        /// Right output count.
        rhs: usize,
    },
    /// A network failed validation or simulation.
    Net(NetworkError),
    /// A SAT or simulation counterexample did not reproduce under scalar
    /// replay — an internal inconsistency that must never be reported as
    /// a verdict.
    UnverifiedCounterexample {
        /// Index of the output the unconfirmed model pointed at.
        output: usize,
    },
}

impl fmt::Display for CecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CecError::InputArity { lhs, rhs } => {
                write!(f, "input counts differ: {lhs} vs {rhs}")
            }
            CecError::OutputArity { lhs, rhs } => {
                write!(f, "output counts differ: {lhs} vs {rhs}")
            }
            CecError::Net(e) => write!(f, "{e}"),
            CecError::UnverifiedCounterexample { output } => write!(
                f,
                "counterexample for output {output} failed scalar replay (checker inconsistency)"
            ),
        }
    }
}

impl Error for CecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CecError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for CecError {
    fn from(e: NetworkError) -> CecError {
        CecError::Net(e)
    }
}

/// Checks combinational equivalence of two networks (inputs and outputs
/// matched positionally) without instrumentation.
///
/// # Errors
///
/// See [`CecError`]; a *negative verdict* is not an error — it comes back
/// as [`CecVerdict::NotEquivalent`] inside the report.
pub fn check_networks(a: &Network, b: &Network, opts: &CecOptions) -> Result<CecReport, CecError> {
    check_networks_traced(a, b, opts, TraceHandle::off())
}

/// [`check_networks`] with a trace handle: reports `cec_sat_calls`,
/// `cec_sim_filtered`, `conflicts` and `cex_replays` counters.
pub fn check_networks_traced(
    a: &Network,
    b: &Network,
    opts: &CecOptions,
    trace: TraceHandle,
) -> Result<CecReport, CecError> {
    let mut chk = Checker::new(a, b, opts)?;
    let result = chk.run();
    trace.count(Counter::CecSatCalls, chk.report.sat_calls);
    trace.count(Counter::CecSimFiltered, chk.report.sim_filtered);
    trace.count(Counter::Conflicts, chk.report.conflicts);
    trace.count(Counter::CexReplays, chk.report.cex_replays);
    result.map(|verdict| {
        chk.report.verdict = verdict;
        chk.report
    })
}

/// One signature-class entry: a left-network node and its canonical
/// phase.
type ClassEntry = (NodeId, bool);

struct Checker<'n> {
    a: &'n Network,
    b: &'n Network,
    opts: CecOptions,
    batches: Vec<soi_netlist::sim::SimBatch>,
    rounds: usize,
    sig_a: Vec<u64>,
    sig_b: Vec<u64>,
    report: CecReport,
}

impl<'n> Checker<'n> {
    fn new(a: &'n Network, b: &'n Network, opts: &CecOptions) -> Result<Checker<'n>, CecError> {
        a.validate()?;
        b.validate()?;
        if a.inputs().len() != b.inputs().len() {
            return Err(CecError::InputArity {
                lhs: a.inputs().len(),
                rhs: b.inputs().len(),
            });
        }
        if a.outputs().len() != b.outputs().len() {
            return Err(CecError::OutputArity {
                lhs: a.outputs().len(),
                rhs: b.outputs().len(),
            });
        }
        let batches = wordsim::batches(a.inputs().len(), opts.sim_rounds, opts.seed);
        let rounds = batches.len();
        let sig_a = wordsim::node_signatures(a, &batches)?;
        let sig_b = wordsim::node_signatures(b, &batches)?;
        Ok(Checker {
            a,
            b,
            opts: *opts,
            batches,
            rounds,
            sig_a,
            sig_b,
            report: CecReport {
                verdict: CecVerdict::Equivalent,
                outputs_proved: 0,
                outputs_total: a.outputs().len(),
                internal_merges: 0,
                sim_filtered: 0,
                sat_calls: 0,
                conflicts: 0,
                cex_replays: 0,
            },
        })
    }

    fn sig(&self, side_a: bool, id: NodeId) -> &[u64] {
        let sigs = if side_a { &self.sig_a } else { &self.sig_b };
        &sigs[id.index() * self.rounds..(id.index() + 1) * self.rounds]
    }

    /// Replays a lane assignment through both scalar simulators and
    /// builds the confirmed counterexample, or fails the check if the
    /// mismatch does not reproduce.
    fn replay(&mut self, inputs: Vec<bool>, output: usize) -> Result<CecVerdict, CecError> {
        self.report.cex_replays += 1;
        let va = self.a.simulate(&inputs)?;
        let vb = self.b.simulate(&inputs)?;
        if va[output] != vb[output] {
            return Ok(CecVerdict::NotEquivalent(Counterexample {
                inputs,
                output,
                lhs: va[output],
                rhs: vb[output],
            }));
        }
        // Maybe the model distinguishes a *different* output.
        if let Some(o) = (0..va.len()).find(|&o| va[o] != vb[o]) {
            return Ok(CecVerdict::NotEquivalent(Counterexample {
                inputs,
                output: o,
                lhs: va[o],
                rhs: vb[o],
            }));
        }
        Err(CecError::UnverifiedCounterexample { output })
    }

    fn run(&mut self) -> Result<CecVerdict, CecError> {
        // Tier 1: direct output comparison on the simulated words.
        for o in 0..self.a.outputs().len() {
            let da = self.a.outputs()[o].driver;
            let db = self.b.outputs()[o].driver;
            for r in 0..self.rounds {
                let wa = self.sig_a[da.index() * self.rounds + r];
                let wb = self.sig_b[db.index() * self.rounds + r];
                let diff = wa ^ wb;
                if diff != 0 {
                    self.report.sim_filtered += 1;
                    let lane = diff.trailing_zeros();
                    let inputs = wordsim::lane_assignment(&self.batches[r], lane);
                    return self.replay(inputs, o);
                }
            }
        }

        // Candidate classes over the left network's nodes.
        let mut proven: FxHashMap<u32, Lit> = FxHashMap::default();
        let mut classes: FxHashMap<u64, Vec<ClassEntry>> = FxHashMap::default();
        for (id, _) in self.a.iter() {
            let canon = wordsim::canonicalize(self.sig(true, id));
            classes
                .entry(canon.hash)
                .or_default()
                .push((id, canon.phase));
        }

        // Shared input literals; encode the left network wholesale.
        let mut enc = Encoder::new();
        let in_lits: Vec<Lit> = (0..self.a.inputs().len()).map(|_| enc.fresh()).collect();
        let lits_a = enc.encode_network(self.a, &in_lits)?;

        // Tier 2 + 3: sweep the right network in topological order,
        // substituting proven-equivalent left literals as we go.
        let mut lits_b: Vec<Lit> = Vec::with_capacity(self.b.len());
        let mut next_input = 0;
        for (id, node) in self.b.iter() {
            use soi_netlist::{Node, UnOp};
            let lit = match node {
                Node::Input { .. } => {
                    let l = in_lits[next_input];
                    next_input += 1;
                    l
                }
                Node::Const { value } => enc.constant(*value),
                Node::Unary { op, a } => match op {
                    UnOp::Inv => !lits_b[a.index()],
                    UnOp::Buf => lits_b[a.index()],
                },
                Node::Binary { op, a, b } => {
                    let (la, lb) = (lits_b[a.index()], lits_b[b.index()]);
                    enc.binary(*op, la, lb)
                }
            };
            let lit = if node.is_input() {
                lit
            } else {
                self.merge(&mut enc, &classes, &mut proven, &lits_a.nodes, id, lit)
            };
            lits_b.push(lit);
        }

        // Output miters.
        let mut unproven = 0;
        for o in 0..self.a.outputs().len() {
            let la = lits_a.nodes[self.a.outputs()[o].driver.index()];
            let lb = lits_b[self.b.outputs()[o].driver.index()];
            if la == lb {
                self.report.outputs_proved += 1;
                continue;
            }
            let miter = enc.xor(la, lb);
            if miter == enc.lit_false() {
                self.report.outputs_proved += 1;
                continue;
            }
            self.report.sat_calls += 1;
            let before = enc.conflicts();
            let result = enc.solve_cone(&[miter], self.opts.output_conflict_budget);
            self.report.conflicts += enc.conflicts() - before;
            match result {
                SatResult::Unsat => self.report.outputs_proved += 1,
                SatResult::Sat => {
                    // Inputs outside the miter's cone default to false;
                    // they cannot affect the differing output, and the
                    // scalar replay re-simulates the full networks.
                    let inputs: Vec<bool> =
                        in_lits.iter().map(|&l| enc.cone_model_value(l)).collect();
                    return self.replay(inputs, o);
                }
                SatResult::Unknown => unproven += 1,
            }
        }
        if unproven > 0 {
            return Ok(CecVerdict::Undecided { unproven });
        }
        Ok(CecVerdict::Equivalent)
    }

    /// Tries to merge a right-network node onto a left-network literal
    /// via its signature class; returns the representative literal.
    fn merge(
        &mut self,
        enc: &mut Encoder,
        classes: &FxHashMap<u64, Vec<ClassEntry>>,
        proven: &mut FxHashMap<u32, Lit>,
        lits_a: &[Lit],
        id: NodeId,
        lit: Lit,
    ) -> Lit {
        // Structural hashing can hand distinct right-network nodes the
        // same literal; a var proved once never re-proves.
        if let Some(&rep) = proven.get(&(lit.var().index() as u32)) {
            self.report.internal_merges += 1;
            return rep.xor_sign(lit.is_negated());
        }
        let canon = wordsim::canonicalize(self.sig(false, id));
        let Some(cands) = classes.get(&canon.hash) else {
            // Simulation alone separated this node from every left node.
            self.report.sim_filtered += 1;
            return lit;
        };
        let mut tried = 0;
        for &(aid, phase_a) in cands {
            if tried >= self.opts.max_candidates {
                break;
            }
            let relative = phase_a ^ canon.phase;
            if !wordsim::sigs_equal(self.sig(true, aid), self.sig(false, id), relative) {
                continue; // hash collision
            }
            tried += 1;
            let target = lits_a[aid.index()].xor_sign(relative);
            if lit == target {
                self.report.internal_merges += 1;
                return lit;
            }
            if lit == !target {
                continue; // structurally proven different
            }
            let miter = enc.xor(lit, target);
            if miter == enc.lit_false() {
                self.report.internal_merges += 1;
                return target;
            }
            if miter == enc.lit_true() {
                continue;
            }
            self.report.sat_calls += 1;
            let before = enc.conflicts();
            let refuted = enc.refutes_bounded(&[miter], self.opts.node_conflict_budget);
            self.report.conflicts += enc.conflicts() - before;
            if refuted {
                // Equivalent: substitute the left literal everywhere
                // downstream. No equality clause is needed — every later
                // cone is built over the substituted literal.
                proven.insert(lit.var().index() as u32, target.xor_sign(lit.is_negated()));
                self.report.internal_merges += 1;
                return target;
            }
        }
        lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net() -> Network {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.xor2(a, b);
        n.add_output("o", g);
        n
    }

    fn xor_as_aoi() -> Network {
        let mut n = Network::new("x2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.inv(a);
        let nb = n.inv(b);
        let t1 = n.and2(a, nb);
        let t2 = n.and2(na, b);
        let g = n.or2(t1, t2);
        n.add_output("o", g);
        n
    }

    #[test]
    fn equivalent_restructurings_prove() {
        let report = check_networks(&xor_net(), &xor_as_aoi(), &CecOptions::default()).unwrap();
        assert!(report.is_equivalent());
        assert_eq!(report.outputs_proved, 1);
        assert_eq!(report.unproven(), 0);
    }

    #[test]
    fn inequivalence_yields_a_confirmed_counterexample() {
        let mut n = Network::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.and2(a, b);
        n.add_output("o", g);
        let report = check_networks(&xor_net(), &n, &CecOptions::default()).unwrap();
        match report.verdict {
            CecVerdict::NotEquivalent(cex) => {
                assert_eq!(cex.output, 0);
                let va = xor_net().simulate(&cex.inputs).unwrap()[0];
                let vb = n.simulate(&cex.inputs).unwrap()[0];
                assert_eq!(cex.lhs, va);
                assert_eq!(cex.rhs, vb);
                assert_ne!(va, vb);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
        assert!(report.cex_replays >= 1);
    }

    /// Disagreement only on one assignment of a wide AND — random
    /// vectors essentially never hit it, so the SAT tier must.
    #[test]
    fn needle_inequivalence_is_found_by_sat() {
        let width = 12;
        let mut a = Network::new("wide-and");
        let sigs: Vec<_> = (0..width).map(|i| a.add_input(format!("i{i}"))).collect();
        let root = a.and_tree(&sigs);
        a.add_output("o", root);

        let mut b = Network::new("never");
        for i in 0..width {
            b.add_input(format!("i{i}"));
        }
        let zero = b.add_const(false);
        b.add_output("o", zero);

        // Guided batches include the all-ones corner, so sim finds this;
        // force the SAT path by checking a *rotation* instead: AND of all
        // versus AND of all but with one input duplicated and one dropped.
        let mut c = Network::new("dropped");
        let csigs: Vec<_> = (0..width).map(|i| c.add_input(format!("i{i}"))).collect();
        let mut picked = csigs.clone();
        picked[0] = csigs[1]; // drop input 0 from the conjunction
        let croot = c.and_tree(&picked);
        c.add_output("o", croot);

        let ra = check_networks(&a, &b, &CecOptions::default()).unwrap();
        assert!(matches!(ra.verdict, CecVerdict::NotEquivalent(_)));
        let rc = check_networks(&a, &c, &CecOptions::default()).unwrap();
        match rc.verdict {
            CecVerdict::NotEquivalent(cex) => {
                // The distinguishing assignment must clear input 0 and
                // set every other input.
                assert!(!cex.inputs[0]);
                assert!(cex.inputs[1..].iter().all(|&v| v));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    /// A left-linear AND chain against a balanced AND tree over 48
    /// inputs, with internal SAT merges turned off: the output miter's
    /// cone (~140 variables) is cut in the first window, whose spurious
    /// `Sat` must make the query deepen to the complete cone and prove
    /// it.
    #[test]
    fn deep_output_miter_proves_by_deepening() {
        let width = 48;
        let mut a = Network::new("chain");
        let sa: Vec<_> = (0..width).map(|i| a.add_input(format!("i{i}"))).collect();
        let mut chain = sa[0];
        for &s in &sa[1..] {
            chain = a.and2(chain, s);
        }
        a.add_output("o", chain);
        let mut b = Network::new("tree");
        let sb: Vec<_> = (0..width).map(|i| b.add_input(format!("i{i}"))).collect();
        let root = b.and_tree(&sb);
        b.add_output("o", root);

        let opts = CecOptions {
            max_candidates: 0,
            ..CecOptions::default()
        };
        let report = check_networks(&a, &b, &opts).unwrap();
        assert!(report.is_equivalent(), "{:?}", report.verdict);
        assert_eq!(report.outputs_proved, 1);
        assert_eq!(report.sat_calls, 1, "only the output miter is queried");
    }

    #[test]
    fn arity_mismatches_are_errors() {
        let mut one = Network::new("one");
        let a = one.add_input("a");
        one.add_output("o", a);
        assert!(matches!(
            check_networks(&xor_net(), &one, &CecOptions::default()),
            Err(CecError::InputArity { lhs: 2, rhs: 1 })
        ));
        let mut two = Network::new("two");
        let a = two.add_input("a");
        let b = two.add_input("b");
        two.add_output("o", a);
        two.add_output("p", b);
        assert!(matches!(
            check_networks(&xor_net(), &two, &CecOptions::default()),
            Err(CecError::OutputArity { lhs: 1, rhs: 2 })
        ));
    }

    #[test]
    fn traced_check_reports_counters() {
        let (rec, trace) = soi_trace::Recorder::install();
        let report =
            check_networks_traced(&xor_net(), &xor_as_aoi(), &CecOptions::default(), trace)
                .unwrap();
        assert!(report.is_equivalent());
        assert_eq!(rec.counter(Counter::CecSatCalls), report.sat_calls);
        assert_eq!(rec.counter(Counter::Conflicts), report.conflicts);
        assert_eq!(rec.counter(Counter::CecSimFiltered), report.sim_filtered);
        assert_eq!(rec.counter(Counter::CexReplays), report.cex_replays);
    }

    #[test]
    fn undecided_on_a_starved_budget() {
        // A 16-bit comparator-ish structure with zero budget cannot prove
        // its miter; the verdict must be Undecided, never a false claim.
        let mut a = Network::new("xa");
        let sa: Vec<_> = (0..16).map(|i| a.add_input(format!("i{i}"))).collect();
        let ra = a.xor_tree(&sa);
        a.add_output("o", ra);
        let mut b = Network::new("xb");
        let sb: Vec<_> = (0..16).map(|i| b.add_input(format!("i{i}"))).collect();
        let rev: Vec<_> = sb.iter().rev().copied().collect();
        let rb = b.xor_tree(&rev);
        b.add_output("o", rb);
        let opts = CecOptions {
            node_conflict_budget: 0,
            output_conflict_budget: 0,
            sim_rounds: 2,
            ..CecOptions::default()
        };
        let report = check_networks(&a, &b, &opts).unwrap();
        match report.verdict {
            CecVerdict::Undecided { unproven } => assert_eq!(unproven, 1),
            CecVerdict::Equivalent => {
                // Structural hashing may still close it outright; that is
                // also sound.
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        // With real budgets the same pair proves.
        let report = check_networks(&a, &b, &CecOptions::default()).unwrap();
        assert!(report.is_equivalent());
    }
}
