//! Tseitin CNF encoding with structural-hash sharing.
//!
//! [`Encoder`] owns a [`Solver`] and hands out literals for logic built
//! over them. Every gate constructor constant-folds (`a·a = a`,
//! `a·!a = 0`, constant operands) and then consults a structural-hash
//! table, so re-encoding the same gate over the same operand literals
//! returns the *same* literal instead of fresh clauses — the `DagCnf`
//! idiom. Inverters and buffers are free: negation is a literal sign, not
//! a variable.
//!
//! All eight [`Network`](soi_netlist::Network) gate kinds reduce to two
//! hashed primitives: `AND` (with `OR`/`NAND`/`NOR` via De Morgan signs)
//! and `XOR` (with `XNOR` via the output sign; operand signs are peeled
//! off into the output sign first, so `a ⊕ !b` and `!(a ⊕ b)` share one
//! table entry).

use soi_netlist::fx::FxHashMap;
use soi_netlist::{Network, NetworkError, Node, UnOp};

use crate::cnf::{Lit, Var};
use crate::solver::{SatResult, Solver};

/// The first cone window of every query. Small enough that a sweep's
/// typical just-below-the-top refutation costs hundreds of variables,
/// large enough that most merges close inside it.
const CONE_INITIAL_LIMIT: usize = 64;

/// Cap multiplier between deepening rounds. [`Encoder::solve_cone`]
/// deepens until the cone is complete; [`Encoder::refutes_bounded`]
/// deepens once, to `CONE_INITIAL_LIMIT * CONE_GROWTH` variables.
const CONE_GROWTH: usize = 16;

/// The Tseitin definition of a derived variable, recorded so
/// [`Encoder::solve_cone`] can rebuild exactly the clauses of a query's
/// transitive fanin cone in a fresh local solver.
#[derive(Debug, Clone, Copy)]
enum GateDef {
    /// `v <-> a AND b`.
    And(Lit, Lit),
    /// `v <-> a XOR b` over positive operand literals.
    Xor(Lit, Lit),
}

/// The per-node literals produced by [`Encoder::encode_network`].
#[derive(Debug, Clone)]
pub struct NetworkLits {
    /// One literal per network node, indexed by `NodeId::index()`.
    pub nodes: Vec<Lit>,
    /// One literal per primary output, in port order.
    pub outputs: Vec<Lit>,
}

/// A CNF builder over an owned [`Solver`].
#[derive(Debug)]
pub struct Encoder {
    solver: Solver,
    /// `(a, b) -> a AND b` with `a <= b` by literal code.
    strash_and: FxHashMap<(u32, u32), Lit>,
    /// `(a, b) -> a XOR b` over positive literals with `a < b`.
    strash_xor: FxHashMap<(u32, u32), Lit>,
    /// Per-variable gate definition, indexed by `Var::index()`. `None`
    /// for free variables (primary inputs) and the constant-true var.
    defs: Vec<Option<GateDef>>,
    /// Conflicts spent in cone-local queries (the owned solver counts
    /// its own separately).
    cone_conflicts: u64,
    /// Global-variable values from the last satisfying
    /// [`Encoder::solve_cone`] query, keyed by `Var::index()`.
    /// Variables outside the cone are absent (and read as `false`, which
    /// is sound: they are not in the query's fanin).
    cone_model: FxHashMap<u32, bool>,
    /// The local solver of the current cone query, cleared and reused
    /// by every query so its buffers are allocated once per check.
    cone_solver: Solver,
    /// Global `Var::index()` -> local var of the current cone query
    /// (`u32::MAX` when unmapped), doubling as the BFS visited set. Only
    /// the entries a query maps are reset after it.
    cone_local: Vec<u32>,
    /// The global vars the current cone query mapped, in BFS order.
    cone_work: Vec<u32>,
    lit_true: Lit,
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

impl Encoder {
    /// Creates an encoder with the constant-true literal pre-asserted.
    pub fn new() -> Encoder {
        let mut solver = Solver::new();
        let lit_true = Lit::positive(solver.new_var());
        solver.add_clause(&[lit_true]);
        Encoder {
            solver,
            strash_and: FxHashMap::default(),
            strash_xor: FxHashMap::default(),
            defs: vec![None],
            cone_conflicts: 0,
            cone_model: FxHashMap::default(),
            cone_solver: Solver::new(),
            cone_local: Vec::new(),
            cone_work: Vec::new(),
            lit_true,
        }
    }

    /// The constant-true literal.
    pub fn lit_true(&self) -> Lit {
        self.lit_true
    }

    /// The constant-false literal.
    pub fn lit_false(&self) -> Lit {
        !self.lit_true
    }

    /// The literal for a boolean constant.
    pub fn constant(&self, value: bool) -> Lit {
        if value {
            self.lit_true
        } else {
            !self.lit_true
        }
    }

    /// A fresh unconstrained literal (a primary input).
    pub fn fresh(&mut self) -> Lit {
        self.defs.push(None);
        Lit::positive(self.solver.new_var())
    }

    /// Adds a raw clause.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.solver.add_clause(lits)
    }

    /// `a AND b`, folded and hashed.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return a;
        }
        if a == !self.lit_true || b == !self.lit_true || a == !b {
            return !self.lit_true;
        }
        if a == b {
            return a;
        }
        let key = if a.code() <= b.code() {
            (a.code() as u32, b.code() as u32)
        } else {
            (b.code() as u32, a.code() as u32)
        };
        if let Some(&t) = self.strash_and.get(&key) {
            return t;
        }
        let t = self.fresh();
        self.solver.add_clause(&[!t, a]);
        self.solver.add_clause(&[!t, b]);
        self.solver.add_clause(&[t, !a, !b]);
        self.defs[t.var().index()] = Some(GateDef::And(a, b));
        self.strash_and.insert(key, t);
        t
    }

    /// `a OR b` (as `!(!a AND !b)`).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// `NOT (a AND b)`.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// `NOT (a OR b)`.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(!a, !b)
    }

    /// `a XOR b`, folded and hashed with the operand signs peeled into
    /// the output sign.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_true {
            return !b;
        }
        if a == !self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return !a;
        }
        if b == !self.lit_true {
            return a;
        }
        if a == b {
            return !self.lit_true;
        }
        if a == !b {
            return self.lit_true;
        }
        let sign = a.is_negated() ^ b.is_negated();
        let (pa, pb) = (Lit::positive(a.var()), Lit::positive(b.var()));
        let key = if pa.code() <= pb.code() {
            (pa.code() as u32, pb.code() as u32)
        } else {
            (pb.code() as u32, pa.code() as u32)
        };
        let t = match self.strash_xor.get(&key) {
            Some(&t) => t,
            None => {
                let t = self.fresh();
                self.solver.add_clause(&[!t, pa, pb]);
                self.solver.add_clause(&[!t, !pa, !pb]);
                self.solver.add_clause(&[t, !pa, pb]);
                self.solver.add_clause(&[t, pa, !pb]);
                self.defs[t.var().index()] = Some(GateDef::Xor(pa, pb));
                self.strash_xor.insert(key, t);
                t
            }
        };
        t.xor_sign(sign)
    }

    /// `NOT (a XOR b)`.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Balanced AND over a non-empty literal slice.
    pub fn and_all(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "and_all over an empty slice");
        let mut level = lits.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        level[0]
    }

    /// Balanced OR over a non-empty literal slice.
    pub fn or_all(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "or_all over an empty slice");
        let inverted: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_all(&inverted)
    }

    /// Encodes a whole network: allocates the input literals from
    /// `inputs` (positionally) and Tseitin-encodes every gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InputArity`] if `inputs` does not match
    /// the network's primary-input count.
    pub fn encode_network(
        &mut self,
        network: &Network,
        inputs: &[Lit],
    ) -> Result<NetworkLits, NetworkError> {
        if inputs.len() != network.inputs().len() {
            return Err(NetworkError::InputArity {
                expected: network.inputs().len(),
                got: inputs.len(),
            });
        }
        let mut nodes: Vec<Lit> = Vec::with_capacity(network.len());
        let mut next_input = 0;
        for (_, node) in network.iter() {
            let lit = match node {
                Node::Input { .. } => {
                    let l = inputs[next_input];
                    next_input += 1;
                    l
                }
                Node::Const { value } => self.constant(*value),
                Node::Unary { op, a } => {
                    let la = nodes[a.index()];
                    match op {
                        UnOp::Inv => !la,
                        UnOp::Buf => la,
                    }
                }
                Node::Binary { op, a, b } => {
                    let (la, lb) = (nodes[a.index()], nodes[b.index()]);
                    self.binary(*op, la, lb)
                }
            };
            nodes.push(lit);
        }
        let outputs = network
            .outputs()
            .iter()
            .map(|p| nodes[p.driver.index()])
            .collect();
        Ok(NetworkLits { nodes, outputs })
    }

    /// Encodes one [`BinOp`](soi_netlist::BinOp) over operand literals.
    pub fn binary(&mut self, op: soi_netlist::BinOp, a: Lit, b: Lit) -> Lit {
        use soi_netlist::BinOp;
        match op {
            BinOp::And => self.and(a, b),
            BinOp::Or => self.or(a, b),
            BinOp::Nand => self.nand(a, b),
            BinOp::Nor => self.nor(a, b),
            BinOp::Xor => self.xor(a, b),
            BinOp::Xnor => self.xnor(a, b),
        }
    }

    /// Solves under assumptions with a conflict budget.
    pub fn solve(&mut self, assumptions: &[Lit], budget: u64) -> SatResult {
        self.solver.solve(assumptions, budget)
    }

    /// Solves under assumptions in a *fresh* solver containing only the
    /// clauses of the assumptions' transitive fanin cone.
    ///
    /// On a shared miter over two large networks the global CNF holds
    /// millions of variables, and every query pays for all of them: a
    /// `Sat` answer needs a total assignment, and even refutations
    /// wander through unrelated variables before VSIDS finds the cone.
    /// Rebuilding just the cone (the fraiging idiom) bounds each query
    /// by its own fanin instead of the whole formula.
    ///
    /// The cone itself is built to a size cap and *cut*: variables past
    /// the cap stay free inputs. An `Unsat` answer from a cut cone is
    /// still a valid proof (freeing variables only adds behaviours), and
    /// after a sweep has substituted shared literals the two sides of a
    /// miter usually reconverge just below the top, so small cones close
    /// most queries. A `Sat` answer from a cut cone may be spurious, so
    /// the query re-runs with a deeper cap until the cone is complete —
    /// only genuinely satisfiable or near-inequivalent queries pay for
    /// their full fanin. Satisfying models are read back through
    /// [`Encoder::cone_model_value`], with out-of-cone variables
    /// defaulting to `false` (sound, since they cannot affect the
    /// query).
    ///
    /// Deepening exists for callers that need that model: the output
    /// miters, whose `Sat` answer becomes a replayed counterexample. A
    /// caller that only acts on `Unsat` wants
    /// [`Encoder::refutes_bounded`] instead, which stops deepening early.
    pub fn solve_cone(&mut self, assumptions: &[Lit], budget: u64) -> SatResult {
        self.solve_cone_deepening(assumptions, budget, usize::MAX, true)
    }

    /// A proof attempt in a bounded cone: `true` only when the
    /// assumptions are refuted in the first 64-variable window or, after
    /// a cut-window `Sat`, in one deeper window of 1,024 variables
    /// (`CONE_INITIAL_LIMIT * CONE_GROWTH`).
    ///
    /// A `Sat` from the deeper window (cut or complete), a `Sat` from a
    /// complete first window and an exhausted `budget` all answer
    /// `false` alike; the cone is never built past the deeper window.
    /// Built for the sweep's internal candidate pairs, which merge only
    /// on a proof and never read a model; it never touches the
    /// [`Encoder::cone_model_value`] model.
    pub fn refutes_bounded(&mut self, assumptions: &[Lit], budget: u64) -> bool {
        let max_limit = CONE_INITIAL_LIMIT * CONE_GROWTH;
        self.solve_cone_deepening(assumptions, budget, max_limit, false) == SatResult::Unsat
    }

    /// Cone queries from [`CONE_INITIAL_LIMIT`] variables, deepened by
    /// [`CONE_GROWTH`] after every cut-cone `Sat` while the cap stays
    /// within `max_limit`. A `Sat` answer on a complete cone is stored
    /// as the cone model when `keep_model` is set.
    fn solve_cone_deepening(
        &mut self,
        assumptions: &[Lit],
        budget: u64,
        max_limit: usize,
        keep_model: bool,
    ) -> SatResult {
        let mut limit = CONE_INITIAL_LIMIT;
        loop {
            let (result, cut) = self.solve_cone_limited(assumptions, budget, limit, keep_model);
            if result == SatResult::Sat && cut && limit.saturating_mul(CONE_GROWTH) <= max_limit {
                limit *= CONE_GROWTH;
                continue;
            }
            return result;
        }
    }

    /// One cone query with at most `limit` cone variables; the second
    /// return is whether the cone was cut short. A `Sat` answer on a
    /// complete cone is stored as the cone model when `keep_model` is
    /// set.
    fn solve_cone_limited(
        &mut self,
        assumptions: &[Lit],
        budget: u64,
        limit: usize,
        keep_model: bool,
    ) -> (SatResult, bool) {
        let mut local = std::mem::take(&mut self.cone_solver);
        local.clear();
        let mut map = std::mem::take(&mut self.cone_local);
        map.resize(self.defs.len(), u32::MAX);
        // `work` holds the mapped global vars in BFS order; those past
        // `head` still have their definitions to emit.
        let mut work = std::mem::take(&mut self.cone_work);
        work.clear();
        let mut cut = false;
        fn local_lit(map: &mut [u32], work: &mut Vec<u32>, local: &mut Solver, l: Lit) -> Lit {
            let gv = l.var().index();
            if map[gv] == u32::MAX {
                map[gv] = local.new_var().index() as u32;
                work.push(gv as u32);
            }
            Lit::with_sign(Var::from_index(map[gv] as usize), l.is_negated())
        }
        let assumps: Vec<Lit> = assumptions
            .iter()
            .map(|&l| local_lit(&mut map, &mut work, &mut local, l))
            .collect();
        // Breadth-first, so a cut cone is a balanced window around the
        // assumptions rather than one depth-first path to the inputs —
        // reconvergence onto shared literals sits a few levels down, not
        // along a single branch.
        let mut head = 0;
        while head < work.len() {
            let gv = work[head];
            head += 1;
            if gv == self.lit_true.var().index() as u32 {
                // The constant-true var must keep its level-0 value even
                // past the cap — pinning it is one unit clause.
                let t = local_lit(&mut map, &mut work, &mut local, self.lit_true);
                local.add_clause(&[t]);
                continue;
            }
            if work.len() >= limit {
                // Past the cap: leave the variable a free input.
                cut |= self.defs[gv as usize].is_some();
                continue;
            }
            match self.defs[gv as usize] {
                Some(GateDef::And(a, b)) => {
                    let t = Lit::positive(Var::from_index(gv as usize));
                    let t = local_lit(&mut map, &mut work, &mut local, t);
                    let la = local_lit(&mut map, &mut work, &mut local, a);
                    let lb = local_lit(&mut map, &mut work, &mut local, b);
                    local.add_clause(&[!t, la]);
                    local.add_clause(&[!t, lb]);
                    local.add_clause(&[t, !la, !lb]);
                }
                Some(GateDef::Xor(a, b)) => {
                    let t = Lit::positive(Var::from_index(gv as usize));
                    let t = local_lit(&mut map, &mut work, &mut local, t);
                    let la = local_lit(&mut map, &mut work, &mut local, a);
                    let lb = local_lit(&mut map, &mut work, &mut local, b);
                    local.add_clause(&[!t, la, lb]);
                    local.add_clause(&[!t, !la, !lb]);
                    local.add_clause(&[t, !la, lb]);
                    local.add_clause(&[t, la, !lb]);
                }
                None => {}
            }
        }
        let result = local.solve(&assumps, budget);
        self.cone_conflicts += local.conflicts();
        if keep_model && result == SatResult::Sat && !cut {
            self.cone_model.clear();
            for &gv in &work {
                let lv = Var::from_index(map[gv as usize] as usize);
                self.cone_model
                    .insert(gv, local.model_value(Lit::positive(lv)));
            }
        }
        for &gv in &work {
            map[gv as usize] = u32::MAX;
        }
        self.cone_solver = local;
        self.cone_local = map;
        self.cone_work = work;
        (result, cut)
    }

    /// The value of `l` in the last satisfying model.
    pub fn model_value(&self, l: Lit) -> bool {
        self.solver.model_value(l)
    }

    /// The value of `l` in the last satisfying [`Encoder::solve_cone`]
    /// model; variables outside that query's cone read as `false`.
    pub fn cone_model_value(&self, l: Lit) -> bool {
        let v = self
            .cone_model
            .get(&(l.var().index() as u32))
            .copied()
            .unwrap_or(false);
        v ^ l.is_negated()
    }

    /// Total CDCL conflicts spent so far, across the owned solver and
    /// all cone-local queries.
    pub fn conflicts(&self) -> u64 {
        self.solver.conflicts() + self.cone_conflicts
    }

    /// Number of solver variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_netlist::BinOp;

    #[test]
    fn gate_truth_tables_via_sat() {
        for op in BinOp::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    let mut enc = Encoder::new();
                    let la = enc.fresh();
                    let lb = enc.fresh();
                    let out = enc.binary(op, la, lb);
                    let assume = [
                        la.xor_sign(!a),
                        lb.xor_sign(!b),
                        out.xor_sign(!op.eval(a, b)),
                    ];
                    assert_eq!(
                        enc.solve(&assume, 1_000),
                        SatResult::Sat,
                        "{op} {a} {b} should be consistent"
                    );
                    let assume = [
                        la.xor_sign(!a),
                        lb.xor_sign(!b),
                        out.xor_sign(op.eval(a, b)),
                    ];
                    assert_eq!(
                        enc.solve(&assume, 1_000),
                        SatResult::Unsat,
                        "{op} {a} {b} wrong output must be impossible"
                    );
                }
            }
        }
    }

    #[test]
    fn strash_shares_structure() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let b = enc.fresh();
        let t1 = enc.and(a, b);
        let t2 = enc.and(b, a);
        assert_eq!(t1, t2, "commuted AND shares the entry");
        let o1 = enc.or(a, b);
        let o2 = enc.nor(a, b);
        assert_eq!(o1, !o2, "OR and NOR share the De Morgan AND");
        let x1 = enc.xor(a, b);
        let x2 = enc.xor(!a, b);
        assert_eq!(x1, !x2, "operand sign peels into the output sign");
        let x3 = enc.xnor(b, a);
        assert_eq!(x3, !x1);
    }

    #[test]
    fn constant_folding() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let t = enc.lit_true();
        assert_eq!(enc.and(a, t), a);
        assert_eq!(enc.and(a, !t), !t);
        assert_eq!(enc.and(a, a), a);
        assert_eq!(enc.and(a, !a), !t);
        assert_eq!(enc.xor(a, a), !t);
        assert_eq!(enc.xor(a, !a), t);
        assert_eq!(enc.xor(a, t), !a);
        assert_eq!(enc.constant(true), t);
        assert_eq!(enc.constant(false), !t);
    }

    #[test]
    fn encode_network_matches_simulation() {
        let mut n = Network::new("mix");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b);
        let y = n.nand2(x, c);
        let z = n.nor2(y, a);
        let w = n.inv(z);
        n.add_output("w", w);
        n.add_output("x", x);

        let mut enc = Encoder::new();
        let inputs: Vec<Lit> = (0..3).map(|_| enc.fresh()).collect();
        let lits = enc.encode_network(&n, &inputs).unwrap();
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = n.simulate(&vals).unwrap();
            let assume: Vec<Lit> = inputs
                .iter()
                .zip(&vals)
                .map(|(&l, &v)| l.xor_sign(!v))
                .collect();
            assert_eq!(enc.solve(&assume, 10_000), SatResult::Sat);
            for (o, &lit) in lits.outputs.iter().enumerate() {
                assert_eq!(enc.model_value(lit), expect[o], "bits {bits} output {o}");
            }
        }
    }

    #[test]
    fn cone_solving_matches_global_solving() {
        let mut n = Network::new("mix");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b);
        let y = n.nand2(x, c);
        let z = n.nor2(y, a);
        n.add_output("z", z);

        let mut enc = Encoder::new();
        let inputs: Vec<Lit> = (0..3).map(|_| enc.fresh()).collect();
        let lits = enc.encode_network(&n, &inputs).unwrap();
        // An unrelated constrained island the cone must not drag in.
        let u = enc.fresh();
        let v = enc.fresh();
        let w = enc.and(u, v);
        enc.add_clause(&[w]);

        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = n.simulate(&vals).unwrap();
            let mut assume: Vec<Lit> = inputs
                .iter()
                .zip(&vals)
                .map(|(&l, &v)| l.xor_sign(!v))
                .collect();
            assume.push(lits.outputs[0].xor_sign(!expect[0]));
            assert_eq!(enc.solve_cone(&assume, 10_000), SatResult::Sat);
            for (i, (&l, &v)) in inputs.iter().zip(&vals).enumerate() {
                assert_eq!(enc.cone_model_value(l), v, "bits {bits} input {i}");
            }
            // Out-of-cone variables read as false.
            assert!(!enc.cone_model_value(w));
            assume.pop();
            assume.push(lits.outputs[0].xor_sign(expect[0]));
            assert_eq!(enc.solve_cone(&assume, 10_000), SatResult::Unsat);
        }
    }

    #[test]
    fn cone_solving_pins_the_constant() {
        let mut enc = Encoder::new();
        let t = enc.lit_true();
        assert_eq!(enc.solve_cone(&[t], 100), SatResult::Sat);
        assert!(enc.cone_model_value(t));
        assert_eq!(enc.solve_cone(&[!t], 100), SatResult::Unsat);
    }

    /// XOR against its AND-OR form: both sides reconverge on the same two
    /// inputs, structural hashing keeps them apart, and the miter's whole
    /// cone fits in the first window.
    #[test]
    fn bounded_query_refutes_a_reconvergent_equivalent_pair() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let b = enc.fresh();
        let x = enc.xor(a, b);
        let t1 = enc.and(a, !b);
        let t2 = enc.and(!a, b);
        let aoi = enc.or(t1, t2);
        assert_ne!(x, aoi, "strash must not close the pair");
        let miter = enc.xor(x, aoi);
        assert!(enc.refutes_bounded(&[miter], 200));

        // A satisfiable complete window answers `false` and leaves the
        // last `solve_cone` model alone.
        assert_eq!(enc.solve_cone(&[a, !b], 100), SatResult::Sat);
        let and = enc.and(a, b);
        let differ = enc.xor(x, and);
        assert!(!enc.refutes_bounded(&[!a, b, differ], 200));
        assert!(enc.cone_model_value(a));
        assert!(!enc.cone_model_value(b));
    }

    /// A left-linear AND chain against a balanced tree over the same
    /// inputs: equivalent, and the proof needs the whole cone (about
    /// three variables per input). The bounded query deepens once, so it
    /// proves the pair over 48 inputs (~140 variables, past the first
    /// window) and gives up over 400 (~1,200 variables, past the deeper
    /// one), where `solve_cone` deepens again and proves it.
    #[test]
    fn bounded_query_deepens_once_where_solve_cone_goes_on() {
        let chain_vs_tree = |width: usize| {
            let mut enc = Encoder::new();
            let inputs: Vec<Lit> = (0..width).map(|_| enc.fresh()).collect();
            let mut chain = inputs[0];
            for &l in &inputs[1..] {
                chain = enc.and(chain, l);
            }
            let tree = enc.and_all(&inputs);
            assert_ne!(chain, tree, "strash must not close the pair");
            let miter = enc.xor(chain, tree);
            (enc, miter)
        };
        let (mut enc, miter) = chain_vs_tree(48);
        assert!(enc.refutes_bounded(&[miter], 1_000_000));

        let (mut enc, miter) = chain_vs_tree(400);
        assert!(!enc.refutes_bounded(&[miter], 200));
        assert!(!enc.refutes_bounded(&[miter], 1_000_000));
        assert_eq!(enc.solve_cone(&[miter], 1_000_000), SatResult::Unsat);
    }

    #[test]
    fn encode_network_rejects_arity_mismatch() {
        let mut n = Network::new("one");
        let a = n.add_input("a");
        n.add_output("o", a);
        let mut enc = Encoder::new();
        assert!(matches!(
            enc.encode_network(&n, &[]),
            Err(NetworkError::InputArity { .. })
        ));
    }
}
