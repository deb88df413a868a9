// SipHash is fine here: `soi-domino-ir` deliberately has no dependencies
// (it is the leaf IR crate everything else points at), so it cannot use
// `soi_netlist::fx`, and the one map below is a per-gate net-merge scratch
// structure, not a mapping-hot-path table.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::fmt;

/// Phase of a primary-input literal.
///
/// The unate conversion step may require the complemented phase of a primary
/// input; in the physical circuit that phase is produced by an inverter at
/// the input boundary, which is legal in domino (inversions are permitted
/// only at primary inputs and outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The input as-is.
    Pos,
    /// The complemented input.
    Neg,
}

impl Phase {
    /// Applies the phase to a boolean value.
    pub fn apply(self, value: bool) -> bool {
        match self {
            Phase::Pos => value,
            Phase::Neg => !value,
        }
    }

    /// Applies the phase to 64 lanes at once.
    pub fn apply_word(self, word: u64) -> u64 {
        match self {
            Phase::Pos => word,
            Phase::Neg => !word,
        }
    }

    /// The opposite phase.
    pub fn flipped(self) -> Phase {
        match self {
            Phase::Pos => Phase::Neg,
            Phase::Neg => Phase::Pos,
        }
    }
}

/// The signal driving an nmos transistor gate in a pull-down network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signal {
    /// A literal of a primary input (`index` into the circuit's input list).
    Input {
        /// Index of the primary input.
        index: usize,
        /// Literal phase.
        phase: Phase,
    },
    /// The output of another domino gate.
    Gate(crate::GateId),
}

impl Signal {
    /// Positive literal of primary input `index`.
    pub fn input(index: usize) -> Signal {
        Signal::Input {
            index,
            phase: Phase::Pos,
        }
    }

    /// Negative literal of primary input `index`.
    pub fn input_neg(index: usize) -> Signal {
        Signal::Input {
            index,
            phase: Phase::Neg,
        }
    }

    /// Whether the signal is driven directly by a primary input (either
    /// phase). Gates containing such transistors need a foot n-clock
    /// transistor, because primary inputs are not guaranteed low during
    /// precharge.
    pub fn is_primary(self) -> bool {
        matches!(self, Signal::Input { .. })
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::Input {
                index,
                phase: Phase::Pos,
            } => write!(f, "i{index}"),
            Signal::Input {
                index,
                phase: Phase::Neg,
            } => write!(f, "i{index}'"),
            Signal::Gate(g) => write!(f, "g{}", g.index()),
        }
    }
}

/// A pull-down network: a series/parallel tree of nmos transistors.
///
/// By convention, the first child of a [`Pdn::Series`] is at the *top*
/// (dynamic-node side) and the last child at the *bottom* (ground side) —
/// the orientation that matters for the parasitic bipolar effect.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pdn {
    /// A single nmos transistor driven by `Signal`.
    Transistor(Signal),
    /// Children connected drain-to-source, top to bottom.
    Series(Vec<Pdn>),
    /// Children connected in parallel between the same pair of nets.
    Parallel(Vec<Pdn>),
}

impl Pdn {
    /// A single-transistor PDN.
    pub fn transistor(signal: Signal) -> Pdn {
        Pdn::Transistor(signal)
    }

    /// A series connection (normalized: unwraps singletons, splices nested
    /// series children).
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty.
    pub fn series(children: Vec<Pdn>) -> Pdn {
        assert!(!children.is_empty(), "series requires at least one child");
        let mut flat = Vec::with_capacity(children.len());
        for child in children {
            match child {
                Pdn::Series(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("one element")
        } else {
            Pdn::Series(flat)
        }
    }

    /// A parallel connection (normalized: unwraps singletons, splices nested
    /// parallel children).
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty.
    pub fn parallel(children: Vec<Pdn>) -> Pdn {
        assert!(!children.is_empty(), "parallel requires at least one child");
        let mut flat = Vec::with_capacity(children.len());
        for child in children {
            match child {
                Pdn::Parallel(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("one element")
        } else {
            Pdn::Parallel(flat)
        }
    }

    /// Width of the network: the maximum number of parallel branches at any
    /// level (the paper's `W`).
    pub fn width(&self) -> u32 {
        match self {
            Pdn::Transistor(_) => 1,
            Pdn::Series(children) => children.iter().map(Pdn::width).max().unwrap_or(1),
            Pdn::Parallel(children) => children.iter().map(Pdn::width).sum(),
        }
    }

    /// Height of the network: the maximum number of transistors in series on
    /// any path (the paper's `H`).
    pub fn height(&self) -> u32 {
        match self {
            Pdn::Transistor(_) => 1,
            Pdn::Series(children) => children.iter().map(Pdn::height).sum(),
            Pdn::Parallel(children) => children.iter().map(Pdn::height).max().unwrap_or(1),
        }
    }

    /// Number of nmos transistors in the network.
    pub fn transistor_count(&self) -> u32 {
        match self {
            Pdn::Transistor(_) => 1,
            Pdn::Series(children) | Pdn::Parallel(children) => {
                children.iter().map(Pdn::transistor_count).sum()
            }
        }
    }

    /// Whether a conducting path exists from top to bottom under the given
    /// signal valuation: lane 0 of [`Pdn::conducts_word`] with every signal
    /// broadcast to all lanes.
    pub fn conducts(&self, value_of: &impl Fn(Signal) -> bool) -> bool {
        self.conducts_word(&|s| if value_of(s) { !0 } else { 0 }) & 1 == 1
    }

    /// [`Pdn::conducts`] on 64 valuations at once: bit `k` of `word_of(s)`
    /// is signal `s` under valuation `k`, and bit `k` of the result says
    /// whether the network conducts under it. Series nodes AND their
    /// children, parallel nodes OR them.
    pub fn conducts_word(&self, word_of: &impl Fn(Signal) -> u64) -> u64 {
        match self {
            Pdn::Transistor(sig) => word_of(*sig),
            Pdn::Series(children) => children
                .iter()
                .fold(!0, |acc, c| acc & c.conducts_word(word_of)),
            Pdn::Parallel(children) => children
                .iter()
                .fold(0, |acc, c| acc | c.conducts_word(word_of)),
        }
    }

    /// All signals driving transistors, in tree order (with repetitions).
    pub fn signals(&self) -> Vec<Signal> {
        let mut out = Vec::new();
        self.collect_signals(&mut out);
        out
    }

    fn collect_signals(&self, out: &mut Vec<Signal>) {
        match self {
            Pdn::Transistor(sig) => out.push(*sig),
            Pdn::Series(children) | Pdn::Parallel(children) => {
                for c in children {
                    c.collect_signals(out);
                }
            }
        }
    }

    /// Whether any transistor is driven directly by a primary input.
    pub fn touches_primary_input(&self) -> bool {
        match self {
            Pdn::Transistor(sig) => sig.is_primary(),
            Pdn::Series(children) | Pdn::Parallel(children) => {
                children.iter().any(Pdn::touches_primary_input)
            }
        }
    }

    /// The subtree at `path` (a sequence of child indices from the root).
    pub fn subtree(&self, path: &[u32]) -> Option<&Pdn> {
        let mut cur = self;
        for &step in path {
            match cur {
                Pdn::Series(children) | Pdn::Parallel(children) => {
                    cur = children.get(step as usize)?;
                }
                Pdn::Transistor(_) => return None,
            }
        }
        Some(cur)
    }

    /// Flattens the tree into an explicit net/transistor graph.
    ///
    /// Net 0 is the dynamic node (top), net 1 the foot (bottom). Each
    /// junction between consecutive series children gets a fresh net,
    /// recorded in the returned graph's junction map so that
    /// [`JunctionRef`]s can be resolved to nets.
    pub fn flatten(&self) -> PdnGraph {
        let mut graph = PdnGraph {
            net_count: 2,
            transistors: Vec::new(),
            junctions: HashMap::new(),
        };
        let mut path = Vec::new();
        flatten_into(self, PdnGraph::TOP, PdnGraph::FOOT, &mut graph, &mut path);
        graph
    }
}

impl fmt::Display for Pdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pdn::Transistor(sig) => write!(f, "{sig}"),
            Pdn::Series(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Pdn::Parallel(children) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Identifier of a net in a flattened [`PdnGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Dense index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Address of an internal series junction inside a [`Pdn`] tree: the net
/// between children `index` and `index + 1` of the [`Pdn::Series`] node at
/// `path`.
///
/// Pre-discharge transistors attach to junctions; a `JunctionRef` stays
/// valid as long as the owning tree is not restructured.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JunctionRef {
    /// Child indices from the root to the series node.
    pub path: Vec<u32>,
    /// Junction position: between child `index` and child `index + 1`.
    pub index: u32,
}

impl JunctionRef {
    /// Creates a junction reference.
    pub fn new(path: Vec<u32>, index: u32) -> JunctionRef {
        JunctionRef { path, index }
    }
}

impl fmt::Display for JunctionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j[")?;
        for (i, p) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]:{}", self.index)
    }
}

/// One nmos transistor in a flattened [`PdnGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PdnTransistor {
    /// The controlling signal.
    pub signal: Signal,
    /// Net on the dynamic-node side (drain).
    pub upper: NetId,
    /// Net on the ground side (source).
    pub lower: NetId,
}

/// Flattened net/transistor view of a [`Pdn`], produced by [`Pdn::flatten`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdnGraph {
    net_count: u32,
    /// All transistors, in tree order.
    pub transistors: Vec<PdnTransistor>,
    junctions: HashMap<JunctionRef, NetId>,
}

impl PdnGraph {
    /// The dynamic node (top of the PDN).
    pub const TOP: NetId = NetId(0);
    /// The foot node (bottom of the PDN, toward ground / the n-clock).
    pub const FOOT: NetId = NetId(1);

    /// Total number of nets, including `TOP` and `FOOT`.
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// Resolves a junction reference to its net.
    pub fn junction_net(&self, junction: &JunctionRef) -> Option<NetId> {
        self.junctions.get(junction).copied()
    }

    /// All junction nets with their references, in arbitrary order.
    pub fn junctions(&self) -> impl Iterator<Item = (&JunctionRef, NetId)> {
        self.junctions.iter().map(|(j, n)| (j, *n))
    }
}

fn flatten_into(pdn: &Pdn, top: NetId, bottom: NetId, graph: &mut PdnGraph, path: &mut Vec<u32>) {
    match pdn {
        Pdn::Transistor(signal) => graph.transistors.push(PdnTransistor {
            signal: *signal,
            upper: top,
            lower: bottom,
        }),
        Pdn::Series(children) => {
            let mut upper = top;
            for (i, child) in children.iter().enumerate() {
                let lower = if i + 1 == children.len() {
                    bottom
                } else {
                    let net = NetId(graph.net_count);
                    graph.net_count += 1;
                    graph
                        .junctions
                        .insert(JunctionRef::new(path.clone(), i as u32), net);
                    net
                };
                path.push(i as u32);
                flatten_into(child, upper, lower, graph, path);
                path.pop();
                upper = lower;
            }
        }
        Pdn::Parallel(children) => {
            for (i, child) in children.iter().enumerate() {
                path.push(i as u32);
                flatten_into(child, top, bottom, graph, path);
                path.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// `(A + B + C) * D` — the paper's Fig. 2(a) example.
    fn fig2a() -> Pdn {
        Pdn::series(vec![Pdn::parallel(vec![sig(0), sig(1), sig(2)]), sig(3)])
    }

    #[test]
    fn width_height_of_fig2a() {
        let p = fig2a();
        assert_eq!(p.width(), 3);
        assert_eq!(p.height(), 2);
        assert_eq!(p.transistor_count(), 4);
    }

    #[test]
    fn conducts_matches_boolean_function() {
        let p = fig2a();
        // f = (a | b | c) & d
        for bits in 0..16u32 {
            let v = |s: Signal| match s {
                Signal::Input { index, phase } => phase.apply(bits & (1 << index) != 0),
                Signal::Gate(_) => unreachable!(),
            };
            let expect = ((bits & 0b0111) != 0) && (bits & 0b1000 != 0);
            assert_eq!(p.conducts(&v), expect, "bits {bits:04b}");
        }
    }

    #[test]
    fn series_normalization_splices() {
        let p = Pdn::series(vec![Pdn::series(vec![sig(0), sig(1)]), sig(2)]);
        match &p {
            Pdn::Series(children) => assert_eq!(children.len(), 3),
            other => panic!("expected series, got {other:?}"),
        }
    }

    #[test]
    fn singleton_unwraps() {
        assert_eq!(Pdn::series(vec![sig(5)]), sig(5));
        assert_eq!(Pdn::parallel(vec![sig(5)]), sig(5));
    }

    #[test]
    fn flatten_fig2a() {
        let p = fig2a();
        let g = p.flatten();
        assert_eq!(g.transistors.len(), 4);
        // One junction between the parallel stack and D.
        assert_eq!(g.net_count(), 3);
        let j = JunctionRef::new(vec![], 0);
        let net = g.junction_net(&j).unwrap();
        // The three parallel transistors end at the junction; D starts there.
        for t in &g.transistors[..3] {
            assert_eq!(t.upper, PdnGraph::TOP);
            assert_eq!(t.lower, net);
        }
        assert_eq!(g.transistors[3].upper, net);
        assert_eq!(g.transistors[3].lower, PdnGraph::FOOT);
    }

    #[test]
    fn flatten_nested_series_junctions() {
        // (a * b) + c: junction inside the parallel branch.
        let p = Pdn::parallel(vec![Pdn::series(vec![sig(0), sig(1)]), sig(2)]);
        let g = p.flatten();
        assert_eq!(g.net_count(), 3);
        let j = JunctionRef::new(vec![0], 0);
        assert!(g.junction_net(&j).is_some());
    }

    #[test]
    fn subtree_resolution() {
        let p = fig2a();
        assert_eq!(p.subtree(&[]), Some(&p));
        assert_eq!(p.subtree(&[1]), Some(&sig(3)));
        assert_eq!(p.subtree(&[0, 2]), Some(&sig(2)));
        assert_eq!(p.subtree(&[5]), None);
        assert_eq!(p.subtree(&[1, 0]), None);
    }

    #[test]
    fn touches_primary_input() {
        assert!(fig2a().touches_primary_input());
        let p = Pdn::transistor(Signal::Gate(crate::GateId::from_index(0)));
        assert!(!p.touches_primary_input());
    }

    #[test]
    fn display_renders_structure() {
        let p = fig2a();
        assert_eq!(p.to_string(), "((i0 + i1 + i2) * i3)");
    }

    #[test]
    fn neg_phase_literal() {
        let p = Pdn::transistor(Signal::input_neg(2));
        let v = |s: Signal| match s {
            Signal::Input { phase, .. } => phase.apply(false),
            Signal::Gate(_) => unreachable!(),
        };
        assert!(p.conducts(&v));
        assert_eq!(p.to_string(), "i2'");
    }

    #[test]
    fn signals_in_tree_order() {
        let p = fig2a();
        let sigs = p.signals();
        assert_eq!(sigs.len(), 4);
        assert_eq!(sigs[0], Signal::input(0));
        assert_eq!(sigs[3], Signal::input(3));
    }
}
