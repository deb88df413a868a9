//! The benchmark's workloads: what each one generates in set-up, and which
//! mapper configurations each operation runs over those inputs.
//!
//! `README.md` beside this crate records why each workload was chosen and
//! which layers it stresses.

use std::time::{Duration, Instant};

use soi_circuits::misc::random::{generate, RandomSpec};
use soi_circuits::{arith::multiplier, registry};
use soi_mapper::{Algorithm, MapConfig, Mapper};
use soi_netlist::{aiger, blif};

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A 136×136 array multiplier (~110k gates) as binary AIGER.
    Mult136Aig,
    /// Seeded random control logic (~30k gates) as binary AIGER.
    Control25kAig,
    /// Every registry circuit as BLIF, through the paper's six
    /// table configurations.
    PaperTables,
}

/// A serialized circuit, as a user would hand it to the flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Binary AIGER bytes.
    Aiger(Vec<u8>),
    /// BLIF text.
    Blif(String),
}

/// One named input circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Circuit name, for failure messages.
    pub name: String,
    /// The serialized circuit.
    pub source: Source,
}

/// One mapper configuration an operation runs on every input.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Short label, for failure messages.
    pub label: &'static str,
    /// Which of the paper's three mappers.
    pub algorithm: Algorithm,
    /// Its configuration.
    pub config: MapConfig,
}

impl Variant {
    /// A fresh mapper for this variant with `config` in place of the
    /// variant's own (the traced run attaches its recorder this way).
    pub fn mapper_with(&self, config: MapConfig) -> Mapper {
        match self.algorithm {
            Algorithm::DominoMap => Mapper::baseline(config),
            Algorithm::RsMap => Mapper::rearrange_stacks(config),
            Algorithm::SoiDominoMap => Mapper::soi(config),
        }
    }

    /// A fresh mapper for this variant.
    pub fn mapper(&self) -> Mapper {
        self.mapper_with(self.config)
    }
}

/// Upper bound on set-up repetitions per run.
pub const SETUP_MAX_REPS: usize = 100;

/// Gates of the control workload's generator spec.
const CONTROL_GATES: usize = 25_000;

/// Control networks per seed. Each operation maps one of them, so a run's
/// medians span several networks instead of hanging on one seed's.
const CONTROL_NETWORKS: u64 = 4;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Mult136Aig,
        Workload::Control25kAig,
        Workload::PaperTables,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mult136Aig => "mult136-aig",
            Workload::Control25kAig => "control25k-aig",
            Workload::PaperTables => "paper-tables",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the generated inputs depend on `--seed`. The fixed-structure
    /// workloads ignore it.
    pub fn uses_seed(self) -> bool {
        matches!(self, Workload::Control25kAig)
    }

    /// Whether any variant runs the baseline discharge post-processing
    /// (`Domino_Map`/`RS_Map`); the SOI mapper bypasses that layer.
    pub fn runs_pbe_post(self) -> bool {
        self.variants()
            .iter()
            .any(|v| v.algorithm != Algorithm::SoiDominoMap)
    }

    /// Generates and serializes the workload's inputs, one list per
    /// operation kind: a run cycles through the lists, one per operation.
    pub fn setup(self, seed: u64) -> Vec<Vec<Input>> {
        match self {
            Workload::Mult136Aig => vec![vec![Input {
                name: "mult136".into(),
                source: Source::Aiger(aiger::write_binary(&multiplier::array(136))),
            }]],
            Workload::Control25kAig => (0..CONTROL_NETWORKS)
                .map(|j| {
                    let sub_seed = seed.wrapping_mul(CONTROL_NETWORKS).wrapping_add(j);
                    let mut spec =
                        RandomSpec::control("control25k", 128, 32, CONTROL_GATES, sub_seed);
                    spec.xor_ratio = 0.02;
                    vec![Input {
                        name: format!("control25k-{sub_seed}"),
                        source: Source::Aiger(aiger::write_binary(&generate(&spec))),
                    }]
                })
                .collect(),
            Workload::PaperTables => vec![registry::names()
                .into_iter()
                .map(|name| Input {
                    name: name.into(),
                    source: Source::Blif(blif::write(
                        &registry::benchmark(name).expect("registry names resolve"),
                    )),
                })
                .collect()],
        }
    }

    /// Runs [`Workload::setup`] at least `min_reps` times and until
    /// `min_time` has passed (at most [`SETUP_MAX_REPS`] times), and returns
    /// the inputs with each repetition's duration, and whether every
    /// repetition produced the same bytes (an error names the first circuit
    /// that differed).
    pub fn timed_setup(
        self,
        seed: u64,
        min_reps: usize,
        min_time: Duration,
    ) -> (Vec<Vec<Input>>, Vec<Duration>, Result<(), String>) {
        let mut times: Vec<Duration> = Vec::new();
        let mut first: Option<Vec<Vec<Input>>> = None;
        let mut repeatable = Ok(());
        while times.len() < min_reps.max(1)
            || (times.iter().sum::<Duration>() < min_time && times.len() < SETUP_MAX_REPS)
        {
            let start = Instant::now();
            let inputs = std::hint::black_box(self.setup(seed));
            times.push(start.elapsed());
            match &first {
                None => first = Some(inputs),
                Some(prev) => {
                    let mut pairs = prev.iter().flatten().zip(inputs.iter().flatten());
                    if let Some((a, _)) = pairs.find(|(a, b)| a != b) {
                        repeatable = Err(format!("set-up of `{}` is not deterministic", a.name));
                    }
                }
            }
        }
        (first.expect("at least one repetition"), times, repeatable)
    }

    /// The mapper configurations every operation runs on every input.
    pub fn variants(self) -> Vec<Variant> {
        let soi = |label, config| Variant {
            label,
            algorithm: Algorithm::SoiDominoMap,
            config,
        };
        let domino = |label, config| Variant {
            label,
            algorithm: Algorithm::DominoMap,
            config,
        };
        match self {
            Workload::Mult136Aig | Workload::Control25kAig => {
                vec![soi("soi-default", MapConfig::default())]
            }
            Workload::PaperTables => vec![
                domino("domino-area", MapConfig::default()),
                Variant {
                    label: "rs-area",
                    algorithm: Algorithm::RsMap,
                    config: MapConfig::default(),
                },
                soi("soi-k1", MapConfig::with_clock_weight(1)),
                soi("soi-k2", MapConfig::with_clock_weight(2)),
                domino("domino-depth", MapConfig::depth()),
                soi("soi-depth", MapConfig::depth()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn only_paper_tables_runs_pbe_post() {
        assert!(Workload::PaperTables.runs_pbe_post());
        assert!(!Workload::Mult136Aig.runs_pbe_post());
        assert!(!Workload::Control25kAig.runs_pbe_post());
    }

    #[test]
    fn paper_tables_covers_the_registry_and_six_configurations() {
        let inputs = Workload::PaperTables.setup(0);
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].len(), registry::names().len());
        assert_eq!(Workload::PaperTables.variants().len(), 6);
    }

    #[test]
    fn control_inputs_follow_the_seed() {
        let (a, times, repeatable) = Workload::Control25kAig.timed_setup(7, 2, Duration::ZERO);
        assert_eq!((times.len(), repeatable), (2, Ok(())));
        let b = Workload::Control25kAig.setup(7);
        let c = Workload::Control25kAig.setup(8);
        assert_eq!(a, b);
        assert_eq!(a.len(), CONTROL_NETWORKS as usize);
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], c[0]);
    }
}
