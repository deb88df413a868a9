//! One verified flow — bytes in, mapped and proved circuit out — run two
//! ways: [`run`] through the public `soi_guard::Pipeline` with tracing off,
//! and [`run_layers`], which calls each layer's public entry point in the
//! order the pipeline does and times every call from outside.
//!
//! Every failure is a typed [`StageError`] in the guard's own vocabulary,
//! so a failed flow is recorded with the stage that rejected it.

use std::time::{Duration, Instant};

use soi_cec::{
    check_mapped, check_networks, lower, verify_safe_sat, CecOptions, CecReport, CecVerdict,
    PbeSafetyReport,
};
use soi_domino_ir::{DominoCircuit, TransistorCounts};
use soi_guard::{check_pipeline, AuditConfig, Pipeline, Stage, StageError, StageFailure};
use soi_mapper::MappingResult;
use soi_netlist::{aiger, blif, Network};
use soi_pbe::excite::InputConstraints;
use soi_pbe::hazard;
use soi_trace::{Recorder, Stage as TraceStage, TraceHandle};
use soi_unate::{convert, Options};

use crate::workload::{Input, Source, Variant};

/// What a successful flow produced: the outputs the traced and untraced
/// runs must agree on bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapped {
    /// The paper's transistor accounting of the mapped circuit.
    pub counts: TransistorCounts,
    /// The mapped circuit itself.
    pub circuit: DominoCircuit,
    /// Worker threads the mapper's `Auto` schedule used.
    pub threads_used: usize,
}

impl From<MappingResult> for Mapped {
    fn from(r: MappingResult) -> Mapped {
        Mapped {
            counts: r.counts,
            circuit: r.circuit,
            threads_used: r.threads_used,
        }
    }
}

/// Where an untraced flow's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowTimes {
    /// Parse plus `Pipeline::run` (validate, unate, map, discharge-protect,
    /// audit).
    pub map: Duration,
    /// Equivalence proof plus SAT PBE-safety proof.
    pub verify: Duration,
}

/// Per-layer time and work of traced flows, summed over the flows of one
/// operation (peaks take the maximum).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// Front-end parse (`aiger::parse_bytes` / `blif::parse`).
    pub parse: Duration,
    /// `Network::validate`.
    pub validate: Duration,
    /// `soi_unate::convert`.
    pub unate: Duration,
    /// Source-network two-input gates.
    pub source_gates: u64,
    /// Unate-network gates.
    pub unate_gates: u64,
    /// `Mapper::run_unate`, whole.
    pub map_run: Duration,
    /// Mapper `dp` span minus its nested `cone-partition` span.
    pub dp: Duration,
    /// Mapper `cone-partition` span.
    pub cone_partition: Duration,
    /// Mapper `reconstruct` span.
    pub reconstruct: Duration,
    /// Mapper `pbe-postprocess` span (baseline discharge insertion and
    /// stack rearrangement; zero for the SOI mapper).
    pub pbe_post: Duration,
    /// DP combine steps.
    pub combine_steps: u64,
    /// Largest per-node candidate frontier.
    pub peak_candidates: u64,
    /// Most worker threads any DP used.
    pub threads_used: u64,
    /// `soi_pbe::hazard::check`.
    pub hazard: Duration,
    /// `soi_guard::check_pipeline`.
    pub audit: Duration,
    /// Vectors the audit's functional check simulated.
    pub audit_vectors: u64,
    /// `soi_cec::lower::circuit_to_network`.
    pub lower: Duration,
    /// `soi_cec::check_networks`.
    pub equiv: Duration,
    /// SAT queries the equivalence check issued.
    pub sat_calls: u64,
    /// CDCL conflicts of the equivalence check.
    pub conflicts: u64,
    /// Candidates the equivalence check settled by simulation alone.
    pub sim_filtered: u64,
    /// `soi_cec::verify_safe_sat`.
    pub safety: Duration,
    /// Junctions the PBE-safety proof checked.
    pub safety_junctions: u64,
    /// The whole traced flow, first byte parsed to last proof done.
    pub total: Duration,
}

impl Layers {
    /// The top-level layer calls, whose sum can never exceed
    /// [`Layers::total`].
    pub fn top_level(&self) -> [Duration; 9] {
        [
            self.parse,
            self.validate,
            self.unate,
            self.map_run,
            self.hazard,
            self.audit,
            self.lower,
            self.equiv,
            self.safety,
        ]
    }

    /// The mapper's sub-stages, whose sum can never exceed
    /// [`Layers::map_run`].
    pub fn mapper_stages(&self) -> [Duration; 4] {
        [
            self.cone_partition,
            self.dp,
            self.reconstruct,
            self.pbe_post,
        ]
    }

    /// Adds another flow's layers into this operation's totals.
    pub fn add(&mut self, o: &Layers) {
        self.parse += o.parse;
        self.validate += o.validate;
        self.unate += o.unate;
        self.source_gates += o.source_gates;
        self.unate_gates += o.unate_gates;
        self.map_run += o.map_run;
        self.dp += o.dp;
        self.cone_partition += o.cone_partition;
        self.reconstruct += o.reconstruct;
        self.pbe_post += o.pbe_post;
        self.combine_steps += o.combine_steps;
        self.peak_candidates = self.peak_candidates.max(o.peak_candidates);
        self.threads_used = self.threads_used.max(o.threads_used);
        self.hazard += o.hazard;
        self.audit += o.audit;
        self.audit_vectors += o.audit_vectors;
        self.lower += o.lower;
        self.equiv += o.equiv;
        self.sat_calls += o.sat_calls;
        self.conflicts += o.conflicts;
        self.sim_filtered += o.sim_filtered;
        self.safety += o.safety;
        self.safety_junctions += o.safety_junctions;
        self.total += o.total;
    }
}

fn stage_error(stage: Stage, context: &str, failure: StageFailure) -> StageError {
    StageError {
        stage,
        context: context.to_string(),
        failure,
    }
}

/// Parses an input with its front end; failures are the guard's typed
/// `parse` stage error.
fn parse(input: &Input) -> Result<Network, StageError> {
    match &input.source {
        Source::Aiger(bytes) => aiger::parse_bytes(bytes),
        Source::Blif(text) => blif::parse(text),
    }
    .map_err(|e| stage_error(Stage::Parse, &input.name, StageFailure::Network(e)))
}

/// The correctness gate on an equivalence report: the verdict must be
/// `Equivalent` with no unproven miter.
fn equivalence_gate(name: &str, report: &CecReport) -> Result<(), StageError> {
    let failure = match &report.verdict {
        CecVerdict::NotEquivalent(cex) => StageFailure::CecMismatch(cex.clone()),
        CecVerdict::Undecided { unproven } => StageFailure::CecUnproven {
            unproven: *unproven,
        },
        CecVerdict::Equivalent => return Ok(()),
    };
    Err(stage_error(Stage::Cec, name, failure))
}

/// The correctness gate on a PBE-safety report: every committed junction
/// proved unexcitable.
fn safety_gate(name: &str, report: &PbeSafetyReport) -> Result<(), StageError> {
    if report.safe && report.excitable == 0 && report.unknown == 0 {
        return Ok(());
    }
    let first = report
        .first_flagged
        .as_ref()
        .map(|(g, j)| format!("gate {g} junction {j}"))
        .unwrap_or_else(|| "<unknown>".to_string());
    Err(stage_error(
        Stage::Cec,
        name,
        StageFailure::CecUnsafe {
            count: report.excitable + report.unknown,
            first,
        },
    ))
}

fn safety_proof(circuit: &DominoCircuit, opts: &CecOptions) -> PbeSafetyReport {
    verify_safe_sat(
        circuit,
        &InputConstraints::none(),
        opts.output_conflict_budget,
    )
}

/// Runs one verified flow with tracing off: parse, `Pipeline::run`, then
/// `check_mapped` and `verify_safe_sat`, each gated.
///
/// # Errors
///
/// The first failing stage or correctness gate, as a typed [`StageError`].
pub fn run(input: &Input, variant: &Variant) -> Result<(Mapped, FlowTimes), StageError> {
    let start = Instant::now();
    let network = parse(input)?;
    let pipeline = Pipeline::new(variant.mapper());
    let report = pipeline.run(&network)?;
    let mapped = Instant::now();
    let opts = pipeline.cec_options();
    let equivalence = check_mapped(&network, &report.result.circuit, &opts)
        .map_err(|e| stage_error(Stage::Cec, &input.name, StageFailure::Cec(e)))?;
    equivalence_gate(&input.name, &equivalence)?;
    safety_gate(&input.name, &safety_proof(&report.result.circuit, &opts))?;
    let times = FlowTimes {
        map: mapped - start,
        verify: mapped.elapsed(),
    };
    Ok((report.result.into(), times))
}

/// Times `f` into `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Runs one verified flow layer by layer, timing each public call from
/// outside, with `recorder` attached to the mapper for its sub-stage
/// spans. The recorder is reset first; its spans and counters afterwards
/// belong to this flow alone.
///
/// # Errors
///
/// As for [`run`].
pub fn run_layers(
    input: &Input,
    variant: &Variant,
    recorder: &Recorder,
    trace: TraceHandle,
) -> Result<(Mapped, Layers), StageError> {
    let name = input.name.as_str();
    let fail = |stage, failure| stage_error(stage, name, failure);
    recorder.reset();
    let mut l = Layers::default();
    let start = Instant::now();

    let network = timed(&mut l.parse, || parse(input))?;
    timed(&mut l.validate, || network.validate())
        .map_err(|e| fail(Stage::NetlistValidate, StageFailure::Network(e)))?;
    let unate = timed(&mut l.unate, || convert(&network, &Options::default()))
        .map_err(|e| fail(Stage::UnateConvert, StageFailure::Unate(e)))?;
    l.source_gates = network.stats().binary_gates as u64;
    l.unate_gates = unate.stats().gates() as u64;

    let mut config = variant.config;
    config.trace = trace;
    let result = timed(&mut l.map_run, || {
        variant.mapper_with(config).run_unate(&unate)
    })
    .map_err(|e| fail(Stage::Map, StageFailure::Map(e)))?;
    l.combine_steps = result.combine_steps;
    l.peak_candidates = result.peak_candidates as u64;
    l.threads_used = result.threads_used as u64;

    result
        .circuit
        .validate()
        .map_err(|e| fail(Stage::DischargeProtect, StageFailure::Domino(e)))?;
    let hazards = timed(&mut l.hazard, || hazard::check(&result.circuit));
    if let Some(h) = hazards.first() {
        return Err(fail(
            Stage::DischargeProtect,
            StageFailure::Hazards {
                count: hazards.len(),
                first: format!("gate {} junction {}", h.gate, h.junction),
            },
        ));
    }
    let audit = timed(&mut l.audit, || {
        check_pipeline(&network, &unate, &result, &AuditConfig::default())
    })
    .map_err(|e| fail(Stage::Audit, StageFailure::Audit(e)))?;
    l.audit_vectors = audit.vectors_checked as u64;

    let opts = Pipeline::new(variant.mapper()).cec_options();
    let lowered = timed(&mut l.lower, || lower::circuit_to_network(&result.circuit));
    let equivalence = timed(&mut l.equiv, || check_networks(&network, &lowered, &opts))
        .map_err(|e| fail(Stage::Cec, StageFailure::Cec(e)))?;
    equivalence_gate(name, &equivalence)?;
    l.sat_calls = equivalence.sat_calls;
    l.conflicts = equivalence.conflicts;
    l.sim_filtered = equivalence.sim_filtered;
    let safety = timed(&mut l.safety, || safety_proof(&result.circuit, &opts));
    safety_gate(name, &safety)?;
    l.safety_junctions = safety.junctions_checked as u64;
    l.total = start.elapsed();

    let span = |stage| Duration::from_nanos(recorder.stage_nanos(stage).unwrap_or(0));
    l.cone_partition = span(TraceStage::ConePartition);
    l.dp = span(TraceStage::Dp).saturating_sub(l.cone_partition);
    l.reconstruct = span(TraceStage::Reconstruct);
    l.pbe_post = span(TraceStage::PbePostprocess);

    Ok((result.into(), l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn small_input(name: &str) -> Input {
        let network = soi_circuits::registry::benchmark(name).expect("registry circuit");
        Input {
            name: name.into(),
            source: Source::Blif(blif::write(&network)),
        }
    }

    #[test]
    fn traced_and_untraced_flows_agree_bit_for_bit() {
        let (recorder, trace) = Recorder::install();
        let input = small_input("cm150");
        for variant in Workload::PaperTables.variants() {
            let (plain, times) = run(&input, &variant).expect("untraced flow verifies");
            let (traced, layers) =
                run_layers(&input, &variant, recorder, trace).expect("traced flow verifies");
            assert_eq!(plain, traced, "{}", variant.label);
            assert!(times.map > Duration::ZERO && times.verify > Duration::ZERO);
            let top: Duration = layers.top_level().iter().sum();
            assert!(top <= layers.total, "{}", variant.label);
            let sub: Duration = layers.mapper_stages().iter().sum();
            assert!(sub <= layers.map_run, "{}", variant.label);
            assert_eq!(
                layers.pbe_post > Duration::ZERO,
                variant.algorithm != soi_mapper::Algorithm::SoiDominoMap,
                "{}",
                variant.label
            );
        }
    }

    #[test]
    fn malformed_input_fails_at_the_parse_stage() {
        let input = Input {
            name: "garbage".into(),
            source: Source::Aiger(b"aig 9 9 9".to_vec()),
        };
        let variant = Workload::Mult136Aig.variants()[0];
        let err = run(&input, &variant).expect_err("garbage cannot map");
        assert_eq!(err.stage, Stage::Parse);
    }
}
