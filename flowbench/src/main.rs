//! End-to-end and per-layer benchmark of the verified SOI domino mapping
//! flow.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <mult136-aig|control25k-aig|paper-tables> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One caller, closed loop: each operation starts when the previous one
//! has ended, and the only threads are the mapper's own `Auto` pool. With
//! `--trace 0` the run repeats untraced operations for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it alternates untraced
//! and traced operations and prints the per-layer metrics. The last
//! stdout line is the result object; the line before it is the run's
//! context (host, seed, thread counts, sample counts, failures).
//! `README.md` beside this file explains the workloads and metrics.

mod flow;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use soi_trace::{Recorder, TraceHandle};

use flow::{Layers, Mapped};
use report::{json_num, json_str, median, result_line, END_TO_END, PER_LAYER};
use workload::{Input, Variant, Workload};

const USAGE: &str = "usage: soi-flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_TIME`]; `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// Failure messages kept for the context line.
const MAX_MESSAGES: usize = 8;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("`{flag} {value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One operation: every input through every variant, in order.
struct Op {
    /// Wall time of the whole operation.
    wall: Duration,
    /// Map and verify parts (untraced operations only).
    map: Duration,
    verify: Duration,
    /// Layer totals (traced operations only).
    layers: Layers,
    /// Flows attempted.
    flows: usize,
    /// Each failed flow's typed error, rendered.
    failures: Vec<String>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// Runs one operation, untraced (`tracer` is `None`) or layer by layer,
/// and returns it with each flow's outputs (`None` where the flow failed).
/// A failing or panicking flow is recorded and the operation goes on.
fn run_op(
    inputs: &[Input],
    variants: &[Variant],
    tracer: Option<(&Recorder, TraceHandle)>,
) -> (Op, Vec<Option<Mapped>>) {
    let mut op = Op {
        wall: Duration::ZERO,
        map: Duration::ZERO,
        verify: Duration::ZERO,
        layers: Layers::default(),
        flows: inputs.len() * variants.len(),
        failures: Vec::new(),
    };
    let mut outputs = Vec::with_capacity(op.flows);
    for input in inputs {
        for variant in variants {
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| match tracer {
                None => flow::run(input, variant).map(|(m, t)| (m, Some(t), None)),
                Some((recorder, trace)) => flow::run_layers(input, variant, recorder, trace)
                    .map(|(m, l)| (m, None, Some(l))),
            }));
            op.wall += start.elapsed();
            let failure = match outcome {
                Ok(Ok((mapped, times, layers))) => {
                    if let Some(t) = times {
                        op.map += t.map;
                        op.verify += t.verify;
                    }
                    if let Some(l) = layers {
                        op.layers.add(&l);
                    }
                    outputs.push(Some(mapped));
                    continue;
                }
                Ok(Err(e)) => e.to_string(),
                Err(payload) => format!("panic: {}", panic_message(payload.as_ref())),
            };
            outputs.push(None);
            op.failures
                .push(format!("{}/{}: {failure}", input.name, variant.label));
        }
    }
    (op, outputs)
}

/// Everything a run observed, ready to print.
struct Run {
    args: Args,
    setup: Vec<Duration>,
    /// Untraced operations.
    plain: Vec<Op>,
    /// Traced operations (`--trace 1` only).
    traced: Vec<Op>,
    /// Per input list, the outputs of the first untraced operation on it,
    /// which every later operation on that list must reproduce bit for bit.
    references: Vec<Option<Vec<Option<Mapped>>>>,
    /// Violated invariants: set-up or outputs that did not repeat, layer
    /// sums over their total, missing layers.
    problems: Vec<String>,
    /// `VmHWM` once every input list has been mapped once: read after a
    /// fixed amount of work, so it does not grow with how many operations
    /// fit in `--seconds`.
    peak_rss_mb: f64,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.plain
            .iter()
            .chain(&self.traced)
            .map(|op| op.flows as u64)
            .sum()
    }

    fn failed(&self) -> u64 {
        self.plain
            .iter()
            .chain(&self.traced)
            .map(|op| op.failures.len() as u64)
            .sum()
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.problems.is_empty()
    }

    /// Checks one operation's outputs against the reference of its input
    /// list, or makes them the reference if it has none yet.
    fn compare(&mut self, list: usize, outputs: Vec<Option<Mapped>>, what: &str) {
        match &self.references[list] {
            None => self.references[list] = Some(outputs),
            Some(reference) if *reference != outputs => self.problems.push(format!(
                "{what} outputs on input list {list} differ from the first untraced operation"
            )),
            Some(_) => {}
        }
    }

    /// Every reference output.
    fn outputs(&self) -> impl Iterator<Item = &Mapped> {
        self.references.iter().flatten().flatten().flatten()
    }

    /// Sum of `f` over the reference outputs.
    fn total(&self, f: impl Fn(&Mapped) -> u32) -> f64 {
        self.outputs().map(|m| f64::from(f(m))).sum()
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let secs = |f: fn(&Op) -> Duration| median(self.plain.iter().map(|op| f(op).as_secs_f64()));
        let attempted = self.attempted();
        BTreeMap::from([
            ("flow_s", secs(|op| op.wall)),
            ("map_s", secs(|op| op.map)),
            ("verify_s", secs(|op| op.verify)),
            (
                "setup_s",
                median(self.setup.iter().map(Duration::as_secs_f64)),
            ),
            ("peak_rss_mb", self.peak_rss_mb),
            ("transistors", self.total(|m| m.counts.total)),
            ("discharge_transistors", self.total(|m| m.counts.discharge)),
            ("levels", self.total(|m| m.counts.levels)),
            (
                "pass_rate",
                (attempted - self.failed()) as f64 / attempted as f64,
            ),
        ])
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let of = |f: &dyn Fn(&Layers) -> f64| median(self.traced.iter().map(|op| f(&op.layers)));
        let s = |d: Duration| d.as_secs_f64();
        let wall = |ops: &[Op]| median(ops.iter().map(|op| s(op.wall)));
        BTreeMap::from([
            ("netlist.parse_s", of(&|l| s(l.parse))),
            ("netlist.validate_s", of(&|l| s(l.validate))),
            ("unate.convert_s", of(&|l| s(l.unate))),
            (
                "unate.dup_ratio",
                of(&|l| l.unate_gates as f64 / l.source_gates.max(1) as f64),
            ),
            ("mapper.run_s", of(&|l| s(l.map_run))),
            ("mapper.dp_s", of(&|l| s(l.dp))),
            ("mapper.combine_steps", of(&|l| l.combine_steps as f64)),
            ("mapper.peak_candidates", of(&|l| l.peak_candidates as f64)),
            ("mapper.threads_used", of(&|l| l.threads_used as f64)),
            ("mapper.reconstruct_s", of(&|l| s(l.reconstruct))),
            ("mapper.cone_partition_s", of(&|l| s(l.cone_partition))),
            ("mapper.pbe_post_s", of(&|l| s(l.pbe_post))),
            ("pbe.hazard_check_s", of(&|l| s(l.hazard))),
            ("guard.audit_s", of(&|l| s(l.audit))),
            ("guard.audit_vectors", of(&|l| l.audit_vectors as f64)),
            ("cec.lower_s", of(&|l| s(l.lower))),
            ("cec.equiv_s", of(&|l| s(l.equiv))),
            ("cec.sat_calls", of(&|l| l.sat_calls as f64)),
            ("cec.conflicts", of(&|l| l.conflicts as f64)),
            ("cec.sim_filtered", of(&|l| l.sim_filtered as f64)),
            ("cec.pbe_safety_s", of(&|l| s(l.safety))),
            ("cec.safety_junctions", of(&|l| l.safety_junctions as f64)),
            ("trace.overhead_s", wall(&self.traced) - wall(&self.plain)),
        ])
    }

    /// The context line: what a reader needs to compare this run with
    /// one from another host or seed.
    fn context_line(&self) -> String {
        let mut threads: BTreeMap<usize, usize> = BTreeMap::new();
        for m in self.outputs() {
            *threads.entry(m.threads_used).or_default() += 1;
        }
        let threads: Vec<String> = threads
            .iter()
            .map(|(t, n)| format!("\"{t}\": {n}"))
            .collect();
        let messages: Vec<String> = self
            .problems
            .iter()
            .chain(
                self.plain
                    .iter()
                    .chain(&self.traced)
                    .flat_map(|op| &op.failures),
            )
            .take(MAX_MESSAGES)
            .map(|m| json_str(m))
            .collect();
        let spread = |walls: Vec<f64>| {
            let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = walls.iter().copied().fold(0.0, f64::max);
            format!(
                "{{\"samples\": {}, \"min\": {}, \"median\": {}, \"max\": {}}}",
                walls.len(),
                json_num(lo),
                json_num(median(walls.iter().copied())),
                json_num(hi)
            )
        };
        let walls = |ops: &[Op]| ops.iter().map(|op| op.wall.as_secs_f64()).collect();
        let traced = if self.traced.is_empty() {
            "null".to_string()
        } else {
            spread(walls(&self.traced))
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seed_used\": {}, \"nproc\": {nproc}, \
             \"auto_threads\": {{{}}}, \"input_lists\": {}, \"operations\": {}, \
             \"traced_operations\": {}, \"setup_reps\": {}, \"operation_s\": {}, \
             \"traced_operation_s\": {traced}, \"messages\": [{}]}}}}",
            json_str(self.args.workload.name()),
            self.args.seed,
            self.args.workload.uses_seed(),
            threads.join(", "),
            self.references.len(),
            self.plain.len(),
            self.traced.len(),
            self.setup.len(),
            spread(walls(&self.plain)),
            messages.join(", ")
        )
    }
}

/// Checks a traced operation's layer invariants: layer sums within their
/// totals, every layer the workload runs present, bypassed layers zero.
fn layer_problems(workload: Workload, l: &Layers) -> Vec<String> {
    let mut out = Vec::new();
    let top: Duration = l.top_level().iter().sum();
    if top > l.total {
        out.push(format!(
            "layer times {top:?} exceed the traced total {:?}",
            l.total
        ));
    }
    let sub: Duration = l.mapper_stages().iter().sum();
    if sub > l.map_run {
        out.push(format!(
            "mapper stages {sub:?} exceed mapper.run {:?}",
            l.map_run
        ));
    }
    let present = [
        ("netlist.parse_s", l.parse),
        ("netlist.validate_s", l.validate),
        ("unate.convert_s", l.unate),
        ("mapper.run_s", l.map_run),
        ("mapper.dp_s", l.dp),
        ("mapper.reconstruct_s", l.reconstruct),
        ("mapper.cone_partition_s", l.cone_partition),
        ("pbe.hazard_check_s", l.hazard),
        ("guard.audit_s", l.audit),
        ("cec.lower_s", l.lower),
        ("cec.equiv_s", l.equiv),
        ("cec.pbe_safety_s", l.safety),
    ];
    for (name, d) in present {
        if d.is_zero() {
            out.push(format!("layer `{name}` reads zero"));
        }
    }
    if workload.runs_pbe_post() == l.pbe_post.is_zero() {
        out.push(format!(
            "`mapper.pbe_post_s` is {:?} on a workload that {} it",
            l.pbe_post,
            if workload.runs_pbe_post() {
                "runs"
            } else {
                "bypasses"
            }
        ));
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run(args: Args) -> Run {
    let workload = args.workload;
    let variants = workload.variants();
    let (lists, setup, repeatable) =
        workload.timed_setup(args.seed, SETUP_MIN_REPS, SETUP_MIN_TIME);
    let mut run = Run {
        args,
        setup,
        plain: Vec::new(),
        traced: Vec::new(),
        references: vec![None; lists.len()],
        problems: Vec::new(),
        peak_rss_mb: f64::NAN,
    };
    if let Err(e) = repeatable {
        run.problems.push(e);
    }
    let tracer = args.trace.then(Recorder::install);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Operations cycle through the input lists; an untraced run maps every
    // list at least once, so the count metrics cover all of them.
    for i in 0.. {
        let list = i % lists.len();
        let (op, outputs) = run_op(&lists[list], &variants, None);
        run.compare(list, outputs, "untraced");
        run.plain.push(op);
        if let Some(tracer) = tracer {
            let (op, outputs) = run_op(&lists[list], &variants, Some(tracer));
            run.compare(list, outputs, "traced");
            if op.failures.is_empty() {
                run.problems.extend(layer_problems(workload, &op.layers));
            }
            run.traced.push(op);
        }
        if i + 1 == lists.len() {
            match peak_rss_mb() {
                Some(mb) => run.peak_rss_mb = mb,
                None => run.problems.push("no VmHWM in /proc/self/status".into()),
            }
        }
        if start.elapsed() >= budget && (args.trace || i + 1 >= lists.len()) {
            break;
        }
    }
    run
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = run(args);
    for message in run.problems.iter().take(MAX_MESSAGES) {
        eprintln!("problem: {message}");
    }
    let (defs, values) = if args.trace {
        (&PER_LAYER[..], run.per_layer())
    } else {
        (&END_TO_END[..], run.end_to_end())
    };
    println!("{}", run.context_line());
    println!(
        "{}",
        result_line(run.correct(), run.attempted(), run.failed(), defs, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "paper-tables",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::PaperTables,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paper-tables",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn a_failing_flow_is_recorded_and_the_operation_goes_on() {
        let garbage = Input {
            name: "garbage".into(),
            source: workload::Source::Aiger(b"aig 9 9 9".to_vec()),
        };
        let cm150 = soi_circuits::registry::benchmark("cm150").expect("registry circuit");
        let good = Input {
            name: "cm150".into(),
            source: workload::Source::Blif(soi_netlist::blif::write(&cm150)),
        };
        let variants = Workload::Mult136Aig.variants();
        let (op, outputs) = run_op(&[garbage, good], &variants, None);
        assert_eq!(op.flows, 2);
        assert_eq!(op.failures.len(), 1);
        assert!(op.failures[0].starts_with("garbage/"), "{}", op.failures[0]);
        assert!(outputs[0].is_none() && outputs[1].is_some());
    }

    #[test]
    fn layer_invariants_flag_overlong_stages_and_missing_layers() {
        let ms = Duration::from_millis;
        let good = Layers {
            parse: ms(1),
            validate: ms(1),
            unate: ms(1),
            map_run: ms(10),
            dp: ms(4),
            cone_partition: ms(1),
            reconstruct: ms(2),
            hazard: ms(1),
            audit: ms(1),
            lower: ms(1),
            equiv: ms(1),
            safety: ms(1),
            total: ms(20),
            ..Layers::default()
        };
        assert!(layer_problems(Workload::Mult136Aig, &good).is_empty());
        // The baseline post-processing must run on the paper tables.
        assert_eq!(layer_problems(Workload::PaperTables, &good).len(), 1);
        let long = Layers {
            total: ms(5),
            reconstruct: ms(9),
            ..good
        };
        assert_eq!(layer_problems(Workload::Mult136Aig, &long).len(), 2);
        let missing = Layers {
            audit: Duration::ZERO,
            ..good
        };
        assert_eq!(layer_problems(Workload::Mult136Aig, &missing).len(), 1);
    }
}
