//! The three library workloads: `gate_suite`, `wide_bist` and `solve_scale`.
//!
//! Each request is one machine driven through `Synthesis::run` and its
//! report rendered to JSON, as `stc run` does.  A run is a closed loop of
//! balanced rounds (every distinct machine once per round, in a seeded
//! order) that stops at the round boundary nearest to the time budget.

use crate::metrics::{Metrics, Outcome, Qor};
use crate::rng::SplitMix;
use crate::speed;
use crate::stats::{geomean, median};
use stc::encoding::{Encoding, EncodingStrategy};
use stc::pipeline::{
    embedded_corpus, CorpusEntry, Json, MachineReport, MachineStatus, OptimizedPlan, SessionError,
    Synthesis,
};
use stc::synth::{OstrSolver, PreparedOstr};
use std::time::{Duration, Instant};

/// One distinct machine of a workload with the session that serves it.
struct Machine {
    entry: CorpusEntry,
    session: Synthesis,
}

/// How a workload's outputs are checked against the specification.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    /// Report sections equal the committed goldens of the same config.
    Goldens,
    /// The `C1`/`C2` netlists reproduce the realization tables.
    Netlists,
    /// Solutions match the pinned solver facts.
    SolverFacts,
}

/// A library workload after set-up: its distinct machines and checker.
pub struct Workload {
    machines: Vec<Machine>,
    check: Check,
}

fn session(settings: &[(&str, &str)]) -> Synthesis {
    let mut builder = Synthesis::builder().jobs(1);
    for (key, value) in settings {
        builder = builder
            .set(key, value)
            .unwrap_or_else(|e| panic!("benchmark setting {key}={value}: {e}"));
    }
    builder.build()
}

fn embedded(name: &str) -> CorpusEntry {
    embedded_corpus()
        .into_iter()
        .find(|entry| entry.name() == name)
        .unwrap_or_else(|| panic!("embedded suite has no machine '{name}'"))
}

/// Everything before the first timed request: input generation, the
/// embedded suite, the sessions and one untimed warm-up request.
pub fn set_up(name: &str) -> Option<Workload> {
    let full_flow = [
        ("coverage.enabled", "true"),
        ("coverage.optimize.enabled", "true"),
        ("emit.enabled", "true"),
    ];
    let workload = match name {
        "gate_suite" => Workload {
            machines: embedded_corpus()
                .into_iter()
                .map(|entry| Machine {
                    entry,
                    session: session(&full_flow),
                })
                .collect(),
            check: Check::Goldens,
        },
        "wide_bist" => {
            let wide = [
                ("bist.patterns", "64"),
                ("coverage.enabled", "true"),
                ("coverage.optimize.enabled", "true"),
                ("gate_level.max_states", "32"),
                ("gate_level.max_inputs", "64"),
            ];
            // 64-symbol input alphabets give the C1/C2 tables more rows
            // than the minimizer takes, so the covers stay large and the
            // BIST stages dominate.
            let planted = stc::fsm::PlantedSpec {
                rows: 5,
                cols: 5,
                states: 10,
                inputs: 64,
                outputs: 4,
                map_pairs: 2,
                seed: 1,
                max_attempts: 50,
            };
            let random = |name: &str, states| {
                CorpusEntry::external(stc::fsm::random_machine(name, states, 64, 4, 0x8a64))
            };
            Workload {
                machines: [
                    random("wide_random7", 7),
                    random("wide_random8", 8),
                    CorpusEntry::external(stc::fsm::planted_decomposable("wide_grid", planted).0),
                ]
                .into_iter()
                .map(|entry| Machine {
                    entry,
                    session: session(&wide),
                })
                .collect(),
                check: Check::Netlists,
            }
        }
        "solve_scale" => {
            let tiers = stc_bench::scale::scale_tiers();
            let scale = |index: usize, budget: &str| Machine {
                entry: CorpusEntry::external(stc_bench::scale::scale_machine(&tiers[index])),
                session: session(&[("solver.jobs", "2"), ("solver.max_nodes", budget)]),
            };
            let solver = [("solver.jobs", "2")];
            Workload {
                machines: vec![
                    scale(0, "1000000"),
                    scale(1, "100000"),
                    Machine {
                        entry: embedded("tbk"),
                        session: session(&solver),
                    },
                    Machine {
                        entry: embedded("ex1"),
                        session: session(&solver),
                    },
                ],
                check: Check::SolverFacts,
            }
        }
        _ => return None,
    };
    // Warm-up: one untimed request on the smallest embedded machine, which
    // passes every stage the workload's sessions enable.
    let warm = embedded("shiftreg");
    std::hint::black_box(render(&workload.machines[0].session.run(&warm)));
    Some(workload)
}

fn render(report: &MachineReport) -> String {
    report.to_json().to_compact()
}

/// A seeded permutation of `0..n` for one round.
fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Whether a phase should stop: after at least one round, at the round
/// boundary nearest to the time budget.
fn past_budget(rounds: &[f64], start: Instant, budget: Duration) -> bool {
    let Some(mean) = (!rounds.is_empty()).then(|| rounds.iter().sum::<f64>() / rounds.len() as f64)
    else {
        return false;
    };
    start.elapsed().as_secs_f64() + mean / 2.0 >= budget.as_secs_f64()
}

/// Per-request latencies of an untraced phase, each scaled to the
/// reference speed by the probes around it (see `speed`).
struct Phase {
    /// Seconds per request at the reference speed, by distinct machine.
    latency: Vec<Vec<f64>>,
    /// Seconds per round (sum of its requests) at the reference speed.
    rounds: Vec<f64>,
    /// Wall seconds per round.
    wall_rounds: Vec<f64>,
    /// Wall seconds per request, by distinct machine.
    wall_latency: Vec<Vec<f64>>,
    /// The reference kernel's time before each request.
    probes: Vec<f64>,
}

/// Outputs seen so far: the first rendering of each machine's report, and
/// how many requests disagreed with it.
struct Outputs {
    first: Vec<Option<String>>,
    requests: Vec<usize>,
    mismatched: Vec<usize>,
}

impl Outputs {
    fn new(n: usize) -> Self {
        Self {
            first: vec![None; n],
            requests: vec![0; n],
            mismatched: vec![0; n],
        }
    }

    fn record(&mut self, index: usize, output: String) {
        self.requests[index] += 1;
        match &self.first[index] {
            None => self.first[index] = Some(output),
            Some(first) if *first != output => self.mismatched[index] += 1,
            Some(_) => {}
        }
    }
}

fn untraced_phase(w: &Workload, seed: u64, budget: Duration, outputs: &mut Outputs) -> Phase {
    let n = w.machines.len();
    let mut phase = Phase {
        latency: vec![Vec::new(); n],
        rounds: Vec::new(),
        wall_rounds: Vec::new(),
        wall_latency: vec![Vec::new(); n],
        probes: Vec::new(),
    };
    // (round, machine, wall seconds) of each request, in sequence order.
    let mut requests = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while !past_budget(&phase.wall_rounds, start, budget) {
        let mut round_s = 0.0;
        for i in round_order(seed, round, n) {
            let machine = &w.machines[i];
            phase.probes.push(speed::probe());
            let t = Instant::now();
            let output = render(&machine.session.run(&machine.entry));
            let dt = t.elapsed().as_secs_f64();
            round_s += dt;
            requests.push((phase.wall_rounds.len(), i, dt));
            outputs.record(i, output);
        }
        phase.wall_rounds.push(round_s);
        round += 1;
    }
    phase.rounds = vec![0.0; phase.wall_rounds.len()];
    for (&(round, i, dt), f) in requests.iter().zip(speed::local_factors(&phase.probes)) {
        phase.latency[i].push(dt * f);
        phase.wall_latency[i].push(dt);
        phase.rounds[round] += dt * f;
    }
    phase
}

/// Checks each machine's first output; returns per-machine verdicts.
fn check_outputs(w: &Workload, outputs: &Outputs) -> Vec<Result<(), String>> {
    let goldens = (w.check == Check::Goldens).then(Goldens::load);
    w.machines
        .iter()
        .zip(&outputs.first)
        .map(|(machine, output)| {
            let output = output.as_deref().ok_or("no output")?;
            let report = Json::parse(output).map_err(|e| e.to_string())?;
            match w.check {
                Check::Goldens => goldens
                    .as_ref()
                    .expect("loaded for this check")
                    .as_ref()
                    .map_err(Clone::clone)?
                    .check(machine.entry.name(), &report),
                Check::Netlists => check_netlists(machine, &report),
                Check::SolverFacts => check_solver_facts(machine.entry.name(), &report),
            }
        })
        .collect()
}

/// The committed golden reports whose configs match `gate_suite`'s
/// sections: the default run for solve/logic/paper, the coverage run for
/// the measured BIST section and the optimize run for the plan.
struct Goldens {
    default: Json,
    coverage: Json,
    optimize: Json,
}

impl Goldens {
    fn load() -> Result<Self, String> {
        let read = |file: &str| {
            let path = format!("tests/golden/{file}");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        Ok(Self {
            default: read("embedded_suite.json")?,
            coverage: read("coverage.json")?,
            optimize: read("optimize.json")?,
        })
    }

    fn check(&self, name: &str, report: &Json) -> Result<(), String> {
        let sections = [
            (
                &self.default,
                ["status", "states", "solve", "paper", "logic"].as_slice(),
            ),
            (&self.coverage, ["bist"].as_slice()),
            (&self.optimize, ["optimize"].as_slice()),
        ];
        for (golden, keys) in sections {
            let machine = golden
                .get("machines")
                .and_then(Json::as_array)
                .and_then(|ms| {
                    ms.iter()
                        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                })
                .ok_or_else(|| format!("{name}: not in the golden"))?;
            for key in keys {
                // An absent section may be written as `null` or left out.
                let section = |json: &'_ Json| json.get(key).filter(|v| **v != Json::Null).cloned();
                if section(machine) != section(report) {
                    return Err(format!("{name}: section '{key}' differs from the golden"));
                }
            }
        }
        Ok(())
    }
}

/// Re-derives the machine's netlists through the staged flow and checks
/// that `C1` computes `δ1` and `C2` computes `δ2` on every (block, input)
/// pair, and that the timed report carries the same solve and logic
/// sections.
fn check_netlists(machine: &Machine, report: &Json) -> Result<(), String> {
    let name = machine.entry.name();
    let s = &machine.session;
    let decomposition = s.decompose_only(&machine.entry.machine);
    let encoded = s.encode(&decomposition).map_err(|e| e.to_string())?;
    let netlist = s.synthesize_logic(&encoded);
    let mut staged = empty_report();
    staged.solve = Some(decomposition.solve_report());
    staged.logic = Some(netlist.logic_report());
    let staged = staged.to_json();
    if ["solve", "logic"]
        .iter()
        .any(|key| staged.get(key) != report.get(key))
    {
        return Err(format!("{name}: report disagrees with the staged flow"));
    }
    let tables = &decomposition.realization.tables;
    let pipeline = &encoded.pipeline;
    let inputs = Encoding::sequential(machine.entry.machine.num_inputs(), EncodingStrategy::Binary);
    let padded = |encoding: &Encoding, index: usize, width: u32| {
        let mut bits = encoding.bits_of(index);
        while (bits.len() as u32) < width {
            bits.insert(0, false);
        }
        bits
    };
    let blocks = [
        (
            &netlist.logic.c1.netlist,
            &tables.delta1,
            &pipeline.r1_encoding,
            pipeline.r1_bits,
            &pipeline.r2_encoding,
            pipeline.r2_bits,
            "C1",
        ),
        (
            &netlist.logic.c2.netlist,
            &tables.delta2,
            &pipeline.r2_encoding,
            pipeline.r2_bits,
            &pipeline.r1_encoding,
            pipeline.r1_bits,
            "C2",
        ),
    ];
    for (block, delta, from, from_bits, to, to_bits, label) in blocks {
        for (state, row) in delta.iter().enumerate() {
            for (input, &next) in row.iter().enumerate() {
                let mut bits = inputs.bits_of(input);
                bits.extend(padded(from, state, from_bits));
                if block.evaluate(&bits) != padded(to, next, to_bits) {
                    return Err(format!("{name}: {label}({state}, {input}) is wrong"));
                }
            }
        }
    }
    Ok(())
}

fn empty_report() -> MachineReport {
    MachineReport {
        name: String::new(),
        status: MachineStatus::Full,
        states: 0,
        inputs: 0,
        outputs: 0,
        solve: None,
        paper_table1: None,
        paper_table2: None,
        logic: None,
        bist: None,
        optimize: None,
        analysis: None,
        emit: None,
    }
}

/// Pinned solver facts of `solve_scale`: (machine, s1, s2, nodes, budget
/// exhausted).
const SOLVER_FACTS: [(&str, u64, u64, u64, bool); 4] = [
    ("scale_s", 12, 12, 465_737, false),
    ("scale_m", 12, 12, 100_000, true),
    ("tbk", 11, 11, 28_126, false),
    ("ex1", 20, 20, 1, false),
];

fn check_solver_facts(name: &str, report: &Json) -> Result<(), String> {
    let expected = SOLVER_FACTS
        .iter()
        .find(|fact| fact.0 == name)
        .map(|&(_, s1, s2, nodes, exhausted)| (s1, s2, nodes, exhausted))
        .ok_or_else(|| format!("{name}: no pinned facts"))?;
    let solve = report
        .get("solve")
        .ok_or_else(|| format!("{name}: no solve section"))?;
    let number = |key: &str| solve.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let got = (
        number("s1"),
        number("s2"),
        number("nodes_investigated"),
        solve.get("budget_exhausted") == Some(&Json::Bool(true)),
    );
    if got != expected {
        return Err(format!(
            "{name}: solution (s1, s2, nodes, exhausted) = {got:?}, pinned {expected:?}"
        ));
    }
    Ok(())
}

/// Runs a library workload for `seconds`: untraced for the end-to-end
/// metrics, or half untraced and half traced for the per-layer metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outputs = Outputs::new(w.machines.len());
    let mut metrics = Metrics::default();
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let phase = untraced_phase(w, seed, budget, &mut outputs);
    let layers = traced.then(|| traced_phase(w, seed, budget, &mut outputs));
    // Read before the checks, whose own allocations must not set the peak.
    let peak_rss = crate::host::peak_rss_mb("self").expect("/proc/self/status reports VmHWM");

    let verdicts = check_outputs(w, &outputs);
    let attempted = outputs.requests.iter().sum();
    let mut failed = 0;
    let mut qor = Qor::default();
    let mut problems = Vec::new();
    for (i, verdict) in verdicts.iter().enumerate() {
        failed += outputs.mismatched[i];
        if let Err(problem) = verdict {
            failed += outputs.requests[i] - outputs.mismatched[i];
            problems.push(Json::String(problem.clone()));
        }
        if let Some(report) = outputs.first[i]
            .as_deref()
            .and_then(|o| Json::parse(o).ok())
        {
            qor.add(&report);
        }
    }

    let n = w.machines.len() as f64;
    let geomean_ms = |latency: &[Vec<f64>]| {
        geomean(&latency.iter().map(|l| median(l) * 1e3).collect::<Vec<_>>())
    };
    if let Some(layers) = layers {
        layers.record(&mut metrics, median(&phase.rounds), &qor);
        solve_split(w, &mut metrics);
    } else {
        metrics.set("req_per_s", n / median(&phase.rounds));
        metrics.set("req_ms_geomean", geomean_ms(&phase.latency));
        metrics.set("peak_rss_mb", peak_rss);
        metrics.set("register_bits", qor.register_bits as f64);
        metrics.set("success_ratio", 1.0 - failed as f64 / attempted as f64);
    }
    let per_machine = w
        .machines
        .iter()
        .zip(&phase.latency)
        .map(|(m, l)| (m.entry.name().to_string(), Json::Number(median(l) * 1e3)))
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
        details: vec![
            (
                "wall".into(),
                Json::Object(vec![
                    ("req_per_s".into(), Json::Number(n / median(&phase.wall_rounds))),
                    ("req_ms_geomean".into(), Json::Number(geomean_ms(&phase.wall_latency))),
                    ("slowdown".into(), Json::Number(1.0 / speed::factor(&phase.probes))),
                ]),
            ),
            ("median_ms".into(), Json::Object(per_machine)),
            ("rounds".into(), Json::from_usize(phase.rounds.len())),
            ("problems".into(), Json::Array(problems)),
        ],
    }
}

/// The stages of a staged request in flow order, each named by the metric
/// of its per-round span time.
const STAGES: [&str; 8] = [
    "solve.busy_s",
    "encode.busy_s",
    "logic.busy_s",
    "bist.busy_s",
    "coverage.busy_s",
    "optimize.busy_s",
    "emit.busy_s",
    "report.render_s",
];

fn timed<T>(span: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *span += start.elapsed().as_secs_f64();
    value
}

/// Drives one request stage by stage through the session's public stage
/// functions — the same flow `Synthesis::run` performs for these configs —
/// with a span around each call.  Returns the rendered report, the spans
/// and the request's wall time.
fn staged_request(machine: &Machine, spans: &mut [f64; 8]) -> (String, f64) {
    let start = Instant::now();
    let s = &machine.session;
    let config = s.config();
    let spec = &machine.entry.machine;
    let mut report = MachineReport {
        name: spec.name().to_string(),
        states: spec.num_states(),
        inputs: spec.num_inputs(),
        outputs: spec.num_outputs(),
        paper_table1: machine.entry.table1,
        paper_table2: machine.entry.table2,
        ..empty_report()
    };
    let decomposition = timed(&mut spans[0], || s.decompose_only(spec));
    report.solve = Some(decomposition.solve_report());
    match timed(&mut spans[1], || s.encode(&decomposition)) {
        Err(SessionError::GateLevelLimit { .. }) => report.status = MachineStatus::SolveOnly,
        Err(e) => report.status = MachineStatus::Error(e.to_string()),
        Ok(encoded) => {
            let netlist = timed(&mut spans[2], || s.synthesize_logic(&encoded));
            report.logic = Some(netlist.logic_report());
            let plan = timed(&mut spans[3], || s.plan_bist(&netlist));
            let mut bist = plan.bist_report();
            if config.pipeline.coverage.enabled {
                let coverage = timed(&mut spans[4], || s.measure_coverage(&plan));
                coverage.annotate(&mut bist);
            }
            report.bist = Some(bist);
            let optimized = config
                .pipeline
                .optimize
                .enabled
                .then(|| timed(&mut spans[5], || s.optimize_plan(&plan)));
            report.optimize = optimized.as_ref().map(OptimizedPlan::optimize_report);
            if config.emit.enabled {
                let code = timed(&mut spans[6], || s.emit_code(&plan, optimized.as_ref()));
                report.emit = Some(code.emit_report());
            }
        }
    }
    let output = timed(&mut spans[7], || render(&report));
    (output, start.elapsed().as_secs_f64())
}

/// Span sums of a traced phase.
struct Layers {
    /// Per round: the time of each stage's spans.
    round_spans: Vec<[f64; 8]>,
    /// Per round: the requests' wall time.
    round_totals: Vec<f64>,
    /// Per round: the requests' time at the reference speed.
    scaled_rounds: Vec<f64>,
}

fn traced_phase(w: &Workload, seed: u64, budget: Duration, outputs: &mut Outputs) -> Layers {
    let mut layers = Layers {
        round_spans: Vec::new(),
        round_totals: Vec::new(),
        scaled_rounds: Vec::new(),
    };
    // (round, wall seconds) of each request, and the probe before it.
    let (mut requests, mut probes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // Rounds continue the untraced phase's seeded sequence.
    let mut round = 1 << 32;
    while !past_budget(&layers.round_totals, start, budget) {
        let mut spans = [0.0; 8];
        let mut total = 0.0;
        for i in round_order(seed, round, w.machines.len()) {
            // Probed like the untraced phase, so `trace.overhead` compares
            // times at the reference speed and host drift between the two
            // phases does not show as tracing cost.
            probes.push(speed::probe());
            let (output, wall) = staged_request(&w.machines[i], &mut spans);
            total += wall;
            requests.push((layers.round_totals.len(), wall));
            outputs.record(i, output);
        }
        layers.round_spans.push(spans);
        layers.round_totals.push(total);
        round += 1;
    }
    layers.scaled_rounds = vec![0.0; layers.round_totals.len()];
    for (&(round, wall), f) in requests.iter().zip(speed::local_factors(&probes)) {
        layers.scaled_rounds[round] += wall * f;
    }
    layers
}

impl Layers {
    fn record(&self, metrics: &mut Metrics, untraced_round_s: f64, qor: &Qor) {
        let total: f64 = self.round_totals.iter().sum();
        let stage_sum = |stage: usize| self.round_spans.iter().map(|s| s[stage]).sum::<f64>();
        let busy = |stage: usize| {
            median(
                &self
                    .round_spans
                    .iter()
                    .map(|s| s[stage])
                    .collect::<Vec<_>>(),
            )
        };
        for (stage, name) in STAGES.iter().enumerate() {
            metrics.set(name, busy(stage));
        }
        metrics.set("solve.share", stage_sum(0) / total);
        metrics.set("logic.share", stage_sum(2) / total);
        metrics.set("bist.share", stage_sum(3) / total);
        metrics.set("optimize.share", stage_sum(5) / total);
        let spans: f64 = (0..STAGES.len()).map(stage_sum).sum();
        metrics.set("trace.span_cover", spans / total);
        metrics.set(
            "trace.overhead",
            median(&self.scaled_rounds) / untraced_round_s - 1.0,
        );

        if busy(3) > 0.0 {
            metrics.set("bist.fault_patterns_per_s", qor.fault_patterns() / busy(3));
        }
        qor.record_layers(metrics);
    }
}

/// The solve layer split into its two public halves, outside the stage
/// spans: basis construction (`PreparedOstr::new`) and the search
/// (`OstrSolver::solve_prepared`) serial and at 2 workers, once per
/// distinct machine.
fn solve_split(w: &Workload, metrics: &mut Metrics) {
    let (mut basis_s, mut serial_s, mut parallel_s, mut configured_s) = (0.0, 0.0, 0.0, 0.0);
    let mut nodes = 0;
    for machine in &w.machines {
        let prepared = timed(&mut basis_s, || PreparedOstr::new(&machine.entry.machine));
        let config = machine.session.config().pipeline.solver;
        for workers in [1, 2] {
            let solver = OstrSolver::new(stc::synth::SolverConfig {
                parallel_subtrees: workers,
                ..config
            });
            let mut search_s = 0.0;
            let outcome = timed(&mut search_s, || solver.solve_prepared(&prepared));
            if workers == 1 {
                serial_s += search_s;
                nodes += outcome.stats.nodes_investigated;
            } else {
                parallel_s += search_s;
            }
            if workers == config.parallel_subtrees.max(1) {
                configured_s += search_s;
            }
        }
    }
    metrics.set("solve.basis_s", basis_s);
    metrics.set("solve.search_s", configured_s);
    metrics.set("solve.nodes_per_s", nodes as f64 / configured_s);
    metrics.set("solve.parallel_speedup", serial_s / parallel_s);
}
