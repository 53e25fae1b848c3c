//! The composed per-stage [`PipelineConfig`] and the outcome types of a
//! corpus run ([`SuiteRun`], [`MachineTiming`]) that
//! [`crate::Synthesis::run_suite`] returns.
//!
//! Determinism contract: a machine's report depends only on the machine and
//! the [`PipelineConfig`] — never on the worker count, scheduling order or
//! wall clock — and reports are assembled in corpus order.  The serial
//! fallback (`jobs == 1`) therefore produces byte-identical JSON to any
//! parallel run.  The only escape hatches are the per-machine wall-clock
//! timeout (a safety net against pathological corpora; disabled by default)
//! and a solver `time_limit` (also `None` by default): enabling either trades
//! determinism for boundedness, which the CLI documents.

use crate::report::SuiteReport;
use stc_encoding::EncodingStrategy;
use stc_logic::SynthOptions;
use stc_synth::SolverConfig;
use std::time::Duration;

/// Size limits above which the gate-level stages (encode, logic, BIST) are
/// skipped and a machine gets a `solve-only` report — mirroring the paper,
/// which reports gate-level numbers only for tractable machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateLevelLimits {
    /// Maximum `|S|` for gate-level synthesis.
    pub max_states: usize,
    /// Maximum input-alphabet size for gate-level synthesis.
    pub max_inputs: usize,
}

impl Default for GateLevelLimits {
    fn default() -> Self {
        Self {
            max_states: 10,
            max_inputs: 16,
        }
    }
}

/// Configuration of the exact fault-coverage measurement of the BIST plan
/// (the `coverage` stage).  Disabled by default: with `enabled == false` no
/// coverage stage runs and reports are byte-identical to pre-coverage
/// reports, so existing golden files are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageConfig {
    /// Whether to measure exact single-stuck-at coverage of the two-session
    /// BIST plan (bit-parallel fault simulation of the plan's own stimuli).
    pub enabled: bool,
    /// Cap on the patterns applied per session by the measurement.  `0`
    /// (the default) means no cap: exactly the plan's
    /// `patterns_per_session` stimuli are simulated.
    pub max_patterns: usize,
}

impl CoverageConfig {
    /// The number of patterns the measurement applies per session for a
    /// plan with the given pattern budget.
    #[must_use]
    pub fn applied_patterns(&self, patterns_per_session: usize) -> usize {
        if self.max_patterns == 0 {
            patterns_per_session
        } else {
            patterns_per_session.min(self.max_patterns)
        }
    }
}

/// Configuration of the coverage-driven BIST plan optimization (the
/// `optimize` stage).  Disabled by default: with `enabled == false` no
/// optimize stage runs and reports are byte-identical to pre-optimizer
/// reports, so existing golden files are unaffected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConfig {
    /// Whether to search LFSR seed/polynomial candidates and the
    /// per-session length split for the shortest plan reaching the target
    /// coverage.
    pub enabled: bool,
    /// Coverage each session must reach, as a fraction in `(0, 1]`.
    pub target: f64,
    /// Candidate pattern sources evaluated per session.
    pub max_candidates: usize,
    /// Total-pattern budget for the optimized plan.  `0` (the default)
    /// means *the fixed plan's budget*: `2 × patterns_per_session`.
    pub max_total_length: usize,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            target: 1.0,
            max_candidates: 16,
            max_total_length: 0,
        }
    }
}

impl OptimizeConfig {
    /// The effective total-length budget for a plan with the given
    /// per-session pattern budget (`0` resolves to `2 ×
    /// patterns_per_session`, floored at one pattern).
    #[must_use]
    pub fn resolved_max_total_length(&self, patterns_per_session: usize) -> usize {
        if self.max_total_length == 0 {
            (2 * patterns_per_session).max(1)
        } else {
            self.max_total_length
        }
    }
}

/// Configuration of a corpus run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// OSTR solver configuration.  The default is *deterministic*: a node
    /// budget with no wall-clock limit, so `nodes_investigated` and
    /// `budget_exhausted` are pure functions of the machine.
    pub solver: SolverConfig,
    /// State-assignment strategy.
    pub encoding: EncodingStrategy,
    /// Two-level minimisation options.
    pub synth: SynthOptions,
    /// BIST patterns per self-test session.
    pub patterns_per_session: usize,
    /// Gate-level stage limits.
    pub gate_level: GateLevelLimits,
    /// Exact fault-coverage measurement of the BIST plan.
    pub coverage: CoverageConfig,
    /// Coverage-driven optimization of the BIST plan.
    pub optimize: OptimizeConfig,
    /// Optional per-machine wall-clock timeout, checked between stages.
    /// `None` (the default) keeps the run fully deterministic.
    pub machine_timeout: Option<Duration>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig {
                max_nodes: 100_000,
                time_limit: None,
                lemma1_pruning: true,
                stop_at_lower_bound: true,
                branch_and_bound: true,
                parallel_subtrees: 1,
                steal_seed: 0,
            },
            encoding: EncodingStrategy::Binary,
            synth: SynthOptions::default(),
            patterns_per_session: 256,
            gate_level: GateLevelLimits::default(),
            coverage: CoverageConfig::default(),
            optimize: OptimizeConfig::default(),
            machine_timeout: None,
        }
    }
}

/// Wall-clock timing of one machine, reported alongside (never inside) the
/// deterministic report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineTiming {
    /// Machine name.
    pub name: String,
    /// Wall-clock time of the machine's pipeline run.
    pub elapsed: Duration,
}

/// The outcome of a corpus run: the deterministic report plus the
/// non-deterministic timing side channel.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The deterministic, machine-readable report.
    pub report: SuiteReport,
    /// Per-machine wall-clock timings, in corpus order.
    pub timings: Vec<MachineTiming>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StcConfig;
    use crate::corpus::{embedded_corpus, filter_by_names, CorpusEntry};
    use crate::report::MachineStatus;
    use crate::session::Synthesis;

    /// Runs `entries` through a session with the given per-stage
    /// configuration and `jobs` workers.
    fn run_suite(
        entries: &[CorpusEntry],
        config: &PipelineConfig,
        jobs: usize,
        suite_name: &str,
    ) -> SuiteRun {
        Synthesis::builder()
            .config(StcConfig {
                pipeline: *config,
                ..StcConfig::default()
            })
            .jobs(jobs)
            .build()
            .run_suite(entries, suite_name)
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            solver: SolverConfig {
                max_nodes: 10_000,
                time_limit: None,
                lemma1_pruning: true,
                stop_at_lower_bound: true,
                branch_and_bound: true,
                parallel_subtrees: 1,
                steal_seed: 0,
            },
            patterns_per_session: 32,
            ..PipelineConfig::default()
        }
    }

    fn small_corpus() -> Vec<CorpusEntry> {
        filter_by_names(
            embedded_corpus(),
            &["tav".to_string(), "shiftreg".to_string(), "mc".to_string()],
        )
        .unwrap()
    }

    #[test]
    fn full_reports_for_small_machines() {
        let run = run_suite(&small_corpus(), &small_config(), 1, "test");
        assert_eq!(run.report.machines.len(), 3);
        for m in &run.report.machines {
            assert_eq!(m.status, MachineStatus::Full, "{}", m.name);
            let solve = m.solve.as_ref().unwrap();
            assert!(solve.realization_verified, "{}", m.name);
            assert!(m.logic.is_some(), "{}", m.name);
            assert!(m.bist.is_some(), "{}", m.name);
        }
        let tav = &run.report.machines[2];
        assert_eq!(tav.name, "tav");
        assert_eq!(tav.solve.as_ref().unwrap().pipeline_ff, 2);
        assert_eq!(run.report.summary.full, 3);
        assert_eq!(run.timings.len(), 3);
    }

    #[test]
    fn oversized_machines_get_solve_only_reports() {
        let corpus = filter_by_names(embedded_corpus(), &["bbara".to_string()]).unwrap();
        let config = PipelineConfig {
            gate_level: GateLevelLimits {
                max_states: 4,
                max_inputs: 4,
            },
            ..small_config()
        };
        let run = run_suite(&corpus, &config, 1, "test");
        assert_eq!(run.report.machines[0].status, MachineStatus::SolveOnly);
        assert!(run.report.machines[0].solve.is_some());
        assert!(run.report.machines[0].logic.is_none());
    }

    #[test]
    fn zero_timeout_reports_timed_out_machines() {
        let corpus = small_corpus();
        let config = PipelineConfig {
            machine_timeout: Some(Duration::ZERO),
            ..small_config()
        };
        let run = run_suite(&corpus, &config, 1, "test");
        assert!(run
            .report
            .machines
            .iter()
            .all(|m| m.status == MachineStatus::TimedOut));
        // The solve stage still completed before the deadline check.
        assert!(run.report.machines.iter().all(|m| m.solve.is_some()));
    }

    #[test]
    fn parallel_run_equals_serial_run() {
        let corpus = small_corpus();
        let config = small_config();
        let serial = run_suite(&corpus, &config, 1, "test");
        for jobs in [2, 3, 8] {
            let parallel = run_suite(&corpus, &config, jobs, "test");
            assert_eq!(serial.report, parallel.report, "jobs = {jobs}");
            assert_eq!(
                serial.report.to_json_string(),
                parallel.report.to_json_string(),
                "jobs = {jobs}"
            );
        }
    }
}
