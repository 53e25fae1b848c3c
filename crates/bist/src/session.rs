//! Two-session self-test of the pipeline structure (Fig. 4).
//!
//! During the first session register `R1` works as a pattern generator and
//! `R2` as a signature analyser, so block `C1` (whose inputs are the primary
//! inputs and `R1`, and whose outputs feed `R2`) is tested; in the second
//! session the roles are swapped and `C2` is tested.  No transparency or
//! bypass mode is needed, and all lines between the registers and the blocks
//! are exercised — the structural argument of the paper for complete fault
//! coverage.

use crate::bilbo::{Bilbo, BilboMode};
use crate::fault::fault_list;
use crate::lfsr::Lfsr;
use stc_logic::{Netlist, PipelineLogic};

/// The result of one self-test session (one block under test).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Name of the block under test (`C1` or `C2`).
    pub block: String,
    /// Number of test patterns applied.
    pub patterns: usize,
    /// The fault-free signature collected in the analysing register.
    pub good_signature: u64,
    /// Number of single-stuck-at faults of the block.
    pub total_faults: usize,
    /// Faults whose signature differs from the fault-free signature.
    pub detected_faults: usize,
}

impl SessionResult {
    /// Signature-based fault coverage of the session; `0.0` for an empty
    /// fault list (see [`crate::coverage_fraction`] for the convention).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        crate::coverage_fraction(self.detected_faults, self.total_faults)
    }
}

/// The result of the complete two-session self-test.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTestResult {
    /// Session 1: `R1` generates, `R2` analyses, `C1` is tested.
    pub session1: SessionResult,
    /// Session 2: `R2` generates, `R1` analyses, `C2` is tested.
    pub session2: SessionResult,
}

impl SelfTestResult {
    /// Overall signature-based fault coverage over both blocks; `0.0` when
    /// both fault lists are empty (see [`crate::coverage_fraction`]).
    #[must_use]
    pub fn overall_coverage(&self) -> f64 {
        crate::coverage_fraction(
            self.session1.detected_faults + self.session2.detected_faults,
            self.session1.total_faults + self.session2.total_faults,
        )
    }
}

/// Runs the two-session self-test of a synthesised pipeline controller.
///
/// Faults are detected by signature comparison: a fault counts as detected if
/// the signature collected in the analysing register differs from the
/// fault-free signature (so aliasing, while astronomically unlikely, is
/// modelled faithfully).
#[must_use]
pub fn pipeline_self_test(pipeline: &PipelineLogic, patterns_per_session: usize) -> SelfTestResult {
    let session1 = run_session(
        "C1",
        &pipeline.c1.netlist,
        pipeline.r2_bits,
        patterns_per_session,
    );
    let session2 = run_session(
        "C2",
        &pipeline.c2.netlist,
        pipeline.r1_bits,
        patterns_per_session,
    );
    SelfTestResult { session1, session2 }
}

/// The pattern sequence a self-test session applies to a block under test,
/// in application order.
///
/// The generating register and the primary-input source are modelled as one
/// combined *modified* (de Bruijn) LFSR spanning the block's input cone
/// `I ∪ R_gen`.  A plain maximal-length LFSR skips the all-zero pattern — and
/// degenerates to a constant for 1-bit registers, which the worked example's
/// two 1-bit factor registers actually produce — so it can leave whole input
/// combinations untested; the modified LFSR visits all `2^k` input vectors
/// per period, realizing the paper's claim that each block is tested
/// exhaustively within its session.
///
/// This is the single source of truth for the plan's stimuli: the
/// signature-based session simulation below and the exact coverage
/// measurement ([`crate::measure_plan_coverage`]) both consume it, so the
/// measured coverage is the coverage of the *actual* BIST plan, not of some
/// unrelated pattern set.
#[must_use]
pub fn session_patterns(block: &Netlist, patterns: usize) -> Vec<Vec<bool>> {
    let width = session_source_width(block);
    session_patterns_from(
        block,
        crate::lfsr::PRIMITIVE_TAPS[width as usize],
        0b1,
        patterns,
    )
}

/// The width of the combined de Bruijn pattern source a session uses for
/// `block`: the block's input cone, clamped to the tabulated polynomial
/// range `1..=24`.  This is the register the plan optimizer picks seeds and
/// feedback polynomials for.
#[must_use]
pub fn session_source_width(block: &Netlist) -> u32 {
    (block.num_inputs() as u32).clamp(1, 24)
}

/// [`session_patterns`] with an explicit de Bruijn source: feedback `taps`
/// and `seed` for the [`session_source_width`]-wide generating register.
/// The default plan is `session_patterns_from(block,
/// PRIMITIVE_TAPS[width], 0b1, n)`; the plan optimizer
/// ([`crate::optimize_plan`]) searches over the taps/seed choice.
///
/// # Panics
///
/// Panics if a tap is out of range for the source width or the seed is zero
/// (see [`Lfsr::new`]).
#[must_use]
pub fn session_patterns_from(
    block: &Netlist,
    taps: &[u32],
    seed: u64,
    patterns: usize,
) -> Vec<Vec<bool>> {
    let source_width = session_source_width(block);
    let mut source = Lfsr::de_bruijn_with_taps(source_width, taps, seed);
    // Blocks with an input cone wider than the tabulated polynomials get
    // the excess bits from a free-running auxiliary LFSR (pseudo-random
    // rather than exhaustive — such cones are too wide to exhaust anyway).
    let mut aux = Lfsr::with_primitive_polynomial(16, 0xace1);
    (0..patterns)
        .map(|_| {
            source.step();
            let mut inputs = source.state_bits();
            inputs.truncate(block.num_inputs());
            while inputs.len() < block.num_inputs() {
                aux.step();
                let needed = block.num_inputs() - inputs.len();
                inputs.extend(aux.state_bits().into_iter().take(needed));
            }
            inputs
        })
        .collect()
}

/// Runs one session: the analysing register spans `ana_bits`, and the block
/// under test is driven across its whole input cone by the
/// [`session_patterns`] stimuli.
fn run_session(name: &str, block: &Netlist, ana_bits: u32, patterns: usize) -> SessionResult {
    // The analysing register comprises the receiving state register plus the
    // output-observation stages; model it as at least 16 bits so the aliasing
    // probability (~2^-width) is negligible, as it is in real BIST hardware.
    let ana_width = ana_bits.max(16).clamp(1, 24);
    let stimuli = session_patterns(block, patterns);

    let signature_of = |fault: Option<(usize, bool)>| -> u64 {
        let mut analyser = Bilbo::new(ana_width, 0);
        analyser.set_mode(BilboMode::SignatureAnalysis);
        for inputs in &stimuli {
            let response = block.evaluate_with_fault(inputs, fault);
            let mut padded = response;
            padded.resize(ana_width as usize, false);
            analyser.clock(&padded);
        }
        analyser.contents_word()
    };

    let good_signature = signature_of(None);
    let faults = fault_list(block);
    let detected = faults
        .iter()
        .filter(|f| signature_of(Some((f.node, f.stuck_at))) != good_signature)
        .count();
    SessionResult {
        block: name.to_string(),
        patterns,
        good_signature,
        total_faults: faults.len(),
        detected_faults: detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_encoding::{EncodedPipeline, EncodingStrategy};
    use stc_fsm::paper_example;
    use stc_logic::{synthesize_pipeline, SynthOptions};
    use stc_synth::solve;

    fn example_pipeline() -> PipelineLogic {
        let m = paper_example();
        let outcome = solve(&m);
        let realization = outcome.best.realize(&m);
        let encoded = EncodedPipeline::new(&m, &realization, EncodingStrategy::Binary);
        synthesize_pipeline(&encoded, SynthOptions::default())
    }

    #[test]
    fn both_sessions_run_and_produce_signatures() {
        let pipeline = example_pipeline();
        let result = pipeline_self_test(&pipeline, 64);
        assert_eq!(result.session1.patterns, 64);
        assert_eq!(result.session2.patterns, 64);
        assert_eq!(result.session1.block, "C1");
        assert_eq!(result.session2.block, "C2");
    }

    #[test]
    fn coverage_is_high_for_the_worked_example() {
        let pipeline = example_pipeline();
        let result = pipeline_self_test(&pipeline, 128);
        assert!(
            result.overall_coverage() > 0.9,
            "expected near-complete coverage, got {}",
            result.overall_coverage()
        );
    }

    #[test]
    fn signature_coverage_agrees_with_output_compare_on_the_example() {
        // With a 16-bit analysing register aliasing is negligible, so the
        // signature-based coverage should match plain output comparison.
        let pipeline = example_pipeline();
        let result = pipeline_self_test(&pipeline, 128);
        for (session, netlist) in [
            (&result.session1, &pipeline.c1.netlist),
            (&result.session2, &pipeline.c2.netlist),
        ] {
            let faults = crate::fault::fault_list(netlist);
            let patterns = crate::fault::exhaustive_patterns(netlist.num_inputs());
            let report = crate::fault::simulate_faults(netlist, &patterns, &faults, None);
            assert_eq!(session.total_faults, report.total_faults);
            assert!(session.detected_faults <= report.detected);
        }
    }

    #[test]
    fn the_default_plan_is_the_tabulated_taps_with_seed_one() {
        // `session_patterns` must stay a thin alias of the generalised
        // source — the optimizer's first candidate IS the default plan, so
        // its baseline comparison would silently break if these diverged.
        let pipeline = example_pipeline();
        for block in [&pipeline.c1.netlist, &pipeline.c2.netlist] {
            let width = session_source_width(block);
            let taps = crate::lfsr::PRIMITIVE_TAPS[width as usize];
            assert_eq!(
                session_patterns(block, 40),
                session_patterns_from(block, taps, 0b1, 40)
            );
        }
    }

    #[test]
    fn deterministic_signatures() {
        let pipeline = example_pipeline();
        let a = pipeline_self_test(&pipeline, 32);
        let b = pipeline_self_test(&pipeline, 32);
        assert_eq!(a.session1.good_signature, b.session1.good_signature);
        assert_eq!(a.session2.good_signature, b.session2.good_signature);
    }
}
