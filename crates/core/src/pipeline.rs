//! The scenario pipeline: world → audit → index → analyses.
//!
//! Every paper finding comes from one recipe — audit a synthetic world
//! once under the paper's setup, then read the audit many ways. This
//! module is the one place that runs the recipe from a world
//! description. `repro`, `caf-serve` (cache misses), the policy sweep
//! and `challenge_replay` all build through it, so they audit under
//! the same [`audit_config`] and agree byte for byte.
//!
//! A [`Scenario`] is the Q1/Q2 result: the world, its audit dataset,
//! the shared [`AuditIndex`] and both headline analyses projected from
//! it. [`build_q3`] is the Q3 counterpart over the dedicated Q3 world.
//! The stages open `fixture.*` spans (`fixture.world`,
//! `fixture.challenges`, `fixture.audit`, `fixture.index`,
//! `fixture.analyses`), the names trace rollups map onto layers.

use caf_bqt::CampaignConfig;
use caf_exec::EngineConfig;
use caf_geo::UsState;
use caf_synth::{ChallengeDelta, ChallengeError, SynthConfig, World};

use crate::{
    Audit, AuditConfig, AuditDataset, AuditIndex, ComplianceAnalysis, Q3Analysis, SamplingRule,
    ServiceabilityAnalysis,
};

/// The campaign configuration the command-line tools and the server
/// audit under: seeded by the scenario, on the caller's engine budget —
/// `workers` and `shard` come from `engine`, so a campaign that runs on
/// its own (the Q3 pass, the sensitivity ground truth, the oversight
/// sample) uses no more lanes than the engine. A campaign inside an
/// audit unit runs one lane whatever this says. The campaign's results
/// do not depend on its worker count.
pub fn campaign_config(seed: u64, engine: EngineConfig) -> CampaignConfig {
    CampaignConfig {
        seed,
        workers: engine.workers,
        shard: engine.shard,
        ..CampaignConfig::default()
    }
}

/// The paper's audit setup (§3.1–§3.2) over `synth`: the max(30, 10 %)
/// per-CBG sampling rule with two resample rounds for non-definitive
/// queries.
pub fn audit_config(synth: SynthConfig, campaign: CampaignConfig) -> AuditConfig {
    AuditConfig {
        synth,
        campaign,
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    }
}

/// A fully-run Q1/Q2 scenario: world, audit dataset, shared index, and
/// analyses.
pub struct Scenario {
    /// The synthetic world, after any challenge deltas.
    pub world: World,
    /// The audit dataset over the world.
    pub dataset: AuditDataset,
    /// The columnar index over `dataset` — built once, shared by every
    /// analysis and experiment.
    pub index: AuditIndex,
    /// The Q1 serviceability analysis.
    pub serviceability: ServiceabilityAnalysis,
    /// The Q2 compliance analysis.
    pub compliance: ComplianceAnalysis,
    /// The audit the dataset was produced with (reused by experiments
    /// that re-run it over world subsets with [`Audit::run_for`]).
    pub audit: Audit,
    /// The engine configuration the audit ran with.
    pub engine: EngineConfig,
}

impl Scenario {
    /// Builds the world over `states`, applies the challenge `deltas`
    /// (none for the pristine world), audits it under [`audit_config`]
    /// with `campaign`, indexes the dataset at the world's epoch, and
    /// projects the Q1 and Q2 analyses.
    ///
    /// Output is byte-identical at any engine or campaign worker count.
    /// By the incremental-recompute contract, a scenario built at an
    /// epoch equals an epoch-0 audit refreshed through
    /// [`IncrementalAudit`](crate::IncrementalAudit) by the same deltas,
    /// however the stream was batched. Fails only when a delta does not
    /// validate against the world.
    pub fn build(
        synth: SynthConfig,
        states: &[UsState],
        engine: EngineConfig,
        campaign: CampaignConfig,
        deltas: &[ChallengeDelta],
    ) -> Result<Scenario, ChallengeError> {
        let mut world = {
            let _span = caf_obs::span("fixture.world");
            World::generate_states_on(synth, states, engine)
        };
        if !deltas.is_empty() {
            let _span = caf_obs::span("fixture.challenges");
            world.apply_deltas(deltas)?;
        }
        let audit = Audit::new(audit_config(synth, campaign));
        let dataset = {
            let _span = caf_obs::span("fixture.audit");
            audit.run_with(&world, engine)
        };
        let index = {
            let _span = caf_obs::span("fixture.index");
            AuditIndex::build_at(&dataset, world.epoch)
        };
        let (serviceability, compliance) = {
            let _span = caf_obs::span("fixture.analyses");
            (
                ServiceabilityAnalysis::from_index(&index),
                ComplianceAnalysis::from_index(&dataset, &index),
            )
        };
        Ok(Scenario {
            world,
            dataset,
            index,
            serviceability,
            compliance,
            audit,
            engine,
        })
    }
}

/// Builds the Q3 world over the seven Q3 states and runs the
/// regulated-vs-unregulated comparison on it. The engine sizes the
/// geography build; the analysis draws, queries and classifies each
/// state's blocks in its own unit on the campaign's workers
/// ([`campaign_config`] gives it the engine's).
pub fn build_q3(
    synth: SynthConfig,
    engine: EngineConfig,
    campaign: CampaignConfig,
) -> (World, Q3Analysis) {
    let world = World::generate_states_on(synth, &UsState::q3_states(), engine);
    let q3 = Q3Analysis::run(&world, campaign);
    (world, q3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_at_tiny_scale() {
        let synth = SynthConfig {
            seed: 3,
            scale: 120,
        };
        let s = Scenario::build(
            synth,
            &[UsState::Vermont],
            EngineConfig::default(),
            campaign_config(synth.seed, EngineConfig::default()),
            &[],
        )
        .expect("an empty delta stream cannot fail validation");
        assert!(s.dataset.row_count() > 0);
        assert_eq!(s.index.len(), s.dataset.row_count());
        let rate = s.serviceability.overall_rate();
        assert!((0.0..=1.0).contains(&rate));
        let _ = s.compliance.overall_rate();
        // The subset re-run over the scenario's only state reproduces
        // the scenario's own dataset.
        let again = s.audit.run_for(&s.world, &[UsState::Vermont], s.engine);
        assert!(again.records().eq(s.dataset.records()));
    }

    /// On the serial engine the campaign is the one-lane default the
    /// policy sweep once built by hand for each world.
    #[test]
    fn serial_campaign_config_is_the_one_lane_default() {
        let seed = 0xCAF_2024;
        let by_hand = CampaignConfig {
            seed,
            workers: 1,
            ..CampaignConfig::default()
        };
        assert_eq!(
            format!("{:?}", campaign_config(seed, EngineConfig::serial())),
            format!("{by_hand:?}")
        );
    }
}
