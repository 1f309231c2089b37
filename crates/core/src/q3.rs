//! Q3 — regulated vs unregulated monopolies (§4.3).
//!
//! Within each census block served by a CAF-funded ISP, this analysis
//! compares the plans that same ISP advertises in three modes: at its
//! regulated **CAF** addresses, at non-CAF addresses where it is an
//! unregulated **monopoly**, and at non-CAF addresses where it faces
//! **competition**. Blocks are typed by the modes present — Type A
//! (CAF + monopoly), Type B (CAF + competition), Type C (all three) — and
//! per-block *average maximum download speeds* are compared per mode.
//!
//! The pipeline mirrors the paper's data flow: query every CAF and
//! non-CAF address against the incumbent; query non-CAF addresses against
//! each competitor with a Form-477 footprint claim; classify per-address
//! mode from the competitor outcomes; drop blocks with no served non-CAF
//! address; then compare block-level averages.

use caf_bqt::{Campaign, CampaignConfig, QueryTask};
use caf_exec::{CostHint, UnitPlan};
use caf_geo::{BlockId, UsState};
use caf_synth::q3::Q3BlockSpec;
use caf_synth::{Isp, Q3World, StateWorld, World};
use std::collections::HashMap;

use crate::index::RecordIndex;

/// A block's derived type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockType {
    /// CAF + monopoly modes only.
    A,
    /// CAF + competition modes only.
    B,
    /// All three modes.
    C,
}

impl BlockType {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BlockType::A => "Type A (CAF+Monopoly)",
            BlockType::B => "Type B (CAF+Competition)",
            BlockType::C => "Type C (all modes)",
        }
    }
}

/// Per-block mode averages.
#[derive(Debug, Clone)]
pub struct BlockComparison {
    /// The block.
    pub block: BlockId,
    /// The state.
    pub state: UsState,
    /// The incumbent CAF ISP.
    pub caf_isp: Isp,
    /// Derived type.
    pub block_type: BlockType,
    /// Average max download speed over served CAF addresses with a
    /// specified speed.
    pub caf_speed: f64,
    /// Average over monopoly-mode non-CAF addresses, if the mode occurs.
    pub monopoly_speed: Option<f64>,
    /// Average over competition-mode non-CAF addresses, if the mode
    /// occurs.
    pub competition_speed: Option<f64>,
    /// Average carriage value (Mbps per dollar per month) over served CAF
    /// addresses, where priced plans were advertised.
    pub caf_carriage: Option<f64>,
    /// Average carriage value over monopoly-mode addresses.
    pub monopoly_carriage: Option<f64>,
    /// Average carriage value over competition-mode addresses.
    pub competition_carriage: Option<f64>,
}

/// The relative outcome of a block comparison, with a tolerance for ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComparisonOutcome {
    /// CAF addresses average strictly better.
    CafBetter,
    /// Within tolerance of each other.
    Tie,
    /// The comparison mode averages strictly better.
    OtherBetter,
}

/// Relative tolerance below which two block averages count as identical.
pub const TIE_TOLERANCE: f64 = 0.01;

/// Compares two averages.
pub fn compare_speeds(caf: f64, other: f64) -> ComparisonOutcome {
    let scale = caf.abs().max(other.abs()).max(1e-12);
    if (caf - other).abs() / scale <= TIE_TOLERANCE {
        ComparisonOutcome::Tie
    } else if caf > other {
        ComparisonOutcome::CafBetter
    } else {
        ComparisonOutcome::OtherBetter
    }
}

/// The Q3 analysis results.
#[derive(Debug, Default)]
pub struct Q3Analysis {
    /// One comparison per surviving block.
    pub blocks: Vec<BlockComparison>,
    /// CAF addresses queried (before filtering).
    pub caf_queried: usize,
    /// Non-CAF addresses queried against the incumbent.
    pub non_caf_queried: usize,
    /// CAF addresses served (after filtering).
    pub caf_served: usize,
    /// Non-CAF addresses served by the incumbent.
    pub non_caf_served: usize,
    /// Blocks dropped because no non-CAF address was served by the
    /// incumbent.
    pub blocks_dropped: usize,
    /// Query records per (ISP): Table 4 accounting.
    pub queries_per_isp: HashMap<Isp, (usize, usize)>,
}

impl Q3Analysis {
    /// Runs the full Q3 pipeline over the world's Q3 blocks.
    ///
    /// One [`caf_exec::map_units`] pass with one unit per Q3 state,
    /// hinted by the state's address count, on `campaign_config.workers`
    /// lanes. A unit reads its state's blocks and truth (built on first
    /// read), runs a one-worker campaign over the state's tasks — the
    /// pass is the only pool, so no campaign pool nests inside it —
    /// indexes its own records and classifies its blocks. Partials merge
    /// in state order, and every query outcome is keyed by (seed,
    /// address, ISP), so the result is the same at any worker count.
    pub fn run(world: &World, campaign_config: CampaignConfig) -> Q3Analysis {
        let _span = caf_obs::span("q3");
        let states: Vec<&StateWorld> = world
            .states
            .iter()
            .filter(|sw| UsState::q3_states().contains(&sw.state))
            .collect();
        let hints: Vec<CostHint> = states
            .iter()
            .map(|sw| {
                let specs = Q3World::block_specs(&world.config, sw.state);
                CostHint::opaque(specs.iter().map(Q3BlockSpec::addresses).sum())
            })
            .collect();
        let plan = UnitPlan::build(campaign_config.workers, &hints, campaign_config.shard);
        let campaign = Campaign::new(CampaignConfig {
            workers: 1,
            ..campaign_config
        });
        let partials = caf_exec::map_units(&plan, |shard| {
            let sw = states[shard.unit];
            let _span = caf_obs::span_with(|| format!("q3.{}", sw.state.abbrev()));
            Q3Analysis::run_state(&sw.q3, &campaign)
        });

        let mut analysis = Q3Analysis::default();
        for partial in partials.into_iter().flatten() {
            analysis.blocks.extend(partial.blocks);
            analysis.caf_queried += partial.caf_queried;
            analysis.non_caf_queried += partial.non_caf_queried;
            analysis.caf_served += partial.caf_served;
            analysis.non_caf_served += partial.non_caf_served;
            analysis.blocks_dropped += partial.blocks_dropped;
            for (isp, (caf, non_caf)) in partial.queries_per_isp {
                let slot = analysis.queries_per_isp.entry(isp).or_insert((0, 0));
                slot.0 += caf;
                slot.1 += non_caf;
            }
        }
        analysis
    }

    /// The Q3 pipeline over one state's blocks: query, index, classify.
    fn run_state(q3: &Q3World, campaign: &Campaign) -> Q3Analysis {
        // Assemble the query task list: every address vs the incumbent;
        // non-CAF addresses additionally vs each footprint competitor.
        let mut tasks: Vec<QueryTask> = Vec::new();
        let mut caf_queried = 0usize;
        let mut non_caf_queried = 0usize;
        let mut queries_per_isp: HashMap<Isp, (usize, usize)> = HashMap::new();
        for block in &q3.blocks {
            for a in &block.addresses {
                tasks.push(QueryTask {
                    address: a.address.id,
                    isp: block.caf_isp,
                });
                let slot = queries_per_isp.entry(block.caf_isp).or_insert((0, 0));
                if a.is_caf {
                    caf_queried += 1;
                    slot.0 += 1;
                } else {
                    non_caf_queried += 1;
                    slot.1 += 1;
                    for &comp in &block.competitors {
                        tasks.push(QueryTask {
                            address: a.address.id,
                            isp: comp,
                        });
                        queries_per_isp.entry(comp).or_insert((0, 0)).1 += 1;
                    }
                }
            }
        }

        let result = campaign.run(&q3.truth, &tasks);
        // The per-(address, ISP) outcome lookup — Q3's analogue of the
        // audit's AuditIndex, binary-searched instead of hashed.
        let outcomes = RecordIndex::build(&result.records);

        // Classify blocks.
        let mut blocks = Vec::new();
        let mut blocks_dropped = 0usize;
        let mut caf_served = 0usize;
        let mut non_caf_served = 0usize;
        for block in &q3.blocks {
            let mut caf_speeds: Vec<f64> = Vec::new();
            let mut mono_speeds: Vec<f64> = Vec::new();
            let mut comp_speeds: Vec<f64> = Vec::new();
            let mut caf_cv: Vec<f64> = Vec::new();
            let mut mono_cv: Vec<f64> = Vec::new();
            let mut comp_cv: Vec<f64> = Vec::new();
            for a in &block.addresses {
                let Some(record) = outcomes.get(&result.records, a.address.id, block.caf_isp)
                else {
                    continue;
                };
                let served = matches!(record.outcome.is_served(), Some(true));
                if !served {
                    continue;
                }
                let speed = record.outcome.max_download_mbps();
                // Carriage value of the best-tier plan (§4.3 notes the
                // carriage-value view "observed similar trends").
                let carriage = match &record.outcome {
                    caf_bqt::QueryOutcome::Serviceable { plans, .. } => {
                        plans.first().and_then(|p| p.carriage_value())
                    }
                    _ => None,
                };
                if a.is_caf {
                    caf_served += 1;
                    if let Some(s) = speed {
                        caf_speeds.push(s);
                    }
                    if let Some(c) = carriage {
                        caf_cv.push(c);
                    }
                } else {
                    non_caf_served += 1;
                    // Mode: competition iff any footprint competitor
                    // also serves this address.
                    let competitive = block.competitors.iter().any(|&comp| {
                        outcomes
                            .get(&result.records, a.address.id, comp)
                            .is_some_and(|r| r.outcome.is_served() == Some(true))
                    });
                    if let Some(s) = speed {
                        if competitive {
                            comp_speeds.push(s);
                        } else {
                            mono_speeds.push(s);
                        }
                    }
                    if let Some(c) = carriage {
                        if competitive {
                            comp_cv.push(c);
                        } else {
                            mono_cv.push(c);
                        }
                    }
                }
            }

            // §4.3 filtering: need served CAF addresses and at least
            // one served non-CAF address.
            if caf_speeds.is_empty() || (mono_speeds.is_empty() && comp_speeds.is_empty()) {
                blocks_dropped += 1;
                continue;
            }
            let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let block_type = match (!mono_speeds.is_empty(), !comp_speeds.is_empty()) {
                (true, false) => BlockType::A,
                (false, true) => BlockType::B,
                (true, true) => BlockType::C,
                (false, false) => unreachable!("filtered above"),
            };
            let avg_opt = |xs: &[f64]| {
                if xs.is_empty() {
                    None
                } else {
                    Some(xs.iter().sum::<f64>() / xs.len() as f64)
                }
            };
            blocks.push(BlockComparison {
                block: block.id,
                state: block.state,
                caf_isp: block.caf_isp,
                block_type,
                caf_speed: avg(&caf_speeds),
                monopoly_speed: avg_opt(&mono_speeds),
                competition_speed: avg_opt(&comp_speeds),
                caf_carriage: avg_opt(&caf_cv),
                monopoly_carriage: avg_opt(&mono_cv),
                competition_carriage: avg_opt(&comp_cv),
            });
        }

        Q3Analysis {
            blocks,
            caf_queried,
            non_caf_queried,
            caf_served,
            non_caf_served,
            blocks_dropped,
            queries_per_isp,
        }
    }

    /// Blocks of one type.
    pub fn blocks_of(&self, block_type: BlockType) -> impl Iterator<Item = &BlockComparison> {
        self.blocks
            .iter()
            .filter(move |b| b.block_type == block_type)
    }

    /// Outcome fractions `(CAF better, tie, other better)` for Type-A
    /// blocks vs the monopoly mode (Figure 4a: 27 % / 54 % / 17 %).
    pub fn type_a_outcomes(&self) -> Option<[f64; 3]> {
        self.outcome_fractions(BlockType::A, |b| b.monopoly_speed)
    }

    /// Outcome fractions for Type-B blocks vs the competition mode
    /// (Figure 5a: 32.1 % / 37.2 % / 30.7 %).
    pub fn type_b_outcomes(&self) -> Option<[f64; 3]> {
        self.outcome_fractions(BlockType::B, |b| b.competition_speed)
    }

    /// Type-A outcome fractions measured on *carriage value* rather than
    /// speed — the alternative metric §4.3 reports as showing "similar
    /// trends".
    pub fn type_a_outcomes_by_carriage(&self) -> Option<[f64; 3]> {
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for b in self.blocks_of(BlockType::A) {
            let (Some(caf), Some(mono)) = (b.caf_carriage, b.monopoly_carriage) else {
                continue;
            };
            total += 1;
            match compare_speeds(caf, mono) {
                ComparisonOutcome::CafBetter => counts[0] += 1,
                ComparisonOutcome::Tie => counts[1] += 1,
                ComparisonOutcome::OtherBetter => counts[2] += 1,
            }
        }
        if total == 0 {
            return None;
        }
        Some([
            counts[0] as f64 / total as f64,
            counts[1] as f64 / total as f64,
            counts[2] as f64 / total as f64,
        ])
    }

    fn outcome_fractions<F>(&self, block_type: BlockType, other: F) -> Option<[f64; 3]>
    where
        F: Fn(&BlockComparison) -> Option<f64>,
    {
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        for b in self.blocks_of(block_type) {
            let Some(other_speed) = other(b) else {
                continue;
            };
            total += 1;
            match compare_speeds(b.caf_speed, other_speed) {
                ComparisonOutcome::CafBetter => counts[0] += 1,
                ComparisonOutcome::Tie => counts[1] += 1,
                ComparisonOutcome::OtherBetter => counts[2] += 1,
            }
        }
        if total == 0 {
            return None;
        }
        Some([
            counts[0] as f64 / total as f64,
            counts[1] as f64 / total as f64,
            counts[2] as f64 / total as f64,
        ])
    }

    /// Percentage speed increases of CAF over monopoly in Type-A blocks
    /// where CAF wins (Figure 4c: median 75 %, p80 400 %).
    pub fn type_a_uplift_percents(&self) -> Vec<f64> {
        self.blocks_of(BlockType::A)
            .filter_map(|b| {
                let mono = b.monopoly_speed?;
                if compare_speeds(b.caf_speed, mono) == ComparisonOutcome::CafBetter && mono > 0.0 {
                    Some(100.0 * (b.caf_speed - mono) / mono)
                } else {
                    None
                }
            })
            .collect()
    }

    /// `(caf, monopoly)` average speeds for Type-A blocks where CAF wins
    /// (Figure 4b's two CDFs).
    pub fn type_a_winning_speeds(&self) -> Vec<(f64, f64)> {
        self.blocks_of(BlockType::A)
            .filter_map(|b| {
                let mono = b.monopoly_speed?;
                (compare_speeds(b.caf_speed, mono) == ComparisonOutcome::CafBetter)
                    .then_some((b.caf_speed, mono))
            })
            .collect()
    }

    /// `(caf, competition)` average speeds for Type-B blocks where CAF
    /// wins (Figure 5b).
    pub fn type_b_winning_speeds(&self) -> Vec<(f64, f64)> {
        self.blocks_of(BlockType::B)
            .filter_map(|b| {
                let comp = b.competition_speed?;
                (compare_speeds(b.caf_speed, comp) == ComparisonOutcome::CafBetter)
                    .then_some((b.caf_speed, comp))
            })
            .collect()
    }

    /// The fraction of surviving blocks whose CAF-address average meets
    /// a policy download floor (Mbps), or `None` when no blocks
    /// survived. The sweep engine scores this under each speed-tier
    /// axis value: attainment under 10/1 vs 25/3 vs 100/20 shows how
    /// much of the measured CAF deployment clears each era's bar.
    pub fn tier_attainment(&self, min_down_mbps: f64) -> Option<f64> {
        if self.blocks.is_empty() {
            return None;
        }
        let meeting = self
            .blocks
            .iter()
            .filter(|b| b.caf_speed >= min_down_mbps)
            .count();
        Some(meeting as f64 / self.blocks.len() as f64)
    }

    /// CAF speeds in Type-A vs Type-B blocks (Figure 6a's two CDFs).
    pub fn caf_speeds_by_type(&self) -> (Vec<f64>, Vec<f64>) {
        let a = self.blocks_of(BlockType::A).map(|b| b.caf_speed).collect();
        let b = self.blocks_of(BlockType::B).map(|b| b.caf_speed).collect();
        (a, b)
    }

    /// The Figure-6b style case study: the same-ISP (Type A, Type B) block
    /// pair with the largest CAF-speed contrast, preferring the requested
    /// state, falling back to any state.
    pub fn case_study(&self, prefer_state: UsState) -> Option<(BlockComparison, BlockComparison)> {
        let candidates = |state_filter: Option<UsState>| {
            let mut best: Option<(BlockComparison, BlockComparison)> = None;
            let mut best_gap = 0.0;
            for a in self.blocks_of(BlockType::A) {
                if state_filter.is_some_and(|s| a.state != s) {
                    continue;
                }
                for b in self.blocks_of(BlockType::B) {
                    if b.caf_isp != a.caf_isp || b.state != a.state {
                        continue;
                    }
                    let gap = b.caf_speed - a.caf_speed;
                    if gap > best_gap {
                        best_gap = gap;
                        best = Some((a.clone(), b.clone()));
                    }
                }
            }
            best
        };
        candidates(Some(prefer_state)).or_else(|| candidates(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_synth::SynthConfig;

    fn analysis() -> Q3Analysis {
        let synth = SynthConfig {
            seed: 77,
            scale: 25,
        };
        let world = World::generate_states(synth, &[UsState::Ohio, UsState::California]);
        Q3Analysis::run(
            &world,
            CampaignConfig {
                seed: synth.seed,
                workers: 4,
                ..CampaignConfig::default()
            },
        )
    }

    #[test]
    fn compare_speeds_tolerance() {
        assert_eq!(compare_speeds(100.0, 100.0), ComparisonOutcome::Tie);
        assert_eq!(compare_speeds(100.0, 99.5), ComparisonOutcome::Tie);
        assert_eq!(compare_speeds(110.0, 100.0), ComparisonOutcome::CafBetter);
        assert_eq!(compare_speeds(90.0, 100.0), ComparisonOutcome::OtherBetter);
    }

    #[test]
    fn pipeline_produces_typed_blocks() {
        let q3 = analysis();
        assert!(!q3.blocks.is_empty());
        assert!(q3.caf_queried > 0 && q3.non_caf_queried > 0);
        assert!(q3.caf_served <= q3.caf_queried);
        // Type A dominates, per the paper's 8.76k/0.56k/0.10k mix.
        let a = q3.blocks_of(BlockType::A).count();
        let b = q3.blocks_of(BlockType::B).count();
        assert!(a > b, "A {a} should outnumber B {b}");
        // Some blocks get dropped by the no-served-non-CAF filter.
        assert!(q3.blocks_dropped > 0);
    }

    #[test]
    fn type_consistency_with_mode_speeds() {
        let q3 = analysis();
        for b in &q3.blocks {
            match b.block_type {
                BlockType::A => {
                    assert!(b.monopoly_speed.is_some());
                    assert!(b.competition_speed.is_none());
                }
                BlockType::B => {
                    assert!(b.monopoly_speed.is_none());
                    assert!(b.competition_speed.is_some());
                }
                BlockType::C => {
                    assert!(b.monopoly_speed.is_some());
                    assert!(b.competition_speed.is_some());
                }
            }
            assert!(b.caf_speed > 0.0);
        }
    }

    #[test]
    fn type_a_outcomes_shape() {
        let q3 = analysis();
        let [better, tie, worse] = q3.type_a_outcomes().expect("type A blocks exist");
        assert!((better + tie + worse - 1.0).abs() < 1e-9);
        // Tie is the modal outcome; CAF-better beats CAF-worse (§4.3).
        assert!(
            tie > better && tie > worse,
            "tie {tie} better {better} worse {worse}"
        );
        assert!(better > worse, "better {better} vs worse {worse}");
    }

    #[test]
    fn uplift_is_substantial_where_caf_wins() {
        let q3 = analysis();
        let mut uplifts = q3.type_a_uplift_percents();
        assert!(!uplifts.is_empty());
        uplifts.sort_by(|a, b| a.total_cmp(b));
        let median = uplifts[uplifts.len() / 2];
        // Figure 4c: median ≈ 75 %. Allow generous slack at small scale.
        assert!((25.0..250.0).contains(&median), "median uplift {median}");
        assert!(uplifts.iter().all(|&u| u > 0.0));
    }

    #[test]
    fn winning_speeds_are_ordered() {
        let q3 = analysis();
        for (caf, mono) in q3.type_a_winning_speeds() {
            assert!(caf > mono);
        }
        for (caf, comp) in q3.type_b_winning_speeds() {
            assert!(caf > comp);
        }
    }

    #[test]
    fn tier_attainment_is_monotone_in_the_floor() {
        let q3 = analysis();
        let caf = q3.tier_attainment(10.0).expect("blocks exist");
        let fcc = q3.tier_attainment(25.0).unwrap();
        let bead = q3.tier_attainment(100.0).unwrap();
        for rate in [caf, fcc, bead] {
            assert!((0.0..=1.0).contains(&rate));
        }
        assert!(caf >= fcc && fcc >= bead, "caf {caf} fcc {fcc} bead {bead}");
        // A zero floor is attained by every surviving block.
        assert_eq!(q3.tier_attainment(0.0), Some(1.0));
        assert_eq!(Q3Analysis::default().tier_attainment(10.0), None);
    }

    #[test]
    fn case_study_finds_a_contrast_pair() {
        let q3 = analysis();
        if let Some((a, b)) = q3.case_study(UsState::Georgia) {
            assert_eq!(a.caf_isp, b.caf_isp);
            assert_eq!(a.state, b.state);
            assert_eq!(a.block_type, BlockType::A);
            assert_eq!(b.block_type, BlockType::B);
            assert!(b.caf_speed > a.caf_speed);
        }
        // (Absence is acceptable at tiny scales; presence is checked in
        // the integration suite at larger scale.)
    }
}
