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

use caf_bqt::{CampaignConfig, CampaignStats, ProxyPool, QueryClient, QueryOutcome, QueryRecord};
use caf_exec::{CostHint, UnitPlan};
use caf_geo::{Address, AddressId, BlockId, UsState};
use caf_synth::q3::{Q3Block, Q3BlockSpec};
use caf_synth::{AddressTruth, Isp, Q3Sink, Q3World, World};
use std::collections::HashMap;

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

/// One Q3 state's pass: a [`Q3Sink`] that queries and classifies each
/// block as it is drawn. The draw delivers a block's addresses and
/// truths in the campaign's task order (every address against the
/// incumbent; non-CAF addresses then against each footprint
/// competitor), so each block's tasks run in the order a campaign over
/// the state's whole task list would run them, on one client.
struct StatePass<'a> {
    querier: Querier<'a>,
    /// The block being drawn: its addresses and, in draw order, their
    /// truths. Both are emptied, not freed, between blocks.
    addresses: Vec<(AddressId, bool)>,
    truths: Vec<(AddressId, Isp, AddressTruth)>,
    analysis: Q3Analysis,
}

/// The one-lane campaign of a [`StatePass`].
struct Querier<'a> {
    config: &'a CampaignConfig,
    client: QueryClient,
    /// With telemetry on, the state's records in task order, whose
    /// totals the pass publishes as a campaign over them would.
    records: Option<Vec<QueryRecord>>,
}

impl Querier<'_> {
    /// Queries the next task, `(address, isp)`, against the next drawn
    /// truth, and returns what classification reads: `None` unless the
    /// address is served, else its maximum download speed and the
    /// carriage value of its best-tier plan (§4.3 notes the
    /// carriage-value view "observed similar trends").
    fn query(
        &mut self,
        truths: &mut impl Iterator<Item = (AddressId, Isp, AddressTruth)>,
        address: AddressId,
        isp: Isp,
    ) -> Option<(Option<f64>, Option<f64>)> {
        let (drawn, drawn_isp, truth) = truths.next().expect("a drawn truth per task");
        assert!(
            (drawn, drawn_isp) == (address, isp),
            "Q3 draw order must be the task order"
        );
        let record = self
            .client
            .query_truth(&truth, address, isp, self.config.attempts_for(isp));
        let served = match &record.outcome {
            QueryOutcome::Serviceable { plans, .. } => Some((
                record.outcome.max_download_mbps(),
                plans.first().and_then(|p| p.carriage_value()),
            )),
            _ => None,
        };
        if let Some(records) = &mut self.records {
            records.push(record);
        }
        served
    }
}

impl<'a> StatePass<'a> {
    fn new(config: &'a CampaignConfig) -> StatePass<'a> {
        let pool = ProxyPool::new(config.seed, config.proxy_pool_size);
        StatePass {
            querier: Querier {
                config,
                client: QueryClient::new(config.seed, config.max_attempts, pool),
                records: caf_obs::enabled().then(Vec::new),
            },
            addresses: Vec::new(),
            truths: Vec::new(),
            analysis: Q3Analysis::default(),
        }
    }

    /// The state's partial analysis. With telemetry on, publishes the
    /// `caf.bqt.campaign.*` totals a [`caf_bqt::Campaign::run`] over the state's
    /// task list would.
    fn finish(self) -> Q3Analysis {
        if let Some(records) = self.querier.records {
            let config = self.querier.config;
            CampaignStats::from_records(&records, config.throttle, config.workers)
                .publish(&records);
        }
        self.analysis
    }
}

impl Q3Sink for StatePass<'_> {
    fn address(&mut self, id: AddressId, is_caf: bool, _address: impl FnOnce() -> Address) {
        self.addresses.push((id, is_caf));
    }

    fn truth(&mut self, address: AddressId, isp: Isp, truth: AddressTruth) {
        self.truths.push((address, isp, truth));
    }

    /// Queries the block's tasks in task order and classifies the block.
    fn block(&mut self, block: Q3Block) {
        let StatePass {
            querier,
            addresses,
            truths,
            analysis,
        } = self;
        let mut drawn = truths.drain(..);
        let mut caf_speeds: Vec<f64> = Vec::new();
        let mut mono_speeds: Vec<f64> = Vec::new();
        let mut comp_speeds: Vec<f64> = Vec::new();
        let mut caf_cv: Vec<f64> = Vec::new();
        let mut mono_cv: Vec<f64> = Vec::new();
        let mut comp_cv: Vec<f64> = Vec::new();
        for (id, is_caf) in addresses.drain(..) {
            let served = querier.query(&mut drawn, id, block.caf_isp);
            let slot = analysis
                .queries_per_isp
                .entry(block.caf_isp)
                .or_insert((0, 0));
            if is_caf {
                slot.0 += 1;
                analysis.caf_queried += 1;
            } else {
                slot.1 += 1;
                analysis.non_caf_queried += 1;
            }
            // Mode: competition iff any footprint competitor also serves
            // this non-CAF address. Every competitor is queried.
            let mut competitive = false;
            if !is_caf {
                for &comp in &block.competitors {
                    competitive |= querier.query(&mut drawn, id, comp).is_some();
                    analysis.queries_per_isp.entry(comp).or_insert((0, 0)).1 += 1;
                }
            }

            let Some((speed, carriage)) = served else {
                continue;
            };
            let (speeds, cvs) = if is_caf {
                analysis.caf_served += 1;
                (&mut caf_speeds, &mut caf_cv)
            } else {
                analysis.non_caf_served += 1;
                if competitive {
                    (&mut comp_speeds, &mut comp_cv)
                } else {
                    (&mut mono_speeds, &mut mono_cv)
                }
            };
            speeds.extend(speed);
            cvs.extend(carriage);
        }
        assert!(drawn.next().is_none(), "every drawn truth is a task");

        // §4.3 filtering: need served CAF addresses and at least one
        // served non-CAF address.
        if caf_speeds.is_empty() || (mono_speeds.is_empty() && comp_speeds.is_empty()) {
            analysis.blocks_dropped += 1;
            return;
        }
        let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let avg_opt = |xs: &[f64]| (!xs.is_empty()).then(|| avg(xs));
        let block_type = match (!mono_speeds.is_empty(), !comp_speeds.is_empty()) {
            (true, false) => BlockType::A,
            (false, true) => BlockType::B,
            (true, true) => BlockType::C,
            (false, false) => unreachable!("filtered above"),
        };
        analysis.blocks.push(BlockComparison {
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
}

impl Q3Analysis {
    /// Runs the full Q3 pipeline over the world's Q3 states.
    ///
    /// One [`caf_exec::map_units`] pass with one unit per Q3 state,
    /// hinted by the state's address count, on `campaign_config.workers`
    /// lanes. A unit draws its state's blocks one at a time
    /// ([`Q3World::draw`]) and, as each block is drawn, queries its
    /// tasks against the just-drawn truth on one lane — the pass is the
    /// only pool, so no campaign pool nests inside it — and classifies
    /// the block from its own records. No state-wide truth table, task
    /// list or record index is built. Partials merge in state order, and
    /// every query outcome is keyed by (seed, address, ISP), so the
    /// result is the same at any worker count.
    pub fn run(world: &World, campaign_config: CampaignConfig) -> Q3Analysis {
        let _span = caf_obs::span("q3");
        let states: Vec<UsState> = world
            .states
            .iter()
            .map(|sw| sw.state)
            .filter(|state| UsState::q3_states().contains(state))
            .collect();
        let specs: Vec<Vec<Q3BlockSpec>> = states
            .iter()
            .map(|&state| Q3World::block_specs(&world.config, state))
            .collect();
        let hints: Vec<CostHint> = specs
            .iter()
            .map(|specs| CostHint::opaque(specs.iter().map(Q3BlockSpec::addresses).sum()))
            .collect();
        let plan = UnitPlan::build(campaign_config.workers, &hints, campaign_config.shard);
        let campaign = CampaignConfig {
            workers: 1,
            ..campaign_config
        };
        let partials = caf_exec::map_units(&plan, |shard| {
            let state = states[shard.unit];
            let _span = caf_obs::span_with(|| format!("q3.{}", state.abbrev()));
            let mut pass = StatePass::new(&campaign);
            Q3World::draw(&world.config, state, &specs[shard.unit], &mut pass);
            caf_obs::count("caf.synth.q3.states_built", 1);
            pass.finish()
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
