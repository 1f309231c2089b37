//! The §3.1 address-selection strategy.
//!
//! Randomly sampling CAF addresses state-wide would over-sample a few
//! giant census block groups, so the paper samples *per CBG*: at least 30
//! addresses (for statistical significance of per-CBG aggregates) or 10 %
//! of the CBG's addresses, whichever is larger; CBGs with fewer than 30
//! addresses are queried exhaustively. Addresses not drawn initially form
//! the CBG's replacement pool, used when queries fail persistently
//! (§3.2: "we select a new address from the same census block group").

use caf_geo::{AddressId, BlockGroupId, UsState};
use caf_synth::rng::scoped_rng;
use caf_synth::{Isp, StateWorld};

/// The sampling rule: `max(min_per_cbg, fraction · n)` per CBG, capped at
/// the CBG's size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingRule {
    /// Minimum addresses per CBG (paper: 30).
    pub min_per_cbg: usize,
    /// Fraction of the CBG's addresses (paper: 0.10).
    pub fraction: f64,
}

impl SamplingRule {
    /// The paper's rule: max(30, 10 %).
    pub fn paper() -> SamplingRule {
        SamplingRule {
            min_per_cbg: 30,
            fraction: 0.10,
        }
    }

    /// A pure-fraction rule (used by the Figure 9 sensitivity sweep and
    /// the sampling ablation).
    pub fn fraction_only(fraction: f64) -> SamplingRule {
        SamplingRule {
            min_per_cbg: 0,
            fraction,
        }
    }

    /// Sample size for a CBG with `n` addresses.
    pub fn sample_size(&self, n: usize) -> usize {
        let by_fraction = (self.fraction * n as f64).ceil() as usize;
        by_fraction.max(self.min_per_cbg).min(n)
    }
}

/// One CBG's sampled cell.
#[derive(Debug, Clone)]
pub struct SampledCbg {
    /// The ISP being audited in this CBG.
    pub isp: Isp,
    /// The CBG.
    pub cbg: BlockGroupId,
    /// Total CAF addresses in the CBG (the weighting denominator and
    /// Figures 7/8 denominator).
    pub total_addresses: usize,
    /// The addresses drawn for querying, in draw order.
    pub primary: Vec<AddressId>,
    /// Replacement pool: the addresses not drawn, in draw order.
    pub replacements: Vec<AddressId>,
}

/// A sampling plan over one state: every (ISP, CBG) cell with its drawn
/// addresses and replacement pools.
#[derive(Debug, Clone)]
pub struct SamplingPlan {
    /// The state.
    pub state: UsState,
    /// The rule used.
    pub rule: SamplingRule,
    /// Sampled cells, in deterministic (ISP, CBG) order.
    pub cells: Vec<SampledCbg>,
}

impl SamplingPlan {
    /// Draws the plan for a state world. Deterministic: the shuffle is
    /// keyed by (seed, CBG), so plans are stable across runs and
    /// independent of iteration order.
    pub fn draw(seed: u64, world: &StateWorld, rule: SamplingRule) -> SamplingPlan {
        Self::draw_cells(seed, world, rule, 0..Self::cell_count(world))
    }

    /// How many (ISP, CBG) cells [`SamplingPlan::draw`] would produce
    /// for this state — the index space of [`SamplingPlan::draw_cells`].
    pub fn cell_count(world: &StateWorld) -> usize {
        world.geography.caf_cells().len()
    }

    /// Draws the plan restricted to a contiguous cell range (cells
    /// indexed in the deterministic (ISP, CBG) iteration order). Each
    /// cell's shuffle is keyed by (seed, CBG, ISP), never by position,
    /// so `draw_cells(.., lo..hi).cells` equals `draw(..).cells[lo..hi]`
    /// — the invariant that lets the audit engine shard a state by cell
    /// ranges without changing a single drawn address. The cells and
    /// their address ids come from the geography, so no CAF-Map record
    /// is built.
    pub fn draw_cells(
        seed: u64,
        world: &StateWorld,
        rule: SamplingRule,
        range: std::ops::Range<usize>,
    ) -> SamplingPlan {
        let cells = world.geography.caf_cells()[range]
            .iter()
            .map(|cell| {
                let mut addresses: Vec<AddressId> = cell.ids().collect();
                let mut rng = scoped_rng(seed, "sampling", cell.cbg.geoid() ^ cell.isp.id());
                rng.shuffle(&mut addresses);
                let take = rule.sample_size(addresses.len());
                let replacements = addresses.split_off(take);
                SampledCbg {
                    isp: cell.isp,
                    cbg: cell.cbg,
                    total_addresses: cell.count as usize,
                    primary: addresses,
                    replacements,
                }
            })
            .collect();
        SamplingPlan {
            state: world.state,
            rule,
            cells,
        }
    }

    /// Total primary addresses across cells.
    pub fn total_sampled(&self) -> usize {
        self.cells.iter().map(|c| c.primary.len()).sum()
    }

    /// The cells for one ISP.
    pub fn cells_for(&self, isp: Isp) -> impl Iterator<Item = &SampledCbg> {
        self.cells.iter().filter(move |c| c.isp == isp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_synth::{SynthConfig, World};

    #[test]
    fn rule_matches_the_paper_spec() {
        let rule = SamplingRule::paper();
        // Under 30: query all.
        assert_eq!(rule.sample_size(1), 1);
        assert_eq!(rule.sample_size(29), 29);
        // 30..=300: exactly 30 (10% is smaller).
        assert_eq!(rule.sample_size(30), 30);
        assert_eq!(rule.sample_size(299), 30);
        // Over 300: 10 %, rounded up.
        assert_eq!(rule.sample_size(301), 31);
        assert_eq!(rule.sample_size(5_000), 500);
    }

    #[test]
    fn fraction_only_rule() {
        let rule = SamplingRule::fraction_only(0.5);
        assert_eq!(rule.sample_size(10), 5);
        assert_eq!(rule.sample_size(3), 2); // ceil(1.5)
    }

    fn world() -> World {
        World::generate_states(
            SynthConfig {
                seed: 44,
                scale: 40,
            },
            &[UsState::NewHampshire],
        )
    }

    #[test]
    fn plan_partitions_each_cbg() {
        let w = world();
        let sw = w.state(UsState::NewHampshire).unwrap();
        let plan = SamplingPlan::draw(w.config.seed, sw, SamplingRule::paper());
        assert!(!plan.cells.is_empty());
        for cell in &plan.cells {
            assert_eq!(
                cell.primary.len() + cell.replacements.len(),
                cell.total_addresses
            );
            assert_eq!(
                cell.primary.len(),
                SamplingRule::paper().sample_size(cell.total_addresses)
            );
            // No duplicates across primary + replacements.
            let mut all: Vec<u64> = cell
                .primary
                .iter()
                .chain(&cell.replacements)
                .map(|a| a.0)
                .collect();
            all.sort_unstable();
            let n = all.len();
            all.dedup();
            assert_eq!(all.len(), n);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let w = world();
        let sw = w.state(UsState::NewHampshire).unwrap();
        let a = SamplingPlan::draw(w.config.seed, sw, SamplingRule::paper());
        let b = SamplingPlan::draw(w.config.seed, sw, SamplingRule::paper());
        assert_eq!(a.total_sampled(), b.total_sampled());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.primary, cb.primary);
        }
        // Different seed, different draw (almost surely).
        let c = SamplingPlan::draw(w.config.seed + 1, sw, SamplingRule::paper());
        let same = a
            .cells
            .iter()
            .zip(&c.cells)
            .filter(|(x, y)| x.primary == y.primary)
            .count();
        assert!(same < a.cells.len());
    }

    #[test]
    fn range_draws_are_slices_of_the_full_draw() {
        let w = world();
        let sw = w.state(UsState::NewHampshire).unwrap();
        let full = SamplingPlan::draw(w.config.seed, sw, SamplingRule::paper());
        let n = SamplingPlan::cell_count(sw);
        assert_eq!(full.cells.len(), n);
        for splits in [2usize, 5] {
            let chunk = n.div_ceil(splits);
            let mut cells = Vec::new();
            for s in 0..splits {
                let lo = (s * chunk).min(n);
                let hi = ((s + 1) * chunk).min(n);
                cells.extend(
                    SamplingPlan::draw_cells(w.config.seed, sw, SamplingRule::paper(), lo..hi)
                        .cells,
                );
            }
            assert_eq!(
                format!("{cells:?}"),
                format!("{:?}", full.cells),
                "splits = {splits}"
            );
        }
    }

    #[test]
    fn sampled_volume_tracks_table_3_scale() {
        // NH Consolidated at paper scale queried 7,229 addresses over 175
        // CBGs; at scale 40 that is ≈ 180. Block-splitting and the ≥30
        // floor make this approximate.
        let w = world();
        let sw = w.state(UsState::NewHampshire).unwrap();
        let plan = SamplingPlan::draw(w.config.seed, sw, SamplingRule::paper());
        let total = plan.total_sampled();
        assert!(
            (60..600).contains(&total),
            "sampled {total} not in expected ballpark"
        );
        assert!(plan.cells_for(Isp::Consolidated).count() > 0);
        assert_eq!(plan.cells_for(Isp::Att).count(), 0);
    }
}
