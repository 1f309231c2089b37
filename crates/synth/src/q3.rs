//! The Q3 world: census blocks for the regulated-monopoly comparison.
//!
//! §4.3 of the paper compares, within a census block, the plans the
//! CAF-funded ISP advertises in its three modes of operation: *CAF*
//! (regulated monopoly, at subsidized addresses), *monopoly* (unregulated,
//! at non-CAF addresses it alone serves), and *competition* (at non-CAF
//! addresses also served by another provider). Blocks are typed by which
//! modes occur: Type A (CAF + monopoly), Type B (CAF + competition),
//! Type C (all three).
//!
//! This module generates those blocks: CAF addresses (standing in for the
//! USAC enumeration), non-CAF parcels (standing in for the Zillow
//! dataset), a Form-477-like competitor footprint per block, and the
//! latent truth — per-mode average speeds drawn so that the pipeline's
//! block-level comparison reproduces the paper's outcome splits (27/54/17
//! for Type A, 32/37/31 for Type B) and uplift quantiles (median +75 %,
//! p80 +400 %).

use crate::dist;
use crate::isp::Isp;
use crate::params::{CalibrationParams, SynthConfig};
use crate::plans::PlanCatalog;
use crate::rng::{mix2, scoped_rng, StdRng};
use crate::truth::{AddressTruth, TruthDraw, TruthTable};
use caf_geo::{
    Address, AddressId, BlockGroupId, BlockId, CountyId, LatLon, StateFips, StreetAddress, TractId,
    UsState,
};
use std::borrow::Cow;

/// The latent type of a Q3 block. The analysis *re-derives* block types
/// from query outcomes; this field exists for generation and validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatentBlockType {
    /// CAF + unregulated monopoly modes only.
    TypeA,
    /// CAF + competition modes only.
    TypeB,
    /// All three modes.
    TypeC,
    /// No non-CAF address served by the CAF ISP — the analysis must filter
    /// these blocks out (§4.3's final filtering step).
    NoServedNonCaf,
}

/// The latent per-block outcome relation between CAF and a comparison
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    CafBetter,
    Tie,
    OtherBetter,
}

/// One address in a Q3 block.
#[derive(Debug, Clone, PartialEq)]
pub struct Q3Address {
    /// The residential address.
    pub address: Address,
    /// Whether it is a CAF-subsidized location (from the USAC enumeration)
    /// or a non-CAF parcel (from the Zillow-like dataset).
    pub is_caf: bool,
}

/// One census block in the Q3 study.
#[derive(Debug, Clone, PartialEq)]
pub struct Q3Block {
    /// Block GEOID.
    pub id: BlockId,
    /// The state.
    pub state: UsState,
    /// The CAF-funded incumbent.
    pub caf_isp: Isp,
    /// Competitor ISPs with a Form-477 footprint claim on this block.
    /// Empty for Type A blocks.
    pub competitors: Vec<Isp>,
    /// Latent block type (generation/validation only — the analysis
    /// re-derives types from query outcomes).
    pub latent_type: LatentBlockType,
    /// All addresses in the block, CAF and non-CAF.
    pub addresses: Vec<Q3Address>,
}

impl Q3Block {
    /// The CAF addresses.
    pub fn caf_addresses(&self) -> impl Iterator<Item = &Q3Address> {
        self.addresses.iter().filter(|a| a.is_caf)
    }

    /// The non-CAF parcels.
    pub fn non_caf_addresses(&self) -> impl Iterator<Item = &Q3Address> {
        self.addresses.iter().filter(|a| !a.is_caf)
    }
}

/// The Q3 world for one state: blocks plus the latent truth entries they
/// contribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Q3World {
    /// The state.
    pub state: UsState,
    /// All generated blocks.
    pub blocks: Vec<Q3Block>,
    /// The truth for every (address, ISP) pair a campaign over the
    /// blocks may query: each address under the block's CAF ISP, and
    /// each non-CAF address under the block's competitors.
    /// **For `caf-bqt` only** — analysis code must not read it.
    pub truth: TruthTable,
}

/// Where [`Q3World::draw`] writes the blocks it draws, one block at a
/// time and in draw order: each address, each followed by the truths
/// drawn for it — under the block's CAF ISP, then (non-CAF parcels only)
/// under each footprint competitor — CAF addresses before non-CAF
/// parcels, and then the block itself. That order is the Q3 campaign's
/// task order, so a sink can query each truth as it arrives.
pub trait Q3Sink {
    /// One drawn address. `address` builds the full [`Address`] (with
    /// its formatted street line) for a sink that keeps it; a sink that
    /// needs only the id builds nothing.
    fn address(&mut self, id: AddressId, is_caf: bool, address: impl FnOnce() -> Address);

    /// The truth of (`address`, `isp`).
    fn truth(&mut self, address: AddressId, isp: Isp, truth: AddressTruth);

    /// The finished block. Its `addresses` are empty: they went to
    /// [`Q3Sink::address`].
    fn block(&mut self, block: Q3Block);
}

/// The [`Q3Sink`] behind [`Q3World::build`]: keeps every block with its
/// addresses and every truth in a table.
struct TableSink {
    blocks: Vec<Q3Block>,
    addresses: Vec<Q3Address>,
    truth: TruthTable,
}

impl Q3Sink for TableSink {
    fn address(&mut self, _id: AddressId, is_caf: bool, address: impl FnOnce() -> Address) {
        self.addresses.push(Q3Address {
            address: address(),
            is_caf,
        });
    }

    fn truth(&mut self, address: AddressId, isp: Isp, truth: AddressTruth) {
        self.truth.insert(address, isp, truth);
    }

    fn block(&mut self, mut block: Q3Block) {
        block.addresses = std::mem::take(&mut self.addresses);
        self.blocks.push(block);
    }
}

/// The precomputed parameters of one Q3 block: everything
/// [`Q3World::block_specs`]' budget-splitting loop decides *before* any
/// random draw happens. Pure arithmetic on the Table-4 budgets, so the
/// full spec list is cheap to enumerate up front: it sizes the Q3
/// analysis's units and Table 4's address counts without drawing, and
/// lets [`Q3World::draw`] draw any contiguous block range independently
/// (each block's randomness is keyed by `(state, isp, counter)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q3BlockSpec {
    /// The CAF incumbent.
    pub isp: Isp,
    /// The state-wide block counter (1-based) keying the block's RNG
    /// stream and GEOID.
    pub counter: u64,
    /// CAF addresses in this block.
    pub caf_n: u32,
    /// Non-CAF parcels in this block.
    pub non_caf_n: u32,
}

impl Q3BlockSpec {
    /// The block's address count — the scheduler's cost hint.
    pub fn addresses(&self) -> u64 {
        u64::from(self.caf_n) + u64::from(self.non_caf_n)
    }
}

impl Q3World {
    /// Builds the Q3 world for `state`: every block with its addresses,
    /// and their truth in a table sized up front to one entry per
    /// address (the competitor entries of competitive blocks are the
    /// overflow). The Q3 analysis reads no stored world — it draws each
    /// block through its own [`Q3Sink`] — so this is for tests and
    /// inspection. Counts one state and its blocks into
    /// `caf.synth.q3.states_built` / `caf.synth.q3.blocks_built`.
    ///
    /// Returns an empty world for states outside the seven-state Q3 scope.
    pub fn build(config: &SynthConfig, state: UsState) -> Q3World {
        let specs = Q3World::block_specs(config, state);
        let addresses: u64 = specs.iter().map(Q3BlockSpec::addresses).sum();
        let mut sink = TableSink {
            blocks: Vec::with_capacity(specs.len()),
            addresses: Vec::new(),
            truth: TruthTable::with_capacity(addresses as usize),
        };
        Q3World::draw(config, state, &specs, &mut sink);
        caf_obs::count("caf.synth.q3.states_built", 1);
        Q3World {
            state,
            blocks: sink.blocks,
            truth: sink.truth,
        }
    }

    /// Enumerates the per-block specs for `state` (empty outside the
    /// seven-state Q3 scope): the per-ISP Table-4 budgets split across
    /// blocks exactly as the generation loop does, without drawing
    /// anything.
    pub fn block_specs(config: &SynthConfig, state: UsState) -> Vec<Q3BlockSpec> {
        if !UsState::q3_states().contains(&state) {
            return Vec::new();
        }
        // Per-ISP address budgets for this state (Table 4, scaled).
        let mut specs: Vec<Q3BlockSpec> = Vec::new();
        let mut counter: u64 = 0;
        for isp in [Isp::Att, Isp::CenturyLink, Isp::Frontier, Isp::Consolidated] {
            let target = CalibrationParams::q3_target(state, isp);
            if target.caf == 0 {
                continue;
            }
            let caf_budget = config.scaled(target.caf);
            let non_caf_budget = config.scaled(target.non_caf.max(target.caf / 2));
            // Blocks sized so CAF addresses average ≈ 11 per block (the
            // paper's 235 k CAF addresses over ≈ 20.8 k candidate blocks).
            let n_blocks = ((caf_budget as f64 / 11.0).ceil() as u64).max(1);
            let mut caf_left = caf_budget;
            let mut non_caf_left = non_caf_budget;
            for b in 0..n_blocks {
                counter += 1;
                let blocks_left = n_blocks - b;
                let caf_n = per_block_share(caf_left, blocks_left);
                let non_caf_n = per_block_share(non_caf_left, blocks_left);
                caf_left -= caf_n;
                non_caf_left -= non_caf_n;
                specs.push(Q3BlockSpec {
                    isp,
                    counter,
                    caf_n: caf_n.max(1) as u32,
                    non_caf_n: non_caf_n.max(1) as u32,
                });
            }
        }
        specs
    }

    /// Draws the blocks of a contiguous slice of `state`'s
    /// [`block_specs`](Q3World::block_specs) into `sink`, block by
    /// block — the one Q3 generation path — and counts them into
    /// `caf.synth.q3.blocks_built`. Each block's randomness is keyed by
    /// its spec's counter and its address ids by a counter-derived base,
    /// so disjoint slices concatenate to exactly what one full draw
    /// produces.
    pub fn draw(
        config: &SynthConfig,
        state: UsState,
        specs: &[Q3BlockSpec],
        sink: &mut impl Q3Sink,
    ) {
        for spec in specs {
            draw_block(config, state, spec, sink);
        }
        caf_obs::count("caf.synth.q3.blocks_built", specs.len() as u64);
    }

    /// Total CAF / non-CAF addresses across blocks.
    pub fn address_totals(&self) -> (usize, usize) {
        let caf = self.blocks.iter().map(|b| b.caf_addresses().count()).sum();
        let non_caf = self
            .blocks
            .iter()
            .map(|b| b.non_caf_addresses().count())
            .sum();
        (caf, non_caf)
    }
}

/// Splits `left` across `blocks_left` blocks: the average share for all
/// but the last block, the remainder for the last.
fn per_block_share(left: u64, blocks_left: u64) -> u64 {
    if blocks_left <= 1 {
        left
    } else {
        (left / blocks_left).max(1).min(left)
    }
}

/// Block-type weights: the paper's 8.76 k / 0.56 k / 0.10 k typed blocks
/// plus the candidates filtered out for having no served non-CAF address
/// (20.8 k candidates − 9.42 k typed ≈ 11.4 k).
fn latent_type_weights() -> [(LatentBlockType, f64); 4] {
    let (a, b, c) = CalibrationParams::q3_block_mix();
    [
        (LatentBlockType::TypeA, a as f64),
        (LatentBlockType::TypeB, b as f64),
        (LatentBlockType::TypeC, c as f64),
        (LatentBlockType::NoServedNonCaf, 11_380.0),
    ]
}

/// Sorted distinct specified-speed tiers of a catalog, ascending.
fn tier_grid(catalog: &PlanCatalog) -> Vec<f64> {
    let mut grid: Vec<f64> = catalog
        .tiers()
        .iter()
        .filter_map(|t| t.download_mbps)
        .collect();
    grid.sort_by(|a, b| a.total_cmp(b));
    grid.dedup();
    grid
}

/// Ensures `candidate` quantizes to a tier strictly *below* `reference`'s
/// tier; if it would collapse onto the same tier, returns the next tier
/// down (or half the reference if already at the bottom).
fn escape_tier_below(catalog: &PlanCatalog, reference: f64, candidate: f64) -> f64 {
    let ref_tier = catalog
        .tier_near(reference)
        .download_mbps
        .expect("specified");
    let cand_tier = catalog
        .tier_near(candidate)
        .download_mbps
        .expect("specified");
    if cand_tier < ref_tier {
        return candidate;
    }
    let grid = tier_grid(catalog);
    grid.iter()
        .rev()
        .find(|&&t| t < ref_tier)
        .copied()
        .unwrap_or(reference / 2.0)
}

/// Ensures `candidate` quantizes to a tier strictly *above* `reference`'s
/// tier; if it would collapse, returns the next tier up (or double the
/// reference if already at the top).
fn escape_tier_above(catalog: &PlanCatalog, reference: f64, candidate: f64) -> f64 {
    let ref_tier = catalog
        .tier_near(reference)
        .download_mbps
        .expect("specified");
    let cand_tier = catalog
        .tier_near(candidate)
        .download_mbps
        .expect("specified");
    if cand_tier > ref_tier {
        return candidate;
    }
    let grid = tier_grid(catalog);
    grid.iter()
        .find(|&&t| t > ref_tier)
        .copied()
        .unwrap_or(reference * 2.0)
}

/// Draws one block into `sink`, in the order [`Q3Sink`] documents.
fn draw_block<S: Q3Sink>(config: &SynthConfig, state: UsState, spec: &Q3BlockSpec, sink: &mut S) {
    let Q3BlockSpec {
        isp: caf_isp,
        counter,
        caf_n,
        non_caf_n,
    } = *spec;
    let key = mix2(u64::from(state.fips().code()), caf_isp.id(), counter);
    let mut rng = scoped_rng(config.seed, "q3-block", key);

    // GEOID: Q3 blocks live in a dedicated county band (>= 800) so they
    // never collide with Q1 geography GEOIDs. Consecutive counters pack
    // nine blocks into each block group and nine groups into each tract,
    // so block-group-granularity re-aggregation (the Q3 granularity
    // ablation) has real groups to merge.
    let fips = StateFips::new(state.fips().code()).expect("registry fips valid");
    let county_code = 800 + ((counter / 81) / 999_999) as u16;
    let county = CountyId::new(fips, county_code).expect("county in range");
    let tract =
        TractId::new(county, 1 + ((counter / 81) % 999_999) as u32).expect("tract in range");
    let group = BlockGroupId::new(tract, 1 + ((counter / 9) % 9) as u8).expect("digit in range");
    let id = BlockId::new(group, 1 + (counter % 9) as u16).expect("suffix in range");

    let bbox = state.bbox();
    let centroid = LatLon::new(
        bbox.min().lat() + bbox.lat_span() * rng.gen_range(0.05..0.95),
        bbox.min().lon() + bbox.lon_span() * rng.gen_range(0.05..0.95),
    )
    .expect("point inside valid bbox");

    // Latent type and per-mode speeds.
    let weights = latent_type_weights();
    let type_idx = dist::categorical(&mut rng, &weights.map(|(_, w)| w));
    let latent_type = weights[type_idx].0;

    let (base_mu, base_sigma) = CalibrationParams::q3_base_speed_params();
    let mut base_speed = dist::lognormal(&mut rng, base_mu, base_sigma).clamp(1.0, 950.0);

    // Figure 6a: competition-adjacent blocks ride an infrastructure
    // spillover.
    let has_competition = matches!(latent_type, LatentBlockType::TypeB | LatentBlockType::TypeC);
    if has_competition {
        let (p, boost_mu, boost_sigma) = CalibrationParams::type_b_spillover();
        if dist::bernoulli(&mut rng, p) {
            base_speed += dist::lognormal(&mut rng, boost_mu, boost_sigma);
        }
    }

    // Outcome draws relate CAF speed to each comparison mode.
    let draw_outcome = |rng: &mut StdRng, split: [f64; 3]| -> Outcome {
        match dist::categorical(rng, &split) {
            0 => Outcome::CafBetter,
            1 => Outcome::Tie,
            _ => Outcome::OtherBetter,
        }
    };
    let (mu_up, sigma_up) = CalibrationParams::caf_uplift_params();
    let uplift = |rng: &mut StdRng| dist::lognormal(rng, mu_up, sigma_up);

    // CAF speed relative to the monopoly mode (Type A / C relation).
    let mono_outcome = draw_outcome(&mut rng, {
        let s = CalibrationParams::type_a_outcome_split();
        [s[0], s[1], s[2]]
    });
    let (caf_speed, mono_speed) = match mono_outcome {
        Outcome::Tie => (base_speed, base_speed),
        Outcome::CafBetter => (base_speed * (1.0 + uplift(&mut rng)), base_speed),
        Outcome::OtherBetter => (base_speed, base_speed * (1.0 + 0.5 * uplift(&mut rng))),
    };
    // CAF speed relative to the competition mode (Type B / C relation):
    // pick the competition speed around the CAF speed per the B split.
    let comp_outcome = draw_outcome(&mut rng, {
        let s = CalibrationParams::type_b_outcome_split();
        [s[0], s[1], s[2]]
    });
    let catalog = PlanCatalog::for_isp(caf_isp);
    let comp_speed = {
        let raw = match comp_outcome {
            Outcome::Tie => caf_speed,
            Outcome::CafBetter => caf_speed / (1.0 + uplift(&mut rng)),
            Outcome::OtherBetter => caf_speed * (1.0 + uplift(&mut rng)),
        };
        // Discrete catalog tiers absorb modest relative differences: a
        // drawn +40 % can land on the same tier as the CAF speed and turn
        // a "better"/"worse" block into a tie, starving the measured
        // outcome split. Enforce the drawn relation by bumping the speed
        // to the adjacent tier when quantization would collapse it.
        match comp_outcome {
            Outcome::Tie => raw,
            Outcome::CafBetter => escape_tier_below(&catalog, caf_speed, raw),
            Outcome::OtherBetter => escape_tier_above(&catalog, caf_speed, raw),
        }
    };

    // Competitor footprint.
    let competitors: Vec<Isp> = if has_competition {
        let comp = if dist::bernoulli(&mut rng, 0.5) {
            Isp::Xfinity
        } else {
            Isp::Spectrum
        };
        vec![comp]
    } else {
        Vec::new()
    };

    // Draw addresses and truth.
    let comp_catalogs: Vec<(Isp, PlanCatalog)> = competitors
        .iter()
        .map(|&c| (c, PlanCatalog::for_isp(c)))
        .collect();
    // Id space: state FIPS · 10⁹ + 5·10⁸ offset keeps Q3 ids disjoint
    // from the Q1 USAC ids.
    let id_base = u64::from(state.fips().code()) * 1_000_000_000 + 500_000_000 + counter * 4_000;

    // Draws one address's location and house number and hands it to the
    // sink; the street line (the block's one dynamic string) is
    // formatted only if the sink builds the address.
    let draw_address = |rng: &mut StdRng, sink: &mut S, i: u64, is_caf: bool| -> AddressId {
        let jitter_lat = rng.gen_range(-0.005..0.005);
        let jitter_lon = rng.gen_range(-0.005..0.005);
        let number = rng.gen_range(100..9_999);
        let addr_id = AddressId(id_base + i);
        sink.address(addr_id, is_caf, || Address {
            id: addr_id,
            street: StreetAddress {
                number,
                street: Cow::Owned(format!("Q3 Block Rd {counter}")),
                city: Cow::Borrowed("Crossroads"),
                state_abbrev: Cow::Borrowed(state.abbrev()),
                zip: 20_000 + (key % 79_999) as u32,
            },
            location: LatLon::new(
                (centroid.lat() + jitter_lat).clamp(-90.0, 90.0),
                (centroid.lon() + jitter_lon).clamp(-180.0, 180.0),
            )
            .expect("jittered point in range"),
            block: id,
        });
        addr_id
    };

    // Address-level speed jitter around the block's mode speed.
    let truth_with_speed = |rng: &mut StdRng, speed: f64| -> AddressTruth {
        let jitter = dist::lognormal(rng, 0.0, 0.10);
        let tier = catalog.tier_near(speed * jitter);
        // Consume a full truth draw but advertise the block-consistent
        // tier alone (its offer's head) in place of the drawn plans; keep
        // the website-pathology flags.
        let draw = TruthDraw::draw(rng, caf_isp, &catalog, 1.0);
        AddressTruth {
            served: true,
            plans: Cow::Borrowed(&catalog.offer(tier)[..1]),
            existing_subscriber: draw.existing_subscriber,
            hard_failure: draw.hard_failure,
            ambiguous: draw.ambiguous,
        }
    };

    let caf_serviceability =
        CalibrationParams::serviceability_base(caf_isp, state).clamp(0.3, 0.95);
    for i in 0..u64::from(caf_n) {
        let addr_id = draw_address(&mut rng, sink, i, true);
        let t = if dist::bernoulli(&mut rng, caf_serviceability) {
            truth_with_speed(&mut rng, caf_speed)
        } else {
            AddressTruth::unserved()
        };
        sink.truth(addr_id, caf_isp, t);
    }

    for i in 0..u64::from(non_caf_n) {
        let addr_id = draw_address(&mut rng, sink, 2_000 + i, false);
        match latent_type {
            LatentBlockType::NoServedNonCaf => {
                sink.truth(addr_id, caf_isp, AddressTruth::unserved());
            }
            LatentBlockType::TypeA => {
                // Monopoly mode: served by the CAF ISP alone.
                let t = if dist::bernoulli(&mut rng, 0.85) {
                    truth_with_speed(&mut rng, mono_speed)
                } else {
                    AddressTruth::unserved()
                };
                sink.truth(addr_id, caf_isp, t);
            }
            LatentBlockType::TypeB => {
                // Competition mode: the CAF ISP and the competitor both
                // serve (a Type-B block has no monopoly-mode address).
                let t = truth_with_speed(&mut rng, comp_speed);
                sink.truth(addr_id, caf_isp, t);
                for (comp, cat) in &comp_catalogs {
                    // Type B definition: every served non-CAF address is in
                    // competition mode, so the competitor always serves.
                    let t = crate::truth::draw_truth(&mut rng, *comp, cat, 1.0);
                    sink.truth(addr_id, *comp, t);
                }
            }
            LatentBlockType::TypeC => {
                // Mixed: competitor reaches roughly half the parcels (the
                // Figure-6b periphery effect).
                let competitive = dist::bernoulli(&mut rng, 0.5);
                let speed = if competitive { comp_speed } else { mono_speed };
                let t = truth_with_speed(&mut rng, speed);
                sink.truth(addr_id, caf_isp, t);
                for (comp, cat) in &comp_catalogs {
                    let t = if competitive {
                        crate::truth::draw_truth(&mut rng, *comp, cat, 0.97)
                    } else {
                        AddressTruth::unserved()
                    };
                    sink.truth(addr_id, *comp, t);
                }
            }
        }
    }

    sink.block(Q3Block {
        id,
        state,
        caf_isp,
        competitors,
        latent_type,
        addresses: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SynthConfig {
        SynthConfig { seed: 9, scale: 40 }
    }

    fn world(state: UsState) -> Q3World {
        Q3World::build(&cfg(), state)
    }

    #[test]
    fn non_q3_states_are_empty() {
        let w = world(UsState::Vermont);
        assert!(w.blocks.is_empty());
        assert!(w.truth.is_empty());
    }

    #[test]
    fn address_budgets_scale_with_table_4() {
        let w = world(UsState::Ohio);
        let (caf, non_caf) = w.address_totals();
        // Ohio Table 4 CAF total: 13 852 + 36 710 + 18 356 = 68 918;
        // at scale 40 ≈ 1 723 (within block-splitting slack).
        let expected = 68_918 / 40;
        assert!(
            (caf as f64 - expected as f64).abs() < expected as f64 * 0.2,
            "caf {caf} vs expected {expected}"
        );
        assert!(non_caf > 0);
    }

    #[test]
    fn every_address_has_caf_isp_truth() {
        let w = world(UsState::Georgia);
        for block in &w.blocks {
            for a in &block.addresses {
                assert!(
                    w.truth.get(a.address.id, block.caf_isp).is_some(),
                    "missing truth for {} vs {}",
                    a.address.id,
                    block.caf_isp
                );
                assert_eq!(a.address.block, block.id);
            }
        }
    }

    #[test]
    fn competitors_only_in_competitive_blocks() {
        let w = world(UsState::California);
        for block in &w.blocks {
            match block.latent_type {
                LatentBlockType::TypeB | LatentBlockType::TypeC => {
                    assert!(!block.competitors.is_empty());
                }
                _ => assert!(block.competitors.is_empty()),
            }
            // Competitor truth exists only where a footprint exists.
            for a in block.non_caf_addresses() {
                for comp in [Isp::Xfinity, Isp::Spectrum] {
                    if w.truth.get(a.address.id, comp).is_some() {
                        assert!(block.competitors.contains(&comp));
                    }
                }
            }
        }
    }

    #[test]
    fn type_b_blocks_have_no_monopoly_mode() {
        let w = world(UsState::Ohio);
        for block in w
            .blocks
            .iter()
            .filter(|b| b.latent_type == LatentBlockType::TypeB)
        {
            let comp = block.competitors[0];
            for a in block.non_caf_addresses() {
                let caf_truth = w.truth.get(a.address.id, block.caf_isp).unwrap();
                if caf_truth.served {
                    let comp_truth = w.truth.get(a.address.id, comp).unwrap();
                    assert!(
                        comp_truth.served,
                        "Type B non-CAF address must be competitively served"
                    );
                }
            }
        }
    }

    #[test]
    fn block_type_mix_is_dominated_by_type_a() {
        let mut counts = std::collections::HashMap::new();
        for state in UsState::q3_states() {
            let w = world(state);
            for b in &w.blocks {
                *counts.entry(b.latent_type).or_insert(0usize) += 1;
            }
        }
        let a = counts.get(&LatentBlockType::TypeA).copied().unwrap_or(0);
        let b = counts.get(&LatentBlockType::TypeB).copied().unwrap_or(0);
        let c = counts.get(&LatentBlockType::TypeC).copied().unwrap_or(0);
        assert!(a > 5 * b.max(1), "A {a} should dwarf B {b}");
        assert!(b >= c, "B {b} >= C {c}");
    }

    #[test]
    fn geoid_space_disjoint_from_q1() {
        // Q3 blocks live in counties ≥ 800; Q1 geography uses 1..=64.
        let w = world(UsState::Utah);
        for b in &w.blocks {
            assert!(b.id.block_group().county().county_code() >= 800);
        }
    }

    #[test]
    fn deterministic() {
        let w1 = world(UsState::Illinois);
        let w2 = world(UsState::Illinois);
        assert_eq!(w1.blocks.len(), w2.blocks.len());
        for (a, b) in w1.blocks.iter().zip(&w2.blocks) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.latent_type, b.latent_type);
            assert_eq!(a.addresses.len(), b.addresses.len());
        }
    }

    #[test]
    fn spec_slice_builds_concatenate_to_the_full_build() {
        let config = cfg();
        let state = UsState::Illinois;
        let full = world(state);
        let specs = Q3World::block_specs(&config, state);
        assert_eq!(specs.len(), full.blocks.len());

        for splits in [2usize, 5] {
            let mut sink = TableSink {
                blocks: Vec::new(),
                addresses: Vec::new(),
                truth: TruthTable::new(),
            };
            let chunk = specs.len().div_ceil(splits);
            for slice in specs.chunks(chunk) {
                Q3World::draw(&config, state, slice, &mut sink);
            }
            assert_eq!(
                format!("{:?}", sink.blocks),
                format!("{:?}", full.blocks),
                "{splits}-way spec draw must match the full build"
            );
            assert!(sink.truth == full.truth, "{splits}-way truth must match");
        }
    }
}
