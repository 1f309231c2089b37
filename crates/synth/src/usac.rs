//! The synthetic USAC CAF-Map dataset.
//!
//! USAC's open-data CAF Map lists every ISP-certified deployment location:
//! street address, coordinates, census identifiers, certifying ISP,
//! last-mile technology, and the certified service quality (§2.3). This
//! module materializes that dataset from the synthetic geography — one
//! [`CafRecord`] per certified address — plus the national-scale marginals
//! behind Figure 1.
//!
//! A record's id, ISP, CBG and block are fixed by the geography
//! ([`StateGeography::caf_cells`], [`StateGeography::address_blocks`]),
//! so the audit, the sensitivity sweep, the oversight sample and every
//! other reader that needs only those builds no record. The records are
//! built, per state and on first read, only for a reader of the other
//! fields (street, location, certified tier, technology, latency).

use crate::dist;
use crate::geography::{certified_cbgs, CbgInfo, StateGeography};
use crate::isp::Isp;
use crate::params::{CalibrationParams, SynthConfig};
use crate::rng::scoped_rng;
use caf_geo::{Address, AddressId, LatLon, StreetAddress, UsState};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// Last-mile technology codes used in the CAF Map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Copper DSL.
    Dsl,
    /// Fiber to the premises.
    Fiber,
    /// Licensed fixed wireless.
    FixedWireless,
}

impl Technology {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Technology::Dsl => "DSL",
            Technology::Fiber => "Fiber",
            Technology::FixedWireless => "Fixed Wireless",
        }
    }
}

/// One certified deployment location: a row of the CAF Map.
#[derive(Debug, Clone, PartialEq)]
pub struct CafRecord {
    /// The residential address.
    pub address: Address,
    /// The certifying (subsidized) ISP.
    pub isp: Isp,
    /// Download speed the ISP certified to USAC, in Mbps.
    pub certified_down_mbps: f64,
    /// Upload speed the ISP certified, in Mbps.
    pub certified_up_mbps: f64,
    /// Certified last-mile technology.
    pub technology: Technology,
    /// Certified round-trip latency in milliseconds.
    pub latency_ms: f64,
}

/// The CAF-Map slice for one state: every certified address of every
/// audited ISP, in the geography's CBG enumeration order, so address
/// ids ascend and each CBG's records are the consecutive ids of its
/// [`StateGeography::certified_cbgs`] entry. A world holds it behind a
/// [`LazyUsac`], which builds it the first time it is read.
#[derive(Debug, Clone, PartialEq)]
pub struct UsacDataset {
    /// The state this slice covers.
    pub state: UsState,
    /// All records, in CBG enumeration order, address ids ascending.
    pub records: Vec<CafRecord>,
}

/// The id of a state's `counter`-th certified address (1-based): the
/// state FIPS code times 10⁹ plus the counter. A CBG's records hold the
/// consecutive ids after those of every earlier CBG in the state.
pub(crate) fn address_id(state: UsState, counter: u64) -> AddressId {
    AddressId(u64::from(state.fips().code()) * 1_000_000_000 + counter)
}

/// Street-name lexicon for synthesized addresses.
const STREET_NAMES: &[&str] = &[
    "County Road 12",
    "State Route 9",
    "Old Mill Rd",
    "Cedar Ln",
    "Maple St",
    "Church Rd",
    "Lakeview Dr",
    "Pine Hollow Rd",
    "Ridge Rd",
    "Valley View Ln",
    "Farm-to-Market Rd",
    "Quarry Rd",
    "Orchard Ave",
    "Prairie Trl",
    "Hickory Ln",
];

/// City-name lexicon (rural-flavored).
const CITY_NAMES: &[&str] = &[
    "Fairview",
    "Midway",
    "Oak Grove",
    "Pleasant Hill",
    "Cedar Springs",
    "Riverton",
    "Milltown",
    "Georgetown",
    "Salem",
    "Clayton",
];

impl UsacDataset {
    /// Materializes the CAF Map slice for a state from its geography.
    ///
    /// Address ids are dense and deterministic: the state FIPS code times
    /// 10⁹ plus a running counter, so ids never collide across states and
    /// regeneration yields identical ids.
    pub fn build(config: &SynthConfig, geo: &StateGeography) -> UsacDataset {
        UsacDataset {
            state: geo.state,
            records: build_records(config, geo.state, &geo.cbgs),
        }
    }
}

/// The records of a state's `cbgs`, in enumeration order. Each CBG's
/// records walk its blocks and take its cell's ids in order (see
/// [`StateGeography::address_blocks`]); every per-record draw comes
/// from the CBG's keyed stream.
fn build_records(config: &SynthConfig, state: UsState, cbgs: &[CbgInfo]) -> Vec<CafRecord> {
    let mut records: Vec<CafRecord> =
        Vec::with_capacity(cbgs.iter().map(|c| c.caf_addresses as usize).sum());
    for (_, cbg, cell) in certified_cbgs(state, cbgs) {
        let mut rng = scoped_rng(config.seed, "usac", cbg.id.geoid());
        let certified = CalibrationParams::certified_tier_weights(cbg.isp);
        let mut ids = cell.ids();
        for block in &cbg.blocks {
            for id in ids.by_ref().take(block.caf_addresses as usize) {
                let jitter_lat = rng.gen_range(-0.004..0.004);
                let jitter_lon = rng.gen_range(-0.004..0.004);
                let location = LatLon::new(
                    (block.centroid.lat() + jitter_lat).clamp(-90.0, 90.0),
                    (block.centroid.lon() + jitter_lon).clamp(-180.0, 180.0),
                )
                .expect("jittered location in range");
                let street = StreetAddress {
                    number: rng.gen_range(100..9_999),
                    street: Cow::Borrowed(STREET_NAMES[rng.gen_range(0..STREET_NAMES.len())]),
                    city: Cow::Borrowed(CITY_NAMES[rng.gen_range(0..CITY_NAMES.len())]),
                    state_abbrev: Cow::Borrowed(state.abbrev()),
                    zip: 10_000 + (cbg.id.geoid() % 89_999) as u32,
                };
                let (down, up) = if certified.is_empty() {
                    (10.0, 1.0)
                } else {
                    let idx = dist::categorical_by(&mut rng, certified, |&(_, w)| w);
                    let down = certified[idx].0;
                    (down, (down / 10.0).max(1.0))
                };
                let technology = if down >= 100.0 {
                    Technology::Fiber
                } else if dist::bernoulli(&mut rng, 0.9) {
                    Technology::Dsl
                } else {
                    Technology::FixedWireless
                };
                records.push(CafRecord {
                    address: Address {
                        id,
                        street,
                        location,
                        block: block.id,
                    },
                    isp: cbg.isp,
                    certified_down_mbps: down,
                    certified_up_mbps: up,
                    technology,
                    latency_ms: rng.gen_range(15.0..95.0),
                });
            }
        }
    }
    records
}

/// A state's [`UsacDataset`], built the first time it is read.
///
/// A world holds the seed, the state, its geography's CBGs (shared with
/// the geography, not copied) and the state's certified-tier
/// corrections, so a pass that reads no record field builds none: the
/// audit, the Q3 analysis and the snapshot codec read ids off the
/// geography instead. The build is a pure function of those, so
/// building now or later, here or in a clone, gives the same records;
/// threads that race for an unbuilt dataset build it once between them.
/// It applies the corrections as its last step, opens the
/// `world.<ABBREV>` span and counts into `caf.synth.usac.states_built` /
/// `caf.synth.usac.records_built`.
///
/// Cloning copies the inputs and, if it is built, the dataset: an
/// unbuilt value clones unbuilt. `PartialEq` and `Debug` act on the
/// built dataset (building it if need be).
#[derive(Clone)]
pub struct LazyUsac {
    config: SynthConfig,
    state: UsState,
    cbgs: Arc<[CbgInfo]>,
    /// `(CBG index, (down, up))` per corrected CBG, ascending by index.
    certified: Vec<(usize, (u32, u32))>,
    built: OnceLock<UsacDataset>,
}

impl LazyUsac {
    /// The dataset of `state`'s `cbgs` under `config`, with the restated
    /// tiers `certified` (`(CBG index, (down, up))`, ascending by index)
    /// in place of the drawn ones; not yet built.
    pub(crate) fn new(
        config: SynthConfig,
        state: UsState,
        cbgs: Arc<[CbgInfo]>,
        certified: Vec<(usize, (u32, u32))>,
    ) -> LazyUsac {
        LazyUsac {
            config,
            state,
            cbgs,
            certified,
            built: OnceLock::new(),
        }
    }

    /// Whether the dataset has been built.
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }

    fn build(&self) -> UsacDataset {
        #[cfg(test)]
        tests::BUILDS.with(|builds| builds.set(builds.get() + 1));
        let _span = caf_obs::span_with(|| format!("world.{}", self.state.abbrev()));
        let mut records = build_records(&self.config, self.state, &self.cbgs);
        // A restated tier replaces the certified speeds of every record
        // in its CBG; the technology stays at the drawn value (a
        // restated tier does not re-trench fiber).
        let mut start = 0;
        for (i, cbg) in self.cbgs.iter().enumerate() {
            let end = start + cbg.caf_addresses as usize;
            if let Ok(k) = self.certified.binary_search_by_key(&i, |&(j, _)| j) {
                let (down, up) = self.certified[k].1;
                for record in &mut records[start..end] {
                    record.certified_down_mbps = f64::from(down);
                    record.certified_up_mbps = f64::from(up);
                }
            }
            start = end;
        }
        caf_obs::count("caf.synth.usac.states_built", 1);
        caf_obs::count("caf.synth.usac.records_built", records.len() as u64);
        UsacDataset {
            state: self.state,
            records,
        }
    }
}

impl Deref for LazyUsac {
    type Target = UsacDataset;

    fn deref(&self) -> &UsacDataset {
        self.built.get_or_init(|| self.build())
    }
}

impl DerefMut for LazyUsac {
    fn deref_mut(&mut self) -> &mut UsacDataset {
        let _ = self.deref();
        self.built.get_mut().expect("built above")
    }
}

impl PartialEq for LazyUsac {
    fn eq(&self, other: &LazyUsac) -> bool {
        **self == **other
    }
}

impl fmt::Debug for LazyUsac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// National-scale marginals of the CAF program (Figure 1): per-state and
/// per-ISP address/fund shares, plus samples of addresses-per-CB and
/// addresses-per-CBG. Generated directly from the published aggregates
/// (6.13 M locations, $10 B, 819 ISPs) rather than by materializing six
/// million records.
#[derive(Debug, Clone)]
pub struct NationalCafSummary {
    /// `(state, addresses, funds_usd)` for every registry state with CAF
    /// presence, descending by addresses.
    pub by_state: Vec<(UsState, u64, f64)>,
    /// `(isp_name, addresses, funds_usd)` for the named top ISPs plus an
    /// aggregated long tail, descending by addresses.
    pub by_isp: Vec<(String, u64, f64)>,
    /// Sampled CAF-addresses-per-census-block counts.
    pub addresses_per_block: Vec<u32>,
    /// Sampled CAF-addresses-per-CBG counts.
    pub addresses_per_cbg: Vec<u32>,
}

impl NationalCafSummary {
    /// Total program size (paper: 6.13 M locations).
    pub const TOTAL_ADDRESSES: u64 = 6_130_000;
    /// Total disbursement (paper: ≈$10 B).
    pub const TOTAL_FUNDS_USD: f64 = 10.0e9;

    /// Builds the national marginals, deterministic in the seed.
    pub fn build(config: &SynthConfig) -> NationalCafSummary {
        let mut rng = scoped_rng(config.seed, "national", 0);

        // State shares: Texas, Wisconsin, Minnesota lead by addresses;
        // Texas, Minnesota, Arkansas by funds (§2.3). Shares decay
        // geometrically over the registry so the top-20 hold ≈73 %.
        let mut states: Vec<UsState> = UsState::all().collect();
        // Fixed leader order for the named top states.
        let leaders = [
            UsState::Texas,
            UsState::Wisconsin,
            UsState::Minnesota,
            UsState::Arkansas,
            UsState::California,
            UsState::Missouri,
        ];
        states.sort_by_key(|s| leaders.iter().position(|l| l == s).unwrap_or(usize::MAX));
        let n = states.len();
        let mut addr_weights: Vec<f64> = (0..n).map(|i| 0.95_f64.powi(i as i32)).collect();
        // Mild noise in the tail so no two runs are byte-identical across
        // seeds, while leaders stay fixed.
        for w in addr_weights.iter_mut().skip(leaders.len()) {
            *w *= rng.gen_range(0.8..1.2);
        }
        let addr_total: f64 = addr_weights.iter().sum();
        // Funds track addresses but with a different leader permutation:
        // swap Wisconsin and Arkansas fund weights so the fund top-3 is
        // TX, MN, AR as published.
        let mut fund_weights = addr_weights.clone();
        let wi = states.iter().position(|&s| s == UsState::Wisconsin);
        let mn = states.iter().position(|&s| s == UsState::Minnesota);
        let ar = states.iter().position(|&s| s == UsState::Arkansas);
        if let (Some(wi), Some(mn), Some(ar)) = (wi, mn, ar) {
            fund_weights[mn] = addr_weights[wi] * 1.02;
            fund_weights[ar] = addr_weights[mn] * 1.01;
            fund_weights[wi] = addr_weights[ar];
        }
        let fund_total: f64 = fund_weights.iter().sum();

        let by_state: Vec<(UsState, u64, f64)> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                (
                    s,
                    (Self::TOTAL_ADDRESSES as f64 * addr_weights[i] / addr_total) as u64,
                    Self::TOTAL_FUNDS_USD * fund_weights[i] / fund_total,
                )
            })
            .collect();

        // ISP shares: the named top recipients plus a geometric tail of
        // "Rural Carrier #k" entries, 819 ISPs in total.
        let named: Vec<(String, u64, f64)> = [
            Isp::Att,
            Isp::CenturyLink,
            Isp::Frontier,
            Isp::Windstream,
            Isp::Consolidated,
        ]
        .iter()
        .map(|i| {
            (
                i.name().to_string(),
                i.caf_addresses_national(),
                i.caf_funding_usd(),
            )
        })
        .collect();
        let named_addr: u64 = named.iter().map(|(_, a, _)| a).sum();
        let named_funds: f64 = named.iter().map(|(_, _, f)| f).sum();
        let tail_addr = Self::TOTAL_ADDRESSES - named_addr;
        let tail_funds = Self::TOTAL_FUNDS_USD - named_funds;
        let tail_n = 819 - named.len();
        let tail_weights: Vec<f64> = (0..tail_n)
            .map(|i| 0.992_f64.powi(i as i32) * rng.gen_range(0.7..1.3))
            .collect();
        let tw: f64 = tail_weights.iter().sum();
        let mut by_isp = named;
        for (i, w) in tail_weights.iter().enumerate() {
            by_isp.push((
                format!("Rural Carrier #{:03}", i + 1),
                (tail_addr as f64 * w / tw) as u64,
                tail_funds * w / tw,
            ));
        }
        by_isp.sort_by_key(|entry| std::cmp::Reverse(entry.1));

        // Addresses-per-CB: 6.13 M over 787 k blocks (mean ≈ 7.8, range 1
        // to >5 k). Addresses-per-CBG: over 43 k CBGs (median 64).
        let samples = 20_000;
        let addresses_per_block: Vec<u32> = (0..samples)
            .map(|_| {
                dist::lognormal(&mut rng, 5.0_f64.ln(), 1.1)
                    .round()
                    .clamp(1.0, 5_500.0) as u32
            })
            .collect();
        let addresses_per_cbg: Vec<u32> = (0..samples)
            .map(|_| {
                dist::lognormal(&mut rng, 64.0_f64.ln(), 2.0)
                    .round()
                    .clamp(1.0, 5_200.0) as u32
            })
            .collect();

        NationalCafSummary {
            by_state,
            by_isp,
            addresses_per_block,
            addresses_per_cbg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// [`LazyUsac`] builds on this thread: a build runs on the
        /// reading thread, so a test counts only its own.
        pub(super) static BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn clones_stay_unbuilt_and_builds_happen_once_per_value() {
        let geo = StateGeography::build(&cfg(), UsState::Vermont);
        let builds = || BUILDS.with(Cell::get);
        let value = LazyUsac::new(cfg(), UsState::Vermont, Arc::clone(&geo.cbgs), Vec::new());
        let copy = value.clone();
        assert!(!value.is_built() && !copy.is_built());
        assert_eq!(builds(), 0);
        assert_eq!(*value, UsacDataset::build(&cfg(), &geo));
        assert_eq!(value.records.len() as u64, geo.total_caf_addresses());
        assert_eq!(builds(), 1);
        // A clone of a built value carries the value; the earlier clone
        // builds its own.
        let built_copy = value.clone();
        assert!(built_copy.is_built());
        assert!(!copy.is_built());
        assert!(copy == value);
        assert_eq!(builds(), 2);
        assert_eq!(format!("{value:?}"), format!("{:?}", *copy));
    }

    fn cfg() -> SynthConfig {
        SynthConfig {
            seed: 11,
            scale: 20,
        }
    }

    fn dataset(state: UsState) -> UsacDataset {
        let geo = StateGeography::build(&cfg(), state);
        UsacDataset::build(&cfg(), &geo)
    }

    #[test]
    fn records_match_geography_totals() {
        let geo = StateGeography::build(&cfg(), UsState::Alabama);
        let ds = UsacDataset::build(&cfg(), &geo);
        assert_eq!(ds.records.len() as u64, geo.total_caf_addresses());
        // Every certified cell sums back to the record count.
        let in_cells: u64 = geo.caf_cells().iter().map(|c| u64::from(c.count)).sum();
        assert_eq!(in_cells, ds.records.len() as u64);
    }

    #[test]
    fn address_ids_unique_and_state_scoped() {
        let ds = dataset(UsState::Vermont);
        let mut ids: Vec<u64> = ds.records.iter().map(|r| r.address.id.0).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
        // Vermont FIPS 50: ids live in the 50-billion block.
        assert!(ids.iter().all(|&id| id / 1_000_000_000 == 50));
    }

    #[test]
    fn certified_speeds_meet_the_fcc_floor() {
        // Figure 1f / Table 1: every certified tier is ≥ 10 Mbps — the
        // self-reported picture is fully compliant.
        for state in [UsState::Vermont, UsState::Alabama] {
            for r in &dataset(state).records {
                assert!(r.certified_down_mbps >= 10.0);
                assert!(r.certified_up_mbps >= 1.0);
            }
        }
    }

    #[test]
    fn consolidated_certifies_a_tier_mix() {
        // Table 1: Consolidated certifies 10/25/100/1000 Mbps tiers.
        let ds = dataset(UsState::Vermont);
        let mut tiers: Vec<f64> = ds
            .records
            .iter()
            .filter(|r| r.isp == Isp::Consolidated)
            .map(|r| r.certified_down_mbps)
            .collect();
        tiers.sort_by(|a, b| a.total_cmp(b));
        tiers.dedup();
        assert!(tiers.len() >= 2, "expected a tier mix, got {tiers:?}");
        assert_eq!(tiers[0], 10.0);
    }

    #[test]
    fn records_in_cbg_lookup() {
        let geo = StateGeography::build(&cfg(), UsState::NewHampshire);
        let ds = UsacDataset::build(&cfg(), &geo);
        // A geography cell's id range picks out exactly its CBG's
        // records, all under its ISP.
        let cell = geo.caf_cells()[0];
        let in_cbg: Vec<&CafRecord> = ds
            .records
            .iter()
            .filter(|r| r.address.block_group() == cell.cbg)
            .collect();
        let ids: Vec<AddressId> = in_cbg.iter().map(|r| r.address.id).collect();
        assert_eq!(ids, cell.ids().collect::<Vec<_>>());
        assert!(in_cbg.iter().all(|r| r.isp == cell.isp));
        // The walk over blocks names every record's block.
        let blocks: Vec<_> = ds
            .records
            .iter()
            .map(|r| (r.address.id, r.address.block))
            .collect();
        assert_eq!(geo.address_blocks().collect::<Vec<_>>(), blocks);
    }

    #[test]
    fn national_summary_shape() {
        let s = NationalCafSummary::build(&cfg());
        // Top-3 by addresses: TX, WI, MN (Figure 1a).
        assert_eq!(s.by_state[0].0, UsState::Texas);
        assert_eq!(s.by_state[1].0, UsState::Wisconsin);
        assert_eq!(s.by_state[2].0, UsState::Minnesota);
        // Top-3 by funds: TX, MN, AR (Figure 1d).
        let mut by_funds = s.by_state.clone();
        by_funds.sort_by(|a, b| b.2.total_cmp(&a.2));
        assert_eq!(by_funds[0].0, UsState::Texas);
        assert_eq!(by_funds[1].0, UsState::Minnesota);
        assert_eq!(by_funds[2].0, UsState::Arkansas);
        // 819 ISPs; AT&T leads by addresses; top-4 ≈ 62 % of addresses
        // and ≈ 37.5 % of funds (§2.3).
        assert_eq!(s.by_isp.len(), 819);
        assert_eq!(s.by_isp[0].0, "AT&T");
        let top4_addr: u64 = s.by_isp.iter().take(4).map(|(_, a, _)| a).sum();
        let share = top4_addr as f64 / NationalCafSummary::TOTAL_ADDRESSES as f64;
        assert!((0.55..0.68).contains(&share), "top4 share {share}");
        let top4_funds: f64 = [Isp::Att, Isp::CenturyLink, Isp::Frontier, Isp::Windstream]
            .iter()
            .map(|i| i.caf_funding_usd())
            .sum();
        let fund_share = top4_funds / NationalCafSummary::TOTAL_FUNDS_USD;
        assert!(
            (0.33..0.45).contains(&fund_share),
            "fund share {fund_share}"
        );
        // Per-CB distribution: mean near 7.8, heavy tail.
        let mean = s.addresses_per_block.iter().map(|&x| x as f64).sum::<f64>()
            / s.addresses_per_block.len() as f64;
        assert!((5.0..13.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = dataset(UsState::Utah);
        let b = dataset(UsState::Utah);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[0].address.street, b.records[0].address.street);
        assert_eq!(
            a.records[0].certified_down_mbps,
            b.records[0].certified_down_mbps
        );
    }
}
