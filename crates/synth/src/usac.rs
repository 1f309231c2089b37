//! The synthetic USAC CAF-Map dataset.
//!
//! USAC's open-data CAF Map lists every ISP-certified deployment location:
//! street address, coordinates, census identifiers, certifying ISP,
//! last-mile technology, and the certified service quality (§2.3). This
//! module materializes that dataset from the synthetic geography — one
//! [`CafRecord`] per certified address — plus the national-scale marginals
//! behind Figure 1.

use crate::dist;
use crate::geography::{CbgInfo, StateGeography};
use crate::isp::Isp;
use crate::on_demand::{OnDemand, Recipe};
use crate::params::{CalibrationParams, SynthConfig};
use crate::rng::scoped_rng;
use caf_dataframe::{Column, DataFrame};
use caf_geo::{Address, AddressId, BlockGroupId, LatLon, StreetAddress, UsState};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

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
/// audited ISP, with a by-CBG range index for the sampling stage.
///
/// Records stay in generation order (the geography's CBG enumeration
/// order), so each (ISP, CBG) cell's records form one contiguous run and
/// the index is one record range per cell, kept in ascending
/// `(Isp, BlockGroupId)` order. A world holds it behind a [`LazyUsac`],
/// which builds it the first time it is read.
#[derive(Debug, Clone, PartialEq)]
pub struct UsacDataset {
    /// The state this slice covers.
    pub state: UsState,
    /// All records, in CBG enumeration order, address ids ascending.
    pub records: Vec<CafRecord>,
    cells: Vec<(Isp, BlockGroupId, Range<usize>)>,
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
        Self::from_records(
            geo.state,
            Self::build_for_cbgs(config, geo.state, &geo.cbgs, 0),
        )
        .expect("a generated CBG's records are contiguous")
    }

    /// Materializes the records of a contiguous CBG slice. `base` is the
    /// number of CAF addresses in all CBGs *before* the slice (the
    /// state's address-id counter is dense across CBGs, so a shard must
    /// know its prefix total to mint the same ids as a full build).
    /// Every per-record draw comes from the CBG's keyed stream, so
    /// disjoint slices concatenate to exactly the full build's records.
    pub fn build_for_cbgs(
        config: &SynthConfig,
        state: UsState,
        cbgs: &[CbgInfo],
        base: u64,
    ) -> Vec<CafRecord> {
        let mut counter: u64 = base;
        let mut records: Vec<CafRecord> =
            Vec::with_capacity(cbgs.iter().map(|c| c.caf_addresses as usize).sum());

        for cbg in cbgs {
            let mut rng = scoped_rng(config.seed, "usac", cbg.id.geoid());
            let certified = CalibrationParams::certified_tier_weights(cbg.isp);
            for block in &cbg.blocks {
                for _ in 0..block.caf_addresses {
                    counter += 1;
                    let id = address_id(state, counter);
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

    /// Indexes records whose (ISP, CBG) cells are each one contiguous
    /// run, as [`UsacDataset::build_for_cbgs`] emits them. `None` if a
    /// cell's records are split across runs: the range index could not
    /// describe them.
    pub fn from_records(state: UsState, records: Vec<CafRecord>) -> Option<UsacDataset> {
        let mut cells: Vec<(Isp, BlockGroupId, Range<usize>)> = Vec::new();
        for (i, record) in records.iter().enumerate() {
            let key = (record.isp, record.address.block_group());
            match cells.last_mut() {
                Some((isp, cbg, range)) if (*isp, *cbg) == key => range.end = i + 1,
                _ => cells.push((key.0, key.1, i..i + 1)),
            }
        }
        cells.sort_unstable_by_key(|&(isp, cbg, _)| (isp, cbg));
        if cells
            .windows(2)
            .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return None;
        }
        Some(UsacDataset {
            state,
            records,
            cells,
        })
    }

    /// The positions in [`UsacDataset::records`] of one (ISP, CBG)
    /// cell's records (empty if the cell is absent).
    pub fn cbg_range(&self, isp: Isp, cbg: BlockGroupId) -> Range<usize> {
        self.cells
            .binary_search_by_key(&(isp, cbg), |&(isp, cbg, _)| (isp, cbg))
            .map_or(0..0, |i| self.cells[i].2.clone())
    }

    /// Iterates over the (ISP, CBG) cells present in this slice, in
    /// ascending key order, each with its records in generation order.
    pub fn cbg_cells(&self) -> impl Iterator<Item = (Isp, BlockGroupId, &[CafRecord])> {
        self.cells
            .iter()
            .map(|(isp, cbg, range)| (*isp, *cbg, &self.records[range.clone()]))
    }

    /// Total certified addresses for one ISP in this state.
    pub fn addresses_for(&self, isp: Isp) -> usize {
        self.records.iter().filter(|r| r.isp == isp).count()
    }

    /// The dataset as a dataframe (one row per record) for relational
    /// analysis: columns `addr_id, isp, state, cbg, block, lat, lon,
    /// certified_down, certified_up, technology, latency_ms`.
    pub fn to_dataframe(&self) -> DataFrame {
        let n = self.records.len();
        let mut addr_id = Vec::with_capacity(n);
        let mut isp = Vec::with_capacity(n);
        let mut cbg = Vec::with_capacity(n);
        let mut block = Vec::with_capacity(n);
        let mut lat = Vec::with_capacity(n);
        let mut lon = Vec::with_capacity(n);
        let mut down = Vec::with_capacity(n);
        let mut up = Vec::with_capacity(n);
        let mut tech = Vec::with_capacity(n);
        let mut latency = Vec::with_capacity(n);
        for r in &self.records {
            addr_id.push(r.address.id.0 as i64);
            isp.push(r.isp.name());
            cbg.push(r.address.block_group().to_string());
            block.push(r.address.block.to_string());
            lat.push(r.address.location.lat());
            lon.push(r.address.location.lon());
            down.push(r.certified_down_mbps);
            up.push(r.certified_up_mbps);
            tech.push(r.technology.label());
            latency.push(r.latency_ms);
        }
        DataFrame::new(vec![
            ("addr_id", addr_id.into_iter().collect::<Column>()),
            ("isp", isp.into_iter().collect::<Column>()),
            (
                "state",
                std::iter::repeat_n(self.state.abbrev(), n).collect::<Column>(),
            ),
            ("cbg", cbg.into_iter().collect::<Column>()),
            ("block", block.into_iter().collect::<Column>()),
            ("lat", lat.into_iter().collect::<Column>()),
            ("lon", lon.into_iter().collect::<Column>()),
            ("certified_down", down.into_iter().collect::<Column>()),
            ("certified_up", up.into_iter().collect::<Column>()),
            ("technology", tech.into_iter().collect::<Column>()),
            ("latency_ms", latency.into_iter().collect::<Column>()),
        ])
        .expect("columns constructed with equal lengths")
    }
}

/// A state's [`UsacDataset`], built the first time it is read.
///
/// A generated world holds the seed, the state and its geography's CBGs
/// (shared with the geography, not copied) and runs
/// [`UsacDataset::build_for_cbgs`] on first access, so a pass that
/// reads no CAF-Map record — the Q3 analysis — builds none. A decoded
/// world fills the dataset directly.
pub type LazyUsac = OnDemand<UsacRecipe>;

/// The recipe of a state's [`LazyUsac`]. The build opens the
/// `world.<ABBREV>` span and counts into `caf.synth.usac.states_built` /
/// `caf.synth.usac.records_built`.
#[derive(Debug, Clone)]
pub struct UsacRecipe {
    config: SynthConfig,
    state: UsState,
    cbgs: Arc<[CbgInfo]>,
}

impl UsacRecipe {
    /// The dataset of `state`'s `cbgs` under `config`.
    pub(crate) fn new(config: SynthConfig, state: UsState, cbgs: Arc<[CbgInfo]>) -> UsacRecipe {
        UsacRecipe {
            config,
            state,
            cbgs,
        }
    }
}

impl Recipe for UsacRecipe {
    type Output = UsacDataset;

    fn build(&self) -> UsacDataset {
        let _span = caf_obs::span_with(|| format!("world.{}", self.state.abbrev()));
        let records = UsacDataset::build_for_cbgs(&self.config, self.state, &self.cbgs, 0);
        caf_obs::count("caf.synth.usac.states_built", 1);
        caf_obs::count("caf.synth.usac.records_built", records.len() as u64);
        UsacDataset::from_records(self.state, records)
            .expect("a generated CBG's records are contiguous")
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
    use crate::geography::StateGeography;

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
        // Every CBG cell is indexed and sums back to the record count.
        let indexed: usize = ds.cbg_cells().map(|(_, _, records)| records.len()).sum();
        assert_eq!(indexed, ds.records.len());
    }

    #[test]
    fn cbg_slice_builds_concatenate_to_the_full_build() {
        let geo = StateGeography::build(&cfg(), UsState::Ohio);
        let full = UsacDataset::build(&cfg(), &geo);
        for splits in [2usize, 5] {
            let chunk = geo.cbgs.len().div_ceil(splits);
            let mut records = Vec::new();
            let mut base: u64 = 0;
            for s in 0..splits {
                let lo = (s * chunk).min(geo.cbgs.len());
                let hi = ((s + 1) * chunk).min(geo.cbgs.len());
                let slice = &geo.cbgs[lo..hi];
                records.extend(UsacDataset::build_for_cbgs(&cfg(), geo.state, slice, base));
                base += slice
                    .iter()
                    .map(|c| u64::from(c.caf_addresses))
                    .sum::<u64>();
            }
            let sharded = UsacDataset::from_records(geo.state, records).unwrap();
            assert_eq!(
                format!("{:?}", sharded.records),
                format!("{:?}", full.records),
                "splits = {splits}"
            );
            let full_cells: Vec<_> = full
                .cbg_cells()
                .map(|(i, c, x)| (i, c, x.to_vec()))
                .collect();
            let shard_cells: Vec<_> = sharded
                .cbg_cells()
                .map(|(i, c, x)| (i, c, x.to_vec()))
                .collect();
            assert_eq!(full_cells, shard_cells);
        }
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
        let ds = dataset(UsState::NewHampshire);
        let (isp, cbg, records) = ds.cbg_cells().next().expect("at least one cell");
        assert_eq!(&ds.records[ds.cbg_range(isp, cbg)], records);
        for r in records {
            assert_eq!(r.address.block_group(), cbg);
            assert_eq!(r.isp, isp);
        }
        // Missing cell yields empty.
        assert!(ds.cbg_range(Isp::Att, cbg).is_empty() || isp == Isp::Att);
    }

    #[test]
    fn a_cell_split_across_runs_is_not_indexed() {
        let ds = dataset(UsState::NewHampshire);
        let (_, _, first) = ds.cbg_cells().find(|(_, _, r)| r.len() >= 2).unwrap();
        let first = first[0].address.id;
        let a = ds
            .records
            .iter()
            .position(|r| r.address.id == first)
            .unwrap();
        // Moving a cell's first record to the end splits the cell in two.
        let mut records = ds.records.clone();
        let moved = records.remove(a);
        records.push(moved);
        assert!(UsacDataset::from_records(ds.state, records).is_none());
        assert!(UsacDataset::from_records(ds.state, ds.records.clone()) == Some(ds));
    }

    #[test]
    fn dataframe_roundtrip_shape() {
        let ds = dataset(UsState::NewHampshire);
        let df = ds.to_dataframe();
        assert_eq!(df.n_rows(), ds.records.len());
        assert!(df.has_column("certified_down"));
        assert_eq!(df.row(0).str("state").unwrap(), "NH");
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
