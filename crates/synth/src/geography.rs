//! Synthetic census geography for the study states.
//!
//! For each (state, ISP) cell of the Table-3 presence matrix we generate
//! the census block groups the ISP certified CAF deployments in, each with
//! a centroid inside the state's bounding box, a population, a
//! population-density value that decays with distance from the state's
//! synthetic urban centers (giving Figure 10's geospatial pattern), and an
//! address count drawn from the heavy-tailed distribution of Figure 1c
//! (range 1 – 5.2 k, median ≈ 64, 38 % of CBGs under 30 addresses).
//! Addresses within a CBG are split across census blocks at the national
//! CAF average of ≈ 7.8 addresses per block.

use crate::dist;
use crate::isp::Isp;
use crate::params::{CalibrationParams, SynthConfig};
use crate::rng::{mix2, scoped_rng, StdRng};
use crate::usac::address_id;
use caf_geo::{
    AddressId, BlockGroupId, BlockId, BoundingBox, CountyId, LatLon, StateFips, TractId, UsState,
};
use std::sync::Arc;

/// A census block with its CAF address count.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// The block GEOID.
    pub id: BlockId,
    /// Block centroid (near its CBG's centroid).
    pub centroid: LatLon,
    /// Number of CAF addresses certified in this block.
    pub caf_addresses: u32,
}

/// A census block group with its geography and CAF address total.
#[derive(Debug, Clone, PartialEq)]
pub struct CbgInfo {
    /// The block-group GEOID.
    pub id: BlockGroupId,
    /// The single CAF-subsidized ISP for this block group (CAF funds one
    /// provider per area — §2.2).
    pub isp: Isp,
    /// CBG centroid.
    pub centroid: LatLon,
    /// Resident population (Census CBGs hold 600–3 000 people).
    pub population: u32,
    /// Synthetic population density in people per square mile.
    pub density: f64,
    /// Density percentile within the state, in `[0, 1]`.
    pub density_pct: f64,
    /// Total CAF addresses certified in this CBG (the paper's weighting
    /// denominator).
    pub caf_addresses: u32,
    /// The blocks making up this CBG.
    pub blocks: Vec<BlockInfo>,
}

/// One certified (ISP, CBG) cell of the CAF Map: its addresses hold the
/// `count` consecutive ids from `first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CafCell {
    /// The certifying ISP.
    pub isp: Isp,
    /// The block group.
    pub cbg: BlockGroupId,
    /// The id of the cell's first certified address.
    pub first: AddressId,
    /// How many addresses the cell certifies.
    pub count: u32,
}

impl CafCell {
    /// The cell's address ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = AddressId> {
        (self.first.0..self.first.0 + u64::from(self.count)).map(AddressId)
    }
}

/// The CBGs of `cbgs` that certify addresses, in enumeration order, each
/// with its index and its cell. Ids run consecutively through the
/// state: a CBG's first id follows the last id of every earlier CBG
/// ([`address_id`] of the running count).
pub(crate) fn certified_cbgs(
    state: UsState,
    cbgs: &[CbgInfo],
) -> impl Iterator<Item = (usize, &CbgInfo, CafCell)> {
    let mut before: u64 = 0;
    cbgs.iter().enumerate().filter_map(move |(i, cbg)| {
        let cell = CafCell {
            isp: cbg.isp,
            cbg: cbg.id,
            first: address_id(state, before + 1),
            count: cbg.caf_addresses,
        };
        before += u64::from(cbg.caf_addresses);
        (cbg.caf_addresses > 0).then_some((i, cbg, cell))
    })
}

/// The synthetic geography of one state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateGeography {
    /// The state.
    pub state: UsState,
    /// All CAF block groups, across every ISP present in the state, in
    /// enumeration order (shared with the state's lazily built USAC
    /// dataset).
    pub cbgs: Arc<[CbgInfo]>,
    /// Synthetic urban centers used for the density field.
    pub urban_centers: Vec<LatLon>,
}

impl StateGeography {
    /// Builds the geography of `state` for every audited ISP present in
    /// the Table-3 matrix, deterministically from the config seed.
    /// Equivalent to building the full CBG range in one shard and
    /// assembling it (which is exactly how it is implemented, so the
    /// sharded world generator and this entry point share one code
    /// path).
    pub fn build(config: &SynthConfig, state: UsState) -> StateGeography {
        let n = Self::cbg_count(config, state);
        Self::assemble(config, state, Self::build_range(config, state, 0..n))
    }

    /// How many CBGs [`StateGeography::build`] will generate for
    /// `state` — the cheap cost hint the sharded world generator feeds
    /// the scheduler, computed without building anything.
    pub fn cbg_count(config: &SynthConfig, state: UsState) -> usize {
        Isp::audited()
            .iter()
            .filter_map(|&isp| CalibrationParams::presence(state, isp))
            .map(|target| config.scaled(target.cbgs) as usize)
            .sum()
    }

    /// Builds a contiguous range of the state's CBGs, indexed in the
    /// canonical enumeration order (audited ISPs in `Isp::audited`
    /// order, each ISP's CBGs by local index). Every CBG is a pure
    /// function of `(seed, state, isp, local)`, so disjoint ranges
    /// concatenate to exactly what one full-range build produces —
    /// except for `density_pct`, which is a whole-state statistic
    /// finalized by [`StateGeography::assemble`].
    pub fn build_range(
        config: &SynthConfig,
        state: UsState,
        range: std::ops::Range<usize>,
    ) -> Vec<CbgInfo> {
        let urban_centers = urban_centers(config, state);
        let mut cbgs: Vec<CbgInfo> = Vec::with_capacity(range.len());
        let mut offset: usize = 0;
        for isp in Isp::audited() {
            let Some(target) = CalibrationParams::presence(state, isp) else {
                continue;
            };
            let n_cbgs = config.scaled(target.cbgs) as usize;
            let lo = range.start.clamp(offset, offset + n_cbgs);
            let hi = range.end.clamp(offset, offset + n_cbgs);
            for global in lo..hi {
                let local = global - offset;
                // The tract counter equals the global CBG index + 1 (it
                // incremented once per CBG in the original single loop).
                let tract_counter = (global + 1) as u32;
                cbgs.push(build_cbg(
                    config,
                    state,
                    isp,
                    tract_counter,
                    local as u64,
                    &urban_centers,
                ));
            }
            offset += n_cbgs;
        }
        cbgs
    }

    /// Assembles range-built CBGs (concatenated in enumeration order)
    /// into the state geography, finalizing the whole-state density
    /// percentiles that individual ranges cannot know.
    pub fn assemble(
        config: &SynthConfig,
        state: UsState,
        mut cbgs: Vec<CbgInfo>,
    ) -> StateGeography {
        let urban_centers = urban_centers(config, state);
        // Compute within-state density percentiles over all CBGs.
        let mut order: Vec<usize> = (0..cbgs.len()).collect();
        order.sort_by(|&a, &b| cbgs[a].density.total_cmp(&cbgs[b].density));
        let n = order.len().max(1);
        for (rank, &idx) in order.iter().enumerate() {
            cbgs[idx].density_pct = if n == 1 {
                0.5
            } else {
                rank as f64 / (n - 1) as f64
            };
        }
        StateGeography {
            state,
            cbgs: cbgs.into(),
            urban_centers,
        }
    }

    /// Total CAF addresses across all CBGs.
    pub fn total_caf_addresses(&self) -> u64 {
        self.cbgs.iter().map(|c| u64::from(c.caf_addresses)).sum()
    }

    /// The CBGs that certify addresses, in enumeration order, each with
    /// its index and its cell: the order and ids of the state's CAF-Map
    /// records.
    pub fn certified_cbgs(&self) -> impl Iterator<Item = (usize, &CbgInfo, CafCell)> {
        certified_cbgs(self.state, &self.cbgs)
    }

    /// The (ISP, CBG) cells with certified addresses, each with its id
    /// range, in ascending `(Isp, BlockGroupId)` order: the CAF Map's
    /// cells, known without building a record.
    pub fn caf_cells(&self) -> Vec<CafCell> {
        self.caf_cell_cbgs()
            .into_iter()
            .map(|(cell, _)| cell)
            .collect()
    }

    /// [`StateGeography::caf_cells`], each cell with its CBG.
    pub fn caf_cell_cbgs(&self) -> Vec<(CafCell, &CbgInfo)> {
        let mut cells: Vec<(CafCell, &CbgInfo)> = self
            .certified_cbgs()
            .map(|(_, cbg, cell)| (cell, cbg))
            .collect();
        cells.sort_unstable_by_key(|(cell, _)| (cell.isp, cell.cbg));
        cells
    }

    /// Every certified address id with its ISP, in CAF-Map record order
    /// (CBG enumeration order, ids ascending).
    pub fn certified_addresses(&self) -> impl Iterator<Item = (AddressId, Isp)> + '_ {
        self.certified_cbgs()
            .flat_map(|(_, _, cell)| cell.ids().map(move |id| (id, cell.isp)))
    }

    /// Every certified address id with its census block, ascending by
    /// id: a CBG's ids walk its blocks in order, each block holding its
    /// `caf_addresses` of them.
    pub fn address_blocks(&self) -> impl Iterator<Item = (AddressId, BlockId)> + '_ {
        self.certified_cbgs().flat_map(|(_, cbg, cell)| {
            let blocks = cbg
                .blocks
                .iter()
                .flat_map(|b| std::iter::repeat_n(b.id, b.caf_addresses as usize));
            cell.ids().zip(blocks)
        })
    }

    /// The CBGs certified to a specific ISP.
    pub fn cbgs_for(&self, isp: Isp) -> impl Iterator<Item = &CbgInfo> {
        self.cbgs.iter().filter(move |c| c.isp == isp)
    }
}

/// Synthetic urban centers: 2–4 hotspots, deterministic per state, biased
/// away from the bbox edges.
fn urban_centers(config: &SynthConfig, state: UsState) -> Vec<LatLon> {
    let mut rng = scoped_rng(config.seed, "urban-centers", state.fips().code() as u64);
    let bbox = state.bbox();
    let count = 2 + (rng.gen_range(0..3)) as usize;
    (0..count).map(|_| point_in(&mut rng, bbox, 0.15)).collect()
}

/// A uniform point inside `bbox`, inset by `margin` (fraction of span).
fn point_in(rng: &mut StdRng, bbox: BoundingBox, margin: f64) -> LatLon {
    let lat = bbox.min().lat() + bbox.lat_span() * rng.gen_range(margin..1.0 - margin);
    let lon = bbox.min().lon() + bbox.lon_span() * rng.gen_range(margin..1.0 - margin);
    LatLon::new(lat, lon).expect("inset point stays inside a valid bbox")
}

/// Number of CAF addresses for one CBG: clamped lognormal matching the
/// Figure-1c shape (median ≈ 64, ≈38 % of CBGs under 30 addresses, ≈83 %
/// under 300, range 1 – 5.2 k).
fn cbg_address_count(rng: &mut StdRng) -> u32 {
    dist::lognormal(rng, 64.0_f64.ln(), 2.0)
        .round()
        .clamp(1.0, 5_200.0) as u32
}

fn build_cbg(
    config: &SynthConfig,
    state: UsState,
    isp: Isp,
    tract_counter: u32,
    local: u64,
    centers: &[LatLon],
) -> CbgInfo {
    let key = mix2(state.fips().code() as u64, isp.id(), local);
    let mut rng = scoped_rng(config.seed, "cbg", key);
    let bbox = state.bbox();
    let centroid = point_in(&mut rng, bbox, 0.02);

    // Density decays with distance to the nearest urban center, plus
    // lognormal noise. Rural CAF territory dominates, as in the paper
    // (96.7 % of CAF blocks are rural).
    let nearest_km = centers
        .iter()
        .map(|c| centroid.distance_km(*c))
        .fold(f64::INFINITY, f64::min);
    let scale_km = 35.0;
    let urban_core = 2_500.0 * (-nearest_km / scale_km).exp();
    let noise = dist::lognormal(&mut rng, 0.0, 0.7);
    let density = (urban_core + 15.0) * noise;

    let population = rng.gen_range(600..=3_000);
    let caf_addresses = cbg_address_count(&mut rng);

    // GEOID assembly: county from a coarse spatial grid so neighboring
    // CBGs share counties; tract strictly increasing within the state.
    let (row, col) = bbox
        .locate(8, 8, centroid)
        .expect("centroid generated inside the bbox");
    let county_code = (row * 8 + col + 1) as u16;
    let fips = StateFips::new(state.fips().code()).expect("valid registry fips");
    let county = CountyId::new(fips, county_code).expect("grid county in range");
    let tract = TractId::new(county, tract_counter).expect("tract counter in range");
    let group_digit = (local % 9 + 1) as u8;
    let id = BlockGroupId::new(tract, group_digit).expect("digit 1..=9");

    // Split addresses across blocks at ~7.8 per block.
    let n_blocks = ((caf_addresses as f64 / 7.8).ceil() as u32).clamp(1, 999);
    let mut blocks = Vec::with_capacity(n_blocks as usize);
    let mut remaining = caf_addresses;
    for b in 0..n_blocks {
        let left = n_blocks - b;
        let share = if left == 1 {
            remaining
        } else {
            // Uneven split: some blocks get 1, a few get many (Fig. 1c
            // block range is 1 to >5k at the extreme).
            let mean = remaining as f64 / left as f64;
            let draw = dist::lognormal(&mut rng, mean.max(1.0).ln(), 0.5).round() as u32;
            draw.clamp(1, remaining.saturating_sub(left - 1).max(1))
        };
        remaining -= share.min(remaining);
        let jitter_lat = rng.gen_range(-0.01..0.01);
        let jitter_lon = rng.gen_range(-0.01..0.01);
        let centroid = LatLon::new(
            (centroid.lat() + jitter_lat).clamp(-90.0, 90.0),
            (centroid.lon() + jitter_lon).clamp(-180.0, 180.0),
        )
        .expect("jittered centroid in range");
        blocks.push(BlockInfo {
            id: BlockId::new(id, b as u16 + 1).expect("block counter under 999"),
            centroid,
            caf_addresses: share,
        });
    }
    // Rounding in the splits can leave a remainder; park it in the first
    // block so CBG totals stay exact.
    if remaining > 0 {
        blocks[0].caf_addresses += remaining;
    }
    let _ = config;

    CbgInfo {
        id,
        isp,
        centroid,
        population,
        density,
        density_pct: 0.5, // finalized by the caller over the whole state
        caf_addresses,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig { seed: 7, scale: 20 }
    }

    #[test]
    fn build_is_deterministic() {
        let a = StateGeography::build(&small_config(), UsState::Alabama);
        let b = StateGeography::build(&small_config(), UsState::Alabama);
        assert_eq!(a.cbgs.len(), b.cbgs.len());
        for (x, y) in a.cbgs.iter().zip(b.cbgs.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.caf_addresses, y.caf_addresses);
            assert_eq!(x.centroid, y.centroid);
        }
    }

    #[test]
    fn range_builds_concatenate_to_the_full_build() {
        let cfg = small_config();
        let full = StateGeography::build(&cfg, UsState::California);
        let n = StateGeography::cbg_count(&cfg, UsState::California);
        assert_eq!(full.cbgs.len(), n);
        for splits in [1usize, 3, 7] {
            let chunk = n.div_ceil(splits);
            let mut cbgs = Vec::new();
            for s in 0..splits {
                let lo = (s * chunk).min(n);
                let hi = ((s + 1) * chunk).min(n);
                cbgs.extend(StateGeography::build_range(
                    &cfg,
                    UsState::California,
                    lo..hi,
                ));
            }
            let assembled = StateGeography::assemble(&cfg, UsState::California, cbgs);
            assert_eq!(
                format!("{:?}", assembled.cbgs),
                format!("{:?}", full.cbgs),
                "splits = {splits}"
            );
        }
    }

    #[test]
    fn cbg_counts_follow_the_presence_matrix() {
        let cfg = small_config();
        let geo = StateGeography::build(&cfg, UsState::Alabama);
        for isp in Isp::audited() {
            let expected = CalibrationParams::presence(UsState::Alabama, isp)
                .map(|t| cfg.scaled(t.cbgs) as usize)
                .unwrap_or(0);
            assert_eq!(geo.cbgs_for(isp).count(), expected, "{isp}");
        }
        // Vermont: Consolidated only.
        let vt = StateGeography::build(&cfg, UsState::Vermont);
        assert!(vt.cbgs_for(Isp::Att).count() == 0);
        assert!(vt.cbgs_for(Isp::Consolidated).count() > 0);
    }

    #[test]
    fn geoids_are_unique_and_in_state() {
        let geo = StateGeography::build(&small_config(), UsState::Georgia);
        let mut ids: Vec<u64> = geo.cbgs.iter().map(|c| c.id.geoid()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate CBG GEOIDs");
        for c in geo.cbgs.iter() {
            assert_eq!(c.id.state().code(), 13);
            assert!(UsState::Georgia.bbox().contains(c.centroid));
        }
    }

    #[test]
    fn block_totals_match_cbg_totals() {
        let geo = StateGeography::build(&small_config(), UsState::Ohio);
        for cbg in geo.cbgs.iter() {
            let sum: u32 = cbg.blocks.iter().map(|b| b.caf_addresses).sum();
            assert_eq!(sum, cbg.caf_addresses, "cbg {}", cbg.id);
            assert!(!cbg.blocks.is_empty());
            for b in &cbg.blocks {
                assert_eq!(b.id.block_group(), cbg.id);
            }
        }
    }

    #[test]
    fn address_distribution_has_the_figure_1c_shape() {
        // Aggregate over a few states for sample size.
        let cfg = SynthConfig { seed: 3, scale: 5 };
        let mut counts: Vec<f64> = Vec::new();
        for state in [UsState::California, UsState::Ohio, UsState::Wisconsin] {
            let geo = StateGeography::build(&cfg, state);
            counts.extend(geo.cbgs.iter().map(|c| c.caf_addresses as f64));
        }
        counts.sort_by(|a, b| a.total_cmp(b));
        let n = counts.len() as f64;
        let frac_under_30 = counts.iter().filter(|&&c| c < 30.0).count() as f64 / n;
        let frac_under_300 = counts.iter().filter(|&&c| c < 300.0).count() as f64 / n;
        let median = counts[counts.len() / 2];
        // Paper: 38 % under 30, 83 % under 300, median 64.
        assert!(
            (0.25..0.50).contains(&frac_under_30),
            "under30 {frac_under_30}"
        );
        assert!(
            (0.72..0.92).contains(&frac_under_300),
            "under300 {frac_under_300}"
        );
        assert!((35.0..110.0).contains(&median), "median {median}");
        assert!(*counts.last().unwrap() > 1_000.0, "tail too light");
    }

    #[test]
    fn density_percentiles_are_uniform_and_spatial() {
        let geo = StateGeography::build(&small_config(), UsState::California);
        let n = geo.cbgs.len();
        assert!(n > 50);
        // Percentiles span [0,1].
        let max = geo.cbgs.iter().map(|c| c.density_pct).fold(0.0, f64::max);
        let min = geo.cbgs.iter().map(|c| c.density_pct).fold(1.0, f64::min);
        assert_eq!(min, 0.0);
        assert_eq!(max, 1.0);
        // CBGs near urban centers are denser on average than remote ones.
        let near_mean: Vec<f64> = geo
            .cbgs
            .iter()
            .filter(|c| {
                geo.urban_centers
                    .iter()
                    .any(|u| c.centroid.distance_km(*u) < 40.0)
            })
            .map(|c| c.density)
            .collect();
        let far: Vec<f64> = geo
            .cbgs
            .iter()
            .filter(|c| {
                geo.urban_centers
                    .iter()
                    .all(|u| c.centroid.distance_km(*u) > 150.0)
            })
            .map(|c| c.density)
            .collect();
        if !near_mean.is_empty() && !far.is_empty() {
            let near_avg = near_mean.iter().sum::<f64>() / near_mean.len() as f64;
            let far_avg = far.iter().sum::<f64>() / far.len() as f64;
            assert!(near_avg > far_avg, "near {near_avg} far {far_avg}");
        }
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let a = StateGeography::build(&SynthConfig { seed: 1, scale: 20 }, UsState::Iowa);
        let b = StateGeography::build(&SynthConfig { seed: 2, scale: 20 }, UsState::Iowa);
        let diff = a
            .cbgs
            .iter()
            .zip(b.cbgs.iter())
            .filter(|(x, y)| x.caf_addresses != y.caf_addresses)
            .count();
        assert!(diff > a.cbgs.len() / 2);
    }
}
