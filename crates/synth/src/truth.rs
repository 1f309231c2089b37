//! The latent deployment truth.
//!
//! The paper can only *estimate* whether an ISP serves a certified address
//! by querying the ISP's website. The synthetic world makes that latent
//! state explicit: for every (address, ISP) pair of interest, a
//! [`AddressTruth`] records whether the ISP genuinely offers service, the
//! plans its website would advertise, and the website pathologies the
//! query will encounter (existing-subscriber flows, ambiguous "call to
//! order" pages, addresses the site's resolver can never find).
//!
//! Only the simulated BQT in `caf-bqt` may read this table — exactly as
//! the real BQT could only observe ISP websites. Analysis code receives
//! query outcomes, never truth.
//!
//! The audit queries a sample of the certified addresses, so Q1 truth
//! is drawn when BQT asks for it, from the address's own keyed stream
//! and its CBG's rate: bit for bit the entry a full build would store.
//! Q3 truth is drawn block by block with its block, and the Q3
//! analysis queries each block's truth as it is drawn; only
//! [`Q3World::build`](crate::q3::Q3World::build) stores it.
//!
//! ## Calibration
//!
//! Per-CBG serviceability is drawn from a Beta distribution whose mean is
//! the (ISP, state) base rate of [`CalibrationParams::serviceability_base`]
//! modulated by the CBG's population-density percentile (the Figure-3
//! coupling — switched off for AT&T in Mississippi). Advertised plans for
//! served addresses follow Table 1's conditional tier distribution.

use crate::dist;
use crate::geography::{CafCell, CbgInfo, StateGeography};
use crate::isp::Isp;
use crate::params::CalibrationParams;
use crate::params::SynthConfig;
use crate::plans::{BroadbandPlan, CatalogTier, PlanCatalog, PlanList};
use crate::rng::{mix2, scoped_rng, StdRng};
use caf_exec::rng::mix;
use caf_geo::{AddressId, UsState};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The latent state of one (address, ISP) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressTruth {
    /// Whether the ISP genuinely offers service here.
    pub served: bool,
    /// The plans the ISP's website advertises at this address (empty iff
    /// unserved). The first plan is the maximum tier. Drawn truth
    /// borrows its catalog's offer.
    pub plans: PlanList,
    /// Whether the address already has an active subscription, which
    /// changes the website flow (modify-service pages, Frontier's
    /// tier-less "Unknown Plan" display).
    pub existing_subscriber: bool,
    /// Whether the site's address resolver can never find this address —
    /// every query attempt fails (§5's unavoidable errors).
    pub hard_failure: bool,
    /// Whether the site answers ambiguously (AT&T's "Call to Order" page):
    /// technically maybe serviceable, but excluded from analysis.
    pub ambiguous: bool,
}

impl AddressTruth {
    /// An unserved truth record.
    pub fn unserved() -> AddressTruth {
        AddressTruth {
            served: false,
            plans: Cow::Borrowed(&[]),
            existing_subscriber: false,
            hard_failure: false,
            ambiguous: false,
        }
    }

    /// The maximum advertised download speed, if any plan specifies one.
    pub fn max_download_mbps(&self) -> Option<f64> {
        self.plans
            .iter()
            .filter_map(|p| p.download_mbps)
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
    }

    /// The highest-tier plan (first by construction).
    pub fn max_tier_plan(&self) -> Option<&BroadbandPlan> {
        self.plans.first()
    }
}

/// The stored entries' key hasher: [`mix`] folded over the key's words.
///
/// Fixed and seedless. Keys are dense integer ids that `mix` disperses
/// well, so SipHash's per-process random keys buy nothing here but
/// cycles — and nothing may depend on hash order either way (every
/// ordered consumer sorts; see [`TruthTable::sorted_entries`]).
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// One Q1 CBG's truth source: the contiguous address ids of its USAC
/// records, its certifying ISP, and the serviceability rate its
/// addresses are drawn at — the Beta-drawn latent rate, or a challenge's
/// availability correction in its place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Q1Cell {
    pub(crate) first: AddressId,
    pub(crate) len: u32,
    pub(crate) isp: Isp,
    rate: f64,
}

/// The truth table: latent state for every (address, ISP) pair the
/// campaigns can touch. Q1 pairs are answered by drawing from their
/// CBG's `Q1Cell`; every other pair ([`Q3World::build`](crate::Q3World::build)'s
/// Q3 blocks, hand-built tables) is a stored entry.
#[derive(Clone, Default, PartialEq)]
pub struct TruthTable {
    /// The world seed that keys the Q1 address draws.
    seed: u64,
    /// Q1 cells in address-id order; their id ranges are disjoint.
    cells: Vec<Q1Cell>,
    entries: HashMap<(AddressId, Isp), AddressTruth, BuildHasherDefault<MixHasher>>,
}

impl fmt::Debug for TruthTable {
    /// Prints stored entries in key order, so equal tables print
    /// identically whatever their insertion history.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TruthTable")
            .field("seed", &self.seed)
            .field("cells", &self.cells)
            .field("entries", &self.sorted_entries())
            .finish()
    }
}

impl TruthTable {
    /// An empty table.
    pub fn new() -> TruthTable {
        TruthTable::default()
    }

    /// An empty table with room for `capacity` stored entries before it
    /// rehashes.
    pub fn with_capacity(capacity: usize) -> TruthTable {
        TruthTable {
            entries: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            ..TruthTable::default()
        }
    }

    /// Stores (or replaces) an entry. A pair a Q1 cell answers is never
    /// read from the stored entries.
    pub fn insert(&mut self, address: AddressId, isp: Isp, truth: AddressTruth) {
        self.entries.insert((address, isp), truth);
    }

    /// Looks up the truth for an (address, ISP) pair. A Q1 address under
    /// its cell's ISP is drawn from its own keyed stream at the cell's
    /// rate; any other pair is a stored entry.
    pub fn get(&self, address: AddressId, isp: Isp) -> Option<Cow<'_, AddressTruth>> {
        match self.cell_of(address) {
            Some(cell) if cell.isp == isp => {
                let mut rng = scoped_rng(self.seed, "truth-addr", mix2(address.0, isp.id(), 1));
                let catalog = PlanCatalog::for_isp(isp);
                Some(Cow::Owned(draw_truth(&mut rng, isp, &catalog, cell.rate)))
            }
            _ => self.entries.get(&(address, isp)).map(Cow::Borrowed),
        }
    }

    /// The Q1 cell whose id range holds `address`, if any.
    fn cell_of(&self, address: AddressId) -> Option<&Q1Cell> {
        let after = self.cells.partition_point(|cell| cell.first <= address);
        let cell = &self.cells[after.checked_sub(1)?];
        (address.0 - cell.first.0 < u64::from(cell.len)).then_some(cell)
    }

    /// Number of (address, ISP) pairs the table answers: every address
    /// of every Q1 cell, plus the stored entries.
    pub fn len(&self) -> usize {
        self.cells.iter().map(|c| c.len as usize).sum::<usize>() + self.entries.len()
    }

    /// Whether the table answers no pair.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of Q1 cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of stored entries.
    pub fn stored_count(&self) -> usize {
        self.entries.len()
    }

    /// Adds Q1 cells drawn under `seed`, keeping the cells in id order.
    pub(crate) fn install_q1(&mut self, seed: u64, cells: Vec<Q1Cell>) {
        self.seed = seed;
        self.cells.extend(cells);
        // Ids are unique across cells, so the unstable sort is
        // deterministic.
        self.cells.sort_unstable_by_key(|cell| cell.first);
    }

    /// Replaces the Q1 cell holding the same ids as `cell` (a challenge
    /// rebuild: only the rate can differ).
    pub(crate) fn replace_q1_cell(&mut self, cell: Q1Cell) {
        let i = self
            .cells
            .binary_search_by_key(&cell.first, |c| c.first)
            .expect("a rebuilt cell replaces a generated one");
        self.cells[i] = cell;
    }

    /// Iterates every stored entry in arbitrary (hash-map) order.
    /// Consumers that need determinism use
    /// [`TruthTable::sorted_entries`].
    pub fn entries(&self) -> impl Iterator<Item = (AddressId, Isp, &AddressTruth)> {
        self.entries
            .iter()
            .map(|(&(address, isp), truth)| (address, isp, truth))
    }

    /// Every stored entry in `(address, ISP)` order — the canonical order
    /// of `Debug`.
    pub fn sorted_entries(&self) -> Vec<(AddressId, Isp, &AddressTruth)> {
        let mut entries: Vec<_> = self.entries().collect();
        // Keys are unique, so the unstable sort is still deterministic.
        entries.sort_unstable_by_key(|&(address, isp, _)| (address, isp));
        entries
    }

    /// The Q1/Q2 truth for a state: one cell per CBG with certified
    /// addresses, keyed by the certifying ISP.
    pub fn build_q1(config: &SynthConfig, geo: &StateGeography) -> TruthTable {
        let mut table = TruthTable::new();
        table.install_q1(
            config.seed,
            q1_cells(config, geo.state, geo.certified_cbgs(), |_| None),
        );
        table
    }
}

/// The Q1 cells of certified CBGs, one per CBG: `cbgs` yields each
/// CBG with its enumeration index and CAF cell, as
/// [`StateGeography::certified_cbgs`] does, and `rate_override` maps an
/// index to its availability correction. Rates are keyed by GEOID, so
/// any subset of a state's CBGs yields exactly those CBGs' cells. The
/// CBGs must carry *finalized* `density_pct` values. Generation,
/// challenge rebuilds and the snapshot decoder all derive cells here,
/// so every world draws from the same cells.
pub(crate) fn q1_cells<'a>(
    config: &SynthConfig,
    state: UsState,
    cbgs: impl Iterator<Item = (usize, &'a CbgInfo, CafCell)>,
    rate_override: impl Fn(usize) -> Option<f64>,
) -> Vec<Q1Cell> {
    cbgs.map(|(i, cbg, cell)| Q1Cell {
        first: cell.first,
        len: cell.count,
        isp: cbg.isp,
        rate: rate_override(i).unwrap_or_else(|| {
            // The latent rate: the (ISP, state) base rate,
            // density-modulated, with Beta-distributed CBG-to-CBG
            // spread.
            let isp = cbg.isp;
            let base = CalibrationParams::serviceability_base(isp, state);
            let coupling = CalibrationParams::density_coupling(isp, state);
            let kappa = CalibrationParams::serviceability_concentration(isp);
            let modulated = (base * (1.0 + coupling * (cbg.density_pct - 0.5))).clamp(0.02, 0.98);
            let mut cbg_rng = scoped_rng(config.seed, "truth-cbg", cbg.id.geoid());
            dist::beta_mean_conc(&mut cbg_rng, modulated, kappa)
        }),
    })
    .collect()
}

/// Draws the truth for one address given its CBG's serviceability rate.
pub(crate) fn draw_truth(
    rng: &mut StdRng,
    isp: Isp,
    catalog: &PlanCatalog,
    serviceability: f64,
) -> AddressTruth {
    TruthDraw::draw(rng, isp, catalog, serviceability).materialize(catalog)
}

/// Every random decision of one truth draw — the flags and, if served,
/// the maximum advertised tier — without the plans.
/// [`TruthDraw::materialize`] consumes no randomness, so a caller that
/// supplies its own plans (the Q3 block-consistent tier) draws exactly
/// the same stream as [`draw_truth`].
pub(crate) struct TruthDraw {
    /// The maximum advertised tier; `None` iff unserved.
    pub max_tier: Option<&'static CatalogTier>,
    /// See [`AddressTruth::existing_subscriber`].
    pub existing_subscriber: bool,
    /// See [`AddressTruth::hard_failure`].
    pub hard_failure: bool,
    /// See [`AddressTruth::ambiguous`].
    pub ambiguous: bool,
}

impl TruthDraw {
    pub(crate) fn draw(
        rng: &mut StdRng,
        isp: Isp,
        catalog: &PlanCatalog,
        serviceability: f64,
    ) -> TruthDraw {
        let hard_failure = dist::bernoulli(rng, CalibrationParams::hard_failure_rate(isp));
        if !dist::bernoulli(rng, serviceability) {
            return TruthDraw {
                max_tier: None,
                existing_subscriber: false,
                hard_failure,
                ambiguous: false,
            };
        }
        // Served: draw the maximum advertised tier from Table 1's
        // conditional distribution.
        let weights = CalibrationParams::advertised_tier_weights(isp);
        let max_label = weights[dist::categorical_by(rng, weights, |&(_, w)| w)].0;
        let max_tier = catalog
            .tier_labeled(max_label)
            .expect("calibration labels validated against catalogs");
        // Frontier's tier-less "Unknown Plan" is shown for existing
        // subscribers; for other ISPs subscription status is independent.
        let existing_subscriber = if max_label == "Unknown Plan" {
            true
        } else {
            dist::bernoulli(rng, 0.22)
        };
        let ambiguous = dist::bernoulli(rng, CalibrationParams::ambiguous_response_rate(isp));
        TruthDraw {
            max_tier: Some(max_tier),
            existing_subscriber,
            hard_failure,
            ambiguous,
        }
    }

    /// The truth record with the catalog's offer for the maximum tier
    /// ([`PlanCatalog::offer`]), borrowed.
    pub(crate) fn materialize(self, catalog: &PlanCatalog) -> AddressTruth {
        let Some(max_tier) = self.max_tier else {
            return AddressTruth {
                hard_failure: self.hard_failure,
                ..AddressTruth::unserved()
            };
        };
        AddressTruth {
            served: true,
            plans: Cow::Borrowed(catalog.offer(max_tier)),
            existing_subscriber: self.existing_subscriber,
            hard_failure: self.hard_failure,
            ambiguous: self.ambiguous,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SynthConfig {
        SynthConfig { seed: 5, scale: 20 }
    }

    fn truth_for(state: UsState) -> (StateGeography, TruthTable) {
        let geo = StateGeography::build(&cfg(), state);
        let truth = TruthTable::build_q1(&cfg(), &geo);
        (geo, truth)
    }

    fn certified(geo: &StateGeography) -> Vec<(AddressId, Isp)> {
        geo.certified_addresses().collect()
    }

    /// The share of a cell's certified addresses its ISP serves.
    fn served_rate(truth: &TruthTable, cell: CafCell) -> f64 {
        let served = cell
            .ids()
            .filter(|&id| truth.get(id, cell.isp).unwrap().served)
            .count();
        served as f64 / f64::from(cell.count)
    }

    #[test]
    fn every_record_has_truth() {
        let (geo, truth) = truth_for(UsState::Vermont);
        let pairs = certified(&geo);
        assert_eq!(truth.len(), pairs.len());
        for (id, isp) in pairs {
            assert!(truth.get(id, isp).is_some());
        }
    }

    #[test]
    fn served_iff_plans() {
        let (geo, truth) = truth_for(UsState::Alabama);
        for (id, isp) in certified(&geo) {
            let t = truth.get(id, isp).unwrap();
            assert_eq!(t.served, !t.plans.is_empty());
            if let Some(max) = t.max_download_mbps() {
                // First plan is the max tier.
                assert_eq!(t.max_tier_plan().unwrap().download_mbps, Some(max));
            }
        }
    }

    #[test]
    fn state_isp_serviceability_lands_near_base() {
        // The per-CBG rates average to the (ISP, state) base. Address-
        // weighted rates are noisier at small scale because the CBG size
        // distribution is heavy-tailed; the CBG-level mean is the stable
        // calibration check (the pipeline-level weighted check lives in
        // caf-core's calibration tests at larger scale).
        let (geo, truth) = truth_for(UsState::Alabama);
        for isp in [Isp::Att, Isp::CenturyLink] {
            let cbg_rates: Vec<f64> = geo
                .certified_cbgs()
                .filter(|(_, cbg, _)| cbg.isp == isp)
                .map(|(_, _, cell)| served_rate(&truth, cell))
                .collect();
            let rate = cbg_rates.iter().sum::<f64>() / cbg_rates.len() as f64;
            let base = CalibrationParams::serviceability_base(isp, UsState::Alabama);
            assert!(
                (rate - base).abs() < 0.10,
                "{isp}: rate {rate} vs base {base}"
            );
        }
    }

    #[test]
    fn att_density_coupling_visible() {
        // Among AT&T CBGs in Georgia, the densest third must out-serve the
        // sparsest third.
        let (geo, truth) = truth_for(UsState::Georgia);
        // (density_pct, rate)
        let mut rates: Vec<(f64, f64)> = geo
            .certified_cbgs()
            .filter(|(_, cbg, _)| cbg.isp == Isp::Att && cbg.caf_addresses >= 5)
            .map(|(_, cbg, cell)| (cbg.density_pct, served_rate(&truth, cell)))
            .collect();
        assert!(rates.len() > 20, "need enough CBGs, got {}", rates.len());
        rates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let third = rates.len() / 3;
        let sparse: f64 = rates[..third].iter().map(|r| r.1).sum::<f64>() / third as f64;
        let dense: f64 = rates[rates.len() - third..]
            .iter()
            .map(|r| r.1)
            .sum::<f64>()
            / third as f64;
        assert!(
            dense > sparse + 0.08,
            "dense {dense} should exceed sparse {sparse}"
        );
    }

    /// Least-squares slope of per-CBG served rate on density percentile.
    fn density_slope(state: UsState, seed: u64) -> f64 {
        let cfg = SynthConfig { seed, scale: 20 };
        let geo = StateGeography::build(&cfg, state);
        let truth = TruthTable::build_q1(&cfg, &geo);
        let points: Vec<(f64, f64)> = geo
            .certified_cbgs()
            .filter(|(_, cbg, _)| cbg.isp == Isp::Att && cbg.caf_addresses >= 5)
            .map(|(_, cbg, cell)| (cbg.density_pct, served_rate(&truth, cell)))
            .collect();
        assert!(points.len() > 20, "need enough CBGs, got {}", points.len());
        let n = points.len() as f64;
        let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
        let cov = points
            .iter()
            .map(|p| (p.0 - mean_x) * (p.1 - mean_y))
            .sum::<f64>();
        let var = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum::<f64>();
        cov / var
    }

    #[test]
    fn mississippi_att_has_no_density_coupling() {
        // The coupling parameter is 0.0 for (AT&T, MS), so the population
        // regression slope of served rate on density percentile is zero.
        // A tail-thirds comparison at one seed is too noisy (the Beta
        // CBG-to-CBG spread alone moves tail means by ~0.1); the full-
        // sample regression slope averaged over three seeds has ~8x the
        // margin. Georgia's real coupling of 1.4 yields a slope near
        // 0.5 at the same scale, so the 0.35 bound still separates the
        // uncoupled state from a coupled one (see the positive control
        // in `att_density_coupling_visible`).
        let mean_slope = (5..8)
            .map(|seed| density_slope(UsState::Mississippi, seed))
            .sum::<f64>()
            / 3.0;
        assert!(
            mean_slope.abs() < 0.35,
            "MS coupling should be flat: mean slope {mean_slope}"
        );
    }

    #[test]
    fn frontier_unknown_plan_implies_subscriber() {
        let (geo, truth) = truth_for(UsState::Ohio);
        let mut saw_unknown = false;
        for (id, isp) in certified(&geo)
            .into_iter()
            .filter(|&(_, isp)| isp == Isp::Frontier)
        {
            let t = truth.get(id, isp).unwrap();
            if let Some(plan) = t.max_tier_plan() {
                if plan.name == "Unknown Plan" {
                    saw_unknown = true;
                    assert!(t.existing_subscriber);
                }
            }
        }
        assert!(saw_unknown, "expected some Unknown Plan draws in Ohio");
    }

    #[test]
    fn truth_is_deterministic_and_order_independent() {
        let (geo, truth_a) = truth_for(UsState::Utah);
        let (_, truth_b) = truth_for(UsState::Utah);
        for (id, isp) in certified(&geo) {
            assert_eq!(truth_a.get(id, isp), truth_b.get(id, isp));
        }
    }

    #[test]
    fn lookups_outside_a_cell_or_under_another_isp_miss() {
        let (geo, mut truth) = truth_for(UsState::Vermont);
        let pairs = certified(&geo);
        let (first, isp) = pairs[0];
        let (last, last_isp) = pairs[pairs.len() - 1];
        assert!(truth.get(AddressId(first.0 - 1), isp).is_none());
        assert!(truth.get(AddressId(last.0 + 1), last_isp).is_none());
        let other = Isp::all().into_iter().find(|&i| i != isp).unwrap();
        assert!(truth.get(first, other).is_none());
        // A stored entry under another ISP is still found, and the cell
        // keeps answering its own ISP.
        truth.insert(first, other, AddressTruth::unserved());
        assert_eq!(
            truth.get(first, other).as_deref(),
            Some(&AddressTruth::unserved())
        );
        assert!(matches!(truth.get(first, isp), Some(Cow::Owned(_))));
        assert!(truth.cell_count() > 0);
        assert_eq!(truth.stored_count(), 1);
    }
}
