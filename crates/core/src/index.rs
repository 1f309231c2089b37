//! The shared columnar [`AuditIndex`] every analysis consumes.
//!
//! Before this module existed, each analysis stage — Q1 serviceability,
//! Q2 compliance, the program-rules scorer, the experienced-quality
//! join — independently rebuilt the same `HashMap<(Isp, BlockGroupId),
//! Vec<&AuditRow>>` grouping from the flat row vector. The index is that
//! grouping built **once**: audit rows sorted by `(isp, state, cbg)` in a
//! struct-of-arrays layout, with a per-(ISP, CBG) cell table carrying the
//! CBG metadata (weight, density, percentile, centroid) and contiguous
//! row ranges, plus per-ISP and per-state slices for filtered views.
//!
//! Two ordering facts make the index drop-in compatible with the HashMap
//! path it replaces (the equivalence tests in `tests/prop_index.rs` pin
//! this down bit-for-bit):
//!
//! * [`BlockGroupId`] GEOIDs embed the state FIPS code in their leading
//!   digits and [`UsState`] enumerates in FIPS order, so sorting by
//!   `(isp, cbg)` *is* sorting by `(isp, state, cbg)` — cell order
//!   matches the `sort_by_key(|r| (r.isp, r.cbg))` the analyses used.
//! * Rows within a cell share their CBG metadata by construction (the
//!   audit stamps every row from the same per-CBG lookup), so taking the
//!   metadata from the first row in sorted order equals taking it from
//!   the first row in insertion order.
//!
//! The module also hosts the two smaller grouping primitives the rest of
//! the pipeline shares: [`group_ranges`], a sort-based replacement for
//! ad-hoc HashMap bucketing with deterministic group order, and
//! [`RecordIndex`], a binary-searchable `(address, ISP) → QueryRecord`
//! view over a campaign's records, in place of a per-run map.

use caf_bqt::QueryRecord;
use caf_geo::{AddressId, BlockGroupId, LatLon, UsState};
use caf_synth::Isp;
use std::ops::Range;

use crate::audit::AuditDataset;

/// One (ISP, CBG) cell of the index: the CBG metadata table entry plus
/// the contiguous range of sorted row positions belonging to the cell.
#[derive(Debug, Clone)]
pub struct CellMeta {
    /// The ISP.
    pub isp: Isp,
    /// The state (redundant with the CBG's GEOID prefix, kept unpacked).
    pub state: UsState,
    /// The census block group.
    pub cbg: BlockGroupId,
    /// The CBG's total CAF addresses — the §4.1 aggregation weight.
    pub weight: f64,
    /// CBG population density (people per square mile).
    pub density: f64,
    /// CBG within-state density percentile.
    pub density_pct: f64,
    /// CBG centroid.
    pub centroid: LatLon,
    /// The cell's row positions in the index's sorted order; use
    /// [`AuditIndex::row_ids`] to resolve them to dataset rows.
    pub range: Range<usize>,
    /// How many of the cell's rows are served.
    pub served_rows: usize,
}

impl CellMeta {
    /// Number of definitive rows in the cell.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the cell has no rows (never true for built indexes: cells
    /// exist only because at least one row landed in them).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The cell's serviceability rate: served rows over definitive rows.
    pub fn serviceability_rate(&self) -> f64 {
        self.served_rows as f64 / self.len() as f64
    }
}

/// The audit dataset indexed for analysis: rows sorted by
/// `(isp, state, cbg)`, per-cell ranges with CBG metadata, and per-ISP /
/// per-state slices. Built once per dataset and shared by every analysis.
///
/// The index owns no row payloads — it stores sorted row ids (positions
/// into `dataset.rows`) plus a struct-of-arrays `served` column, so
/// methods that need full rows take the originating [`AuditDataset`]
/// alongside.
#[derive(Debug)]
pub struct AuditIndex {
    pub(crate) n_rows: usize,
    /// The world epoch the indexed dataset was computed at (0 for a
    /// pristine, pre-challenge world).
    pub(crate) epoch: u64,
    /// Sorted row ids: `order[pos]` is the dataset row at sorted
    /// position `pos`.
    pub(crate) order: Vec<u32>,
    /// The served flag per sorted position (SoA column).
    pub(crate) served: Vec<bool>,
    /// Cells in `(isp, state, cbg)` order.
    pub(crate) cells: Vec<CellMeta>,
    /// Per-ISP contiguous cell ranges, in ISP order.
    pub(crate) isp_cells: Vec<(Isp, Range<usize>)>,
    /// Per-state cell ids (cells of one state are *not* contiguous —
    /// state nests under ISP in the sort), in state order.
    pub(crate) state_cells: Vec<(UsState, Vec<u32>)>,
}

impl AuditIndex {
    /// Builds the index from an audit dataset at epoch 0 (a pristine,
    /// pre-challenge world). Use [`AuditIndex::build_at`] when the
    /// dataset reflects applied challenge deltas.
    pub fn build(dataset: &AuditDataset) -> AuditIndex {
        Self::build_at(dataset, 0)
    }

    /// Builds the index from an audit dataset computed at `epoch`. The
    /// epoch is identity metadata: it changes nothing about the sort or
    /// the cells, but rides along so downstream artifact envelopes (and
    /// cache keys) can distinguish pre- from post-challenge views.
    pub fn build_at(dataset: &AuditDataset, epoch: u64) -> AuditIndex {
        let _span = caf_obs::span("index.build");
        caf_obs::count("caf.core.index.builds", 1);
        let rows = &dataset.rows;
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        // Stable key: ties broken by original position so the sorted
        // order is a total function of the dataset.
        order.sort_unstable_by_key(|&i| {
            let r = &rows[i as usize];
            (r.isp, r.cbg, i)
        });

        let mut served = Vec::with_capacity(rows.len());
        let mut cells: Vec<CellMeta> = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let r = &rows[i as usize];
            served.push(r.served);
            match cells.last_mut() {
                Some(cell) if cell.isp == r.isp && cell.cbg == r.cbg => {
                    cell.range.end = pos + 1;
                    cell.served_rows += usize::from(r.served);
                }
                _ => cells.push(CellMeta {
                    isp: r.isp,
                    state: r.state,
                    cbg: r.cbg,
                    weight: r.cbg_total as f64,
                    density: r.density,
                    density_pct: r.density_pct,
                    centroid: r.centroid,
                    range: pos..pos + 1,
                    served_rows: usize::from(r.served),
                }),
            }
        }

        let mut isp_cells: Vec<(Isp, Range<usize>)> = Vec::new();
        let mut state_cells: Vec<(UsState, Vec<u32>)> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            match isp_cells.last_mut() {
                Some((isp, range)) if *isp == cell.isp => range.end = ci + 1,
                _ => isp_cells.push((cell.isp, ci..ci + 1)),
            }
            match state_cells.iter_mut().find(|(s, _)| *s == cell.state) {
                Some((_, ids)) => ids.push(ci as u32),
                None => state_cells.push((cell.state, vec![ci as u32])),
            }
        }
        state_cells.sort_by_key(|(state, _)| *state);
        caf_obs::count("caf.core.index.rows", rows.len() as u64);
        caf_obs::count("caf.core.index.cells", cells.len() as u64);
        caf_obs::gauge("caf.core.index.epoch", epoch);

        AuditIndex {
            n_rows: rows.len(),
            epoch,
            order,
            served,
            cells,
            isp_cells,
            state_cells,
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// The world epoch the indexed dataset was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Every cell, in `(isp, state, cbg)` order.
    pub fn cells(&self) -> &[CellMeta] {
        &self.cells
    }

    /// The contiguous cell slice of one ISP (empty if the ISP was not
    /// audited).
    pub fn cells_for(&self, isp: Isp) -> &[CellMeta] {
        caf_obs::count("caf.core.index.lookups", 1);
        self.isp_cells
            .iter()
            .find(|(i, _)| *i == isp)
            .map(|(_, range)| &self.cells[range.clone()])
            .unwrap_or(&[])
    }

    /// The audited ISPs, in order.
    pub fn isps(&self) -> impl Iterator<Item = Isp> + '_ {
        self.isp_cells.iter().map(|(isp, _)| *isp)
    }

    /// The states present, in order.
    pub fn states(&self) -> impl Iterator<Item = UsState> + '_ {
        self.state_cells.iter().map(|(state, _)| *state)
    }

    /// The cells of one state, in `(isp, cbg)` order. State cells are not
    /// contiguous (state nests under ISP in the sort), so this walks a
    /// precomputed id list rather than a slice.
    pub fn cells_for_state(&self, state: UsState) -> impl Iterator<Item = &CellMeta> + '_ {
        caf_obs::count("caf.core.index.lookups", 1);
        self.state_cells
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, ids)| ids.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&ci| &self.cells[ci as usize])
    }

    /// The dataset row ids of a cell, in sorted order. Resolve them
    /// against the dataset the index was built from:
    /// `&dataset.rows[id as usize]`.
    pub fn row_ids(&self, cell: &CellMeta) -> &[u32] {
        &self.order[cell.range.clone()]
    }

    /// The served column over sorted positions (the SoA layout's hot
    /// column: per-cell served counts are slices of it).
    pub fn served(&self) -> &[bool] {
        &self.served
    }

    /// Debug-asserts that `dataset` is the one the index was built from
    /// (by row count) — the index stores positions, not pointers, so
    /// pairing it with a different dataset would silently misattribute
    /// rows. Call at the top of any routine that takes both.
    pub fn check_dataset(&self, dataset: &AuditDataset) {
        debug_assert_eq!(dataset.rows.len(), self.n_rows, "index/dataset mismatch");
    }
}

/// A sort-based grouping of a slice: items bucketed by a key, each group
/// a contiguous range over a sorted permutation. Unlike HashMap
/// bucketing, group order is deterministic (ascending key) and items
/// within a group keep their original relative order.
#[derive(Debug)]
pub struct Grouped<K> {
    /// The sorted permutation: `order[pos]` is an index into the grouped
    /// slice.
    pub order: Vec<u32>,
    /// `(key, range-over-order)` per group, in ascending key order.
    pub groups: Vec<(K, Range<usize>)>,
}

impl<K> Grouped<K> {
    /// Iterates `(key, item-indices)` per group.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[u32])> {
        self.groups
            .iter()
            .map(move |(key, range)| (key, &self.order[range.clone()]))
    }
}

/// Groups a slice by a key function. The permutation is sorted by
/// `(key, original index)`, so both group order and within-group order
/// are total functions of the input — no HashMap iteration-order
/// nondeterminism.
pub fn group_ranges<T, K, F>(items: &[T], key: F) -> Grouped<K>
where
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut order: Vec<u32> = (0..items.len() as u32).collect();
    order.sort_unstable_by_key(|&i| (key(&items[i as usize]), i));
    let mut groups: Vec<(K, Range<usize>)> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let k = key(&items[i as usize]);
        match groups.last_mut() {
            Some((gk, range)) if *gk == k => range.end = pos + 1,
            _ => groups.push((k, pos..pos + 1)),
        }
    }
    Grouped { order, groups }
}

/// A binary-searchable `(address, ISP) → record position` view over a
/// query-record slice, in place of a `HashMap` per run. (The Q3
/// analysis classifies each block from its own records and needs none;
/// its oracle test rebuilds the stored-world path with this index.)
#[derive(Debug)]
pub struct RecordIndex {
    keys: Vec<(AddressId, Isp)>,
    pos: Vec<u32>,
}

impl RecordIndex {
    /// Builds the index over a record slice. If a `(address, ISP)` pair
    /// occurs more than once the earliest record wins, matching the
    /// first-definitive-outcome semantics of the audit loop.
    pub fn build(records: &[QueryRecord]) -> RecordIndex {
        let mut entries: Vec<((AddressId, Isp), u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| ((r.address, r.isp), i as u32))
            .collect();
        entries.sort_unstable();
        entries.dedup_by_key(|(key, _)| *key);
        let keys = entries.iter().map(|&(key, _)| key).collect();
        let pos = entries.iter().map(|&(_, p)| p).collect();
        RecordIndex { keys, pos }
    }

    /// Number of distinct `(address, ISP)` keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The position of the record for `(address, isp)` in the slice the
    /// index was built over.
    pub fn position(&self, address: AddressId, isp: Isp) -> Option<usize> {
        self.keys
            .binary_search(&(address, isp))
            .ok()
            .map(|i| self.pos[i] as usize)
    }

    /// Looks up the record for `(address, isp)` in the slice the index
    /// was built over.
    pub fn get<'r>(
        &self,
        records: &'r [QueryRecord],
        address: AddressId,
        isp: Isp,
    ) -> Option<&'r QueryRecord> {
        self.position(address, isp).map(|p| &records[p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditRow;
    use caf_geo::{CountyId, StateFips, TractId};
    use caf_synth::plans::PlanCatalog;

    fn cbg_in(state_fips: u16, tract: u32, group: u8) -> BlockGroupId {
        let state = StateFips::new(state_fips).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, tract).unwrap();
        BlockGroupId::new(tract, group).unwrap()
    }

    fn row(i: u64, isp: Isp, state: UsState, cbg: BlockGroupId, served: bool) -> AuditRow {
        let plan = served.then(|| {
            let cat = PlanCatalog::for_isp(isp);
            cat.plan_from_tier(cat.tier_near(50.0))
        });
        AuditRow {
            address: AddressId(i),
            isp,
            state,
            cbg,
            cbg_total: 40,
            density: 120.0,
            density_pct: 0.4,
            centroid: LatLon::new(40.0, -80.0).unwrap(),
            served,
            max_down_mbps: plan.as_ref().and_then(|p| p.download_mbps),
            plans: plan.iter().cloned().collect(),
            max_plan: plan,
            existing_subscriber: false,
        }
    }

    fn dataset() -> AuditDataset {
        let oh = cbg_in(39, 1, 1);
        let oh2 = cbg_in(39, 1, 2);
        let vt = cbg_in(50, 1, 1);
        AuditDataset {
            rows: vec![
                // Deliberately interleaved across ISPs, states, CBGs.
                row(1, Isp::Frontier, UsState::Ohio, oh, true),
                row(2, Isp::Att, UsState::Ohio, oh2, false),
                row(3, Isp::Consolidated, UsState::Vermont, vt, true),
                row(4, Isp::Frontier, UsState::Ohio, oh, false),
                row(5, Isp::Att, UsState::Ohio, oh, true),
                row(6, Isp::Consolidated, UsState::Vermont, vt, false),
                row(7, Isp::Frontier, UsState::Ohio, oh2, true),
            ],
            records: Vec::new(),
            coverage: Vec::new(),
        }
    }

    #[test]
    fn cells_are_sorted_and_contiguous() {
        let ds = dataset();
        let index = AuditIndex::build(&ds);
        assert_eq!(index.len(), 7);
        let keys: Vec<(Isp, BlockGroupId)> = index.cells().iter().map(|c| (c.isp, c.cbg)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted, "cells sorted by (isp, cbg), no duplicates");
        // Ranges tile the sorted row space without gaps.
        let mut next = 0usize;
        for cell in index.cells() {
            assert_eq!(cell.range.start, next);
            assert!(!cell.is_empty());
            next = cell.range.end;
        }
        assert_eq!(next, index.len());
    }

    #[test]
    fn cell_rows_and_served_counts_match_dataset() {
        let ds = dataset();
        let index = AuditIndex::build(&ds);
        for cell in index.cells() {
            let mut served = 0usize;
            for &i in index.row_ids(cell) {
                let r = &ds.rows[i as usize];
                assert_eq!((r.isp, r.cbg), (cell.isp, cell.cbg));
                assert_eq!(r.state, cell.state);
                served += usize::from(r.served);
            }
            assert_eq!(cell.served_rows, served);
            assert_eq!(cell.len(), index.row_ids(cell).len());
            // The SoA served column agrees with the rows.
            let col = &index.served()[cell.range.clone()];
            assert_eq!(col.iter().filter(|&&s| s).count(), served);
        }
    }

    #[test]
    fn per_isp_and_per_state_slices() {
        let ds = dataset();
        let index = AuditIndex::build(&ds);
        let isps: Vec<Isp> = index.isps().collect();
        assert_eq!(isps, vec![Isp::Att, Isp::Frontier, Isp::Consolidated]);
        // AT&T has two cells (two Ohio CBGs); Consolidated one.
        assert_eq!(index.cells_for(Isp::Att).len(), 2);
        assert_eq!(index.cells_for(Isp::Consolidated).len(), 1);
        assert!(index.cells_for(Isp::Xfinity).is_empty());
        for cell in index.cells_for(Isp::Frontier) {
            assert_eq!(cell.isp, Isp::Frontier);
        }
        let states: Vec<UsState> = index.states().collect();
        assert_eq!(states, vec![UsState::Ohio, UsState::Vermont]);
        assert_eq!(index.cells_for_state(UsState::Ohio).count(), 4);
        assert_eq!(index.cells_for_state(UsState::Vermont).count(), 1);
        assert_eq!(index.cells_for_state(UsState::Iowa).count(), 0);
        let total: usize = index
            .states()
            .map(|s| index.cells_for_state(s).count())
            .sum();
        assert_eq!(total, index.cells().len());
    }

    #[test]
    fn group_ranges_is_deterministic_and_order_preserving() {
        let items = vec![("b", 1), ("a", 2), ("b", 3), ("a", 4), ("c", 5)];
        let grouped = group_ranges(&items, |&(k, _)| k);
        let keys: Vec<&str> = grouped.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        let b_values: Vec<i32> = grouped
            .iter()
            .find(|(k, _)| **k == "b")
            .map(|(_, ids)| ids.iter().map(|&i| items[i as usize].1).collect())
            .unwrap();
        assert_eq!(b_values, vec![1, 3], "within-group order is input order");
        let empty = group_ranges(&[] as &[(&str, i32)], |&(k, _)| k);
        assert!(empty.groups.is_empty());
    }

    #[test]
    fn record_index_round_trips() {
        use caf_bqt::{Campaign, CampaignConfig, QueryTask};
        use caf_synth::{SynthConfig, World};
        let world = World::generate_states(
            SynthConfig {
                seed: 21,
                scale: 80,
            },
            &[UsState::Vermont],
        );
        let vt = world.state(UsState::Vermont).unwrap();
        let tasks: Vec<QueryTask> = vt
            .usac
            .records
            .iter()
            .take(200)
            .map(|r| QueryTask {
                address: r.address.id,
                isp: r.isp,
            })
            .collect();
        let result = Campaign::new(CampaignConfig {
            seed: 21,
            workers: 2,
            ..CampaignConfig::default()
        })
        .run(&world.truth, &tasks);
        let index = RecordIndex::build(&result.records);
        assert_eq!(index.len(), tasks.len());
        for (i, record) in result.records.iter().enumerate() {
            assert_eq!(index.position(record.address, record.isp), Some(i));
            let found = index
                .get(&result.records, record.address, record.isp)
                .unwrap();
            assert_eq!(found.address, record.address);
        }
        assert_eq!(index.position(AddressId(u64::MAX), Isp::Att), None);
    }
}
