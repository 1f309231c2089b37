//! The shared [`AuditIndex`] every analysis consumes.
//!
//! Before this module existed, each analysis stage — Q1 serviceability,
//! Q2 compliance, the program-rules scorer, the experienced-quality
//! join — independently rebuilt the same `HashMap<(Isp, BlockGroupId),
//! Vec<&AuditRow>>` grouping from a flat row vector. The audit dataset
//! now stores that grouping itself: one [`AuditCell`] per (ISP, CBG),
//! its metadata held once beside its rows. The index is the dataset's
//! cells with rows, as shared handles, in `(isp, state, cbg)` order, plus
//! per-ISP slices for filtered views. It sorts cells, not rows.
//!
//! Two ordering facts make the index drop-in compatible with the HashMap
//! path it replaced (the equivalence tests in `tests/prop_index.rs` pin
//! this down bit-for-bit):
//!
//! * [`BlockGroupId`](caf_geo::BlockGroupId) GEOIDs embed the state
//!   FIPS code in their leading digits and [`UsState`] enumerates in
//!   FIPS order, so sorting by `(isp, cbg)` *is* sorting by
//!   `(isp, state, cbg)` — cell order matches the
//!   `sort_by_key(|r| (r.isp, r.cbg))` the analyses used.
//! * Within a cell, rows are in resample-round order: the order a stable
//!   sort of the round-major rows by `(isp, cbg)` kept them in.
//!
//! The module also hosts the two smaller grouping primitives the rest of
//! the pipeline shares: [`group_ranges`], a sort-based replacement for
//! ad-hoc HashMap bucketing with deterministic group order, and
//! [`RecordIndex`], a binary-searchable `(address, ISP) → QueryRecord`
//! view over a campaign's records, in place of a per-run map.

use caf_bqt::QueryRecord;
use caf_geo::{AddressId, UsState};
use caf_synth::Isp;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use crate::audit::{AuditCell, AuditDataset};

/// The audit dataset indexed for analysis: its cells with rows, sorted
/// by `(isp, state, cbg)`, with per-ISP slices. Built once per dataset
/// and shared by every analysis. The index holds the cells themselves
/// (shared with the dataset), so it is read on its own.
#[derive(Debug)]
pub struct AuditIndex {
    n_rows: usize,
    /// The world epoch the indexed dataset was computed at (0 for a
    /// pristine, pre-challenge world).
    epoch: u64,
    /// Cells with rows, in `(isp, state, cbg)` order.
    cells: Vec<Arc<AuditCell>>,
    /// Per-ISP contiguous cell ranges, in ISP order.
    isp_cells: Vec<(Isp, Range<usize>)>,
}

impl AuditIndex {
    /// Builds the index from an audit dataset at epoch 0 (a pristine,
    /// pre-challenge world). Use [`AuditIndex::build_at`] when the
    /// dataset reflects applied challenge deltas.
    pub fn build(dataset: &AuditDataset) -> AuditIndex {
        Self::build_at(dataset, 0)
    }

    /// Builds the index from an audit dataset computed at `epoch`. The
    /// epoch is identity metadata: it changes nothing about the cells,
    /// but rides along so downstream artifact envelopes (and cache keys)
    /// can distinguish pre- from post-challenge views.
    pub fn build_at(dataset: &AuditDataset, epoch: u64) -> AuditIndex {
        let _span = caf_obs::span("index.build");
        caf_obs::count("caf.core.index.builds", 1);
        let mut cells: Vec<Arc<AuditCell>> = dataset
            .cells()
            .filter(|cell| !cell.is_empty())
            .cloned()
            .collect();
        // Each state's cells are already in (isp, cbg) order; the stable
        // sort interleaves the states' runs.
        cells.sort_by_key(|cell| (cell.meta.isp, cell.meta.cbg));

        let mut isp_cells: Vec<(Isp, Range<usize>)> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            match isp_cells.last_mut() {
                Some((isp, range)) if *isp == cell.meta.isp => range.end = ci + 1,
                _ => isp_cells.push((cell.meta.isp, ci..ci + 1)),
            }
        }
        let n_rows = cells.iter().map(|cell| cell.len()).sum();
        caf_obs::count("caf.core.index.rows", n_rows as u64);
        caf_obs::count("caf.core.index.cells", cells.len() as u64);
        caf_obs::gauge("caf.core.index.epoch", epoch);

        AuditIndex {
            n_rows,
            epoch,
            cells,
            isp_cells,
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
    pub fn cells(&self) -> &[Arc<AuditCell>] {
        &self.cells
    }

    /// The contiguous cell slice of one ISP (empty if the ISP was not
    /// audited).
    pub fn cells_for(&self, isp: Isp) -> &[Arc<AuditCell>] {
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
    pub fn states(&self) -> impl Iterator<Item = UsState> {
        let states: BTreeSet<UsState> = self.cells.iter().map(|cell| cell.meta.state).collect();
        states.into_iter()
    }

    /// The cells of one state, in `(isp, cbg)` order (state nests under
    /// ISP in the sort, so they are not contiguous).
    pub fn cells_for_state(&self, state: UsState) -> impl Iterator<Item = &AuditCell> + '_ {
        caf_obs::count("caf.core.index.lookups", 1);
        self.cells
            .iter()
            .filter(move |cell| cell.meta.state == state)
            .map(|cell| &**cell)
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
    use crate::audit::{AuditRow, CellMeta};
    use caf_geo::{BlockGroupId, CountyId, LatLon, StateFips, TractId};
    use caf_synth::plans::PlanCatalog;

    fn cbg_in(state_fips: u16, tract: u32, group: u8) -> BlockGroupId {
        let state = StateFips::new(state_fips).unwrap();
        let county = CountyId::new(state, 1).unwrap();
        let tract = TractId::new(county, tract).unwrap();
        BlockGroupId::new(tract, group).unwrap()
    }

    fn row(
        i: u64,
        isp: Isp,
        state: UsState,
        cbg: BlockGroupId,
        served: bool,
    ) -> (CellMeta, AuditRow) {
        let plan = served.then(|| {
            let cat = PlanCatalog::for_isp(isp);
            cat.plan_from_tier(cat.tier_near(50.0))
        });
        let meta = CellMeta {
            isp,
            state,
            cbg,
            weight: 40.0,
            density: 120.0,
            density_pct: 0.4,
            centroid: LatLon::new(40.0, -80.0).unwrap(),
        };
        let row = AuditRow {
            address: AddressId(i),
            served,
            max_down_mbps: plan.as_ref().and_then(|p| p.download_mbps),
            plans: plan.into_iter().collect(),
            existing_subscriber: false,
        };
        (meta, row)
    }

    fn dataset() -> AuditDataset {
        let oh = cbg_in(39, 1, 1);
        let oh2 = cbg_in(39, 1, 2);
        let vt = cbg_in(50, 1, 1);
        AuditDataset::from_rows(vec![
            // Deliberately interleaved across ISPs, states, CBGs.
            row(1, Isp::Frontier, UsState::Ohio, oh, true),
            row(2, Isp::Att, UsState::Ohio, oh2, false),
            row(3, Isp::Consolidated, UsState::Vermont, vt, true),
            row(4, Isp::Frontier, UsState::Ohio, oh, false),
            row(5, Isp::Att, UsState::Ohio, oh, true),
            row(6, Isp::Consolidated, UsState::Vermont, vt, false),
            row(7, Isp::Frontier, UsState::Ohio, oh2, true),
        ])
    }

    #[test]
    fn cells_are_sorted_and_contiguous() {
        let ds = dataset();
        let index = AuditIndex::build(&ds);
        assert_eq!(index.len(), 7);
        let keys: Vec<(Isp, BlockGroupId)> = index
            .cells()
            .iter()
            .map(|c| (c.meta.isp, c.meta.cbg))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted, "cells sorted by (isp, cbg), no duplicates");
        // The cells' rows add up to the dataset's, and no cell is empty.
        for cell in index.cells() {
            assert!(!cell.is_empty());
        }
        let total: usize = index.cells().iter().map(|c| c.len()).sum();
        assert_eq!(total, index.len());
        assert_eq!(total, ds.row_count());
    }

    #[test]
    fn cell_rows_and_served_counts_match_dataset() {
        let ds = dataset();
        let index = AuditIndex::build(&ds);
        for cell in index.cells() {
            // The cell's rows are the dataset's rows of its (ISP, CBG),
            // in the dataset's order.
            let want: Vec<AddressId> = ds
                .rows()
                .filter(|(m, _)| (m.isp, m.cbg) == (cell.meta.isp, cell.meta.cbg))
                .map(|(m, r)| {
                    assert_eq!(m.state, cell.meta.state);
                    r.address
                })
                .collect();
            let got: Vec<AddressId> = cell.rows().iter().map(|r| r.address).collect();
            assert_eq!(got, want);
            let served = cell.rows().iter().filter(|r| r.served).count();
            assert_eq!(cell.served_rows(), served);
            assert_eq!(cell.len(), cell.rows().len());
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
            assert_eq!(cell.meta.isp, Isp::Frontier);
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
