//! Stable JSON artifacts for query-serving and golden-file gates.
//!
//! The repro harness historically exited through human-readable tables;
//! a *serving* layer needs machine-readable results whose bytes are a
//! pure function of the scenario. This module renders the four
//! queryable analyses — serviceability (Q1), compliance (Q2), the Q3
//! monopoly comparison, and the Table-2 traceback error matrix — as
//! [`Json`] trees with **sorted object keys** and deterministic float
//! formatting (Rust's shortest-round-trip `Display`).
//!
//! Both producers share these functions byte-for-byte:
//!
//! * `repro --artifacts DIR` writes `<experiment>.json` golden files;
//! * `caf-serve` returns the same bytes over HTTP.
//!
//! That extends the engine's determinism contract across the network
//! boundary: for a fixed [`ScenarioMeta`], an HTTP response at any
//! server or engine worker count is byte-identical to the repro golden
//! (`ci.sh`'s serve gate diffs the two).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use caf_obs::json::Json;
use caf_synth::params::ErrorCategory;
use caf_synth::Isp;

use crate::audit::AuditDataset;
use crate::compliance::ComplianceAnalysis;
use crate::q3::Q3Analysis;
use crate::report::Table2;
use crate::serviceability::ServiceabilityAnalysis;

/// The scenario identity an artifact was computed under. Everything that
/// can change result *bytes* is here; knobs that only move wall-clock
/// (worker counts, shard policy) are deliberately absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioMeta {
    /// The run seed.
    pub seed: u64,
    /// The Q1/Q2 world scale (1:`scale`).
    pub scale: u32,
    /// The Q3 world scale.
    pub q3_scale: u32,
    /// The challenge epoch the world was audited at (0 = pristine,
    /// pre-challenge). Epochs change result bytes — a corrected cell
    /// yields different rows — so the epoch is scenario identity.
    pub epoch: u64,
}

impl ScenarioMeta {
    /// The `repro` defaults for a given seed/scale (`q3_scale` follows
    /// `repro --scale`'s `scale.max(8)` derivation), at epoch 0.
    pub fn new(seed: u64, scale: u32) -> ScenarioMeta {
        ScenarioMeta {
            seed,
            scale,
            q3_scale: scale.max(8),
            epoch: 0,
        }
    }

    /// The same scenario viewed at a later challenge epoch.
    pub fn at_epoch(self, epoch: u64) -> ScenarioMeta {
        ScenarioMeta { epoch, ..self }
    }

    /// Wraps an artifact body in the canonical envelope:
    /// `{"artifact": <body>,
    ///   "scenario": {"epoch", "q3_scale", "scale", "seed"}}`.
    pub fn wrap(&self, body: Json) -> Json {
        Json::Obj(vec![
            ("artifact".to_string(), body),
            (
                "scenario".to_string(),
                Json::Obj(vec![
                    ("epoch".to_string(), Json::UInt(self.epoch)),
                    ("q3_scale".to_string(), Json::UInt(u64::from(self.q3_scale))),
                    ("scale".to_string(), Json::UInt(u64::from(self.scale))),
                    ("seed".to_string(), Json::UInt(self.seed)),
                ]),
            ),
        ])
    }
}

/// Renders a wrapped artifact to its canonical byte form: pretty-printed
/// JSON plus a trailing newline. This exact string is what `repro
/// --artifacts` writes and what `caf-serve` returns.
pub fn to_canonical_bytes(wrapped: &Json) -> String {
    let mut out = wrapped.to_pretty();
    out.push('\n');
    out
}

/// Renders an artifact body at envelope depth: the text [`envelope`]
/// splices in as the `"artifact"` member.
pub fn render_body(body: &Json) -> String {
    body.to_pretty_at(1)
}

/// Assembles canonical bytes around a body pre-rendered by
/// [`render_body`]: `envelope(&meta, &render_body(&body))` equals
/// `to_canonical_bytes(&meta.wrap(body))` for every meta and body. Only
/// the `"scenario"` block is written here, so a server can render a
/// body once and serve it under any meta (`q3_scale`, epoch) for the
/// cost of a copy.
pub fn envelope(meta: &ScenarioMeta, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 160);
    out.push_str("{\n  \"artifact\": ");
    out.push_str(body);
    let _ = write!(
        out,
        ",\n  \"scenario\": {{\n    \"epoch\": {},\n    \"q3_scale\": {},\n    \
         \"scale\": {},\n    \"seed\": {}\n  }}\n}}\n",
        meta.epoch, meta.q3_scale, meta.scale, meta.seed
    );
    out
}

fn num(value: f64) -> Json {
    Json::Num(value)
}

/// The audited ISPs in name-sorted order (stable artifact key order).
fn isps_sorted(filter: Option<Isp>) -> Vec<Isp> {
    let mut isps: Vec<Isp> = Isp::audited()
        .into_iter()
        .filter(|isp| filter.is_none() || filter == Some(*isp))
        .collect();
    isps.sort_by_key(|isp| isp.name());
    isps
}

/// The Q1 serviceability artifact: per-ISP weighted rates and CBG-rate
/// distributions, per-state weighted rates, and the overall weighted
/// rate. `isp` restricts the `"isps"` section (the `?isp=` query
/// parameter); the overall rate and state rows always cover the full
/// analysis so a filtered response stays comparable to the headline.
pub fn serviceability(analysis: &ServiceabilityAnalysis, isp: Option<Isp>) -> Json {
    let isp_entries: Vec<(String, Json)> = isps_sorted(isp)
        .into_iter()
        .filter_map(|isp| {
            let rate = analysis.rate_for_isp(isp)?;
            let d = analysis.distribution_for_isp(isp)?;
            Some((
                isp.name().to_string(),
                Json::Obj(vec![
                    (
                        "distribution".to_string(),
                        Json::Obj(vec![
                            ("max".to_string(), num(d.max)),
                            ("median".to_string(), num(d.median)),
                            ("min".to_string(), num(d.min)),
                            ("q1".to_string(), num(d.q1)),
                            ("q3".to_string(), num(d.q3)),
                        ]),
                    ),
                    ("rate".to_string(), num(rate)),
                ]),
            ))
        })
        .collect();
    // States present in the analysis, key-sorted by abbreviation.
    let mut state_rates: BTreeMap<&'static str, f64> = BTreeMap::new();
    for row in &analysis.cbg_rates {
        if let Some(rate) = analysis.rate_for_state(row.state) {
            state_rates.entry(row.state.abbrev()).or_insert(rate);
        }
    }
    Json::Obj(vec![
        (
            "cbgs".to_string(),
            Json::UInt(analysis.cbg_rates.len() as u64),
        ),
        (
            "experiment".to_string(),
            Json::Str("serviceability".to_string()),
        ),
        ("isps".to_string(), Json::Obj(isp_entries)),
        ("overall_rate".to_string(), num(analysis.overall_rate())),
        (
            "states".to_string(),
            Json::Obj(
                state_rates
                    .into_iter()
                    .map(|(abbrev, rate)| (abbrev.to_string(), num(rate)))
                    .collect(),
            ),
        ),
    ])
}

/// The Q2 compliance artifact: per-ISP weighted compliance rates and
/// Table-1 advertised speed-band percentages, the §4.2 price-compliance
/// stats, and the overall weighted rate. `isp` restricts the per-ISP
/// sections, mirroring [`serviceability`].
pub fn compliance(analysis: &ComplianceAnalysis, dataset: &AuditDataset, isp: Option<Isp>) -> Json {
    compliance_with_price(analysis, analysis.price_compliance(dataset), isp)
}

/// [`compliance`] with the price stats already computed
/// ([`ComplianceAnalysis::price_compliance`], a scan of every dataset
/// row): a caller rendering several `isp` forms of one analysis scans
/// the rows once.
pub fn compliance_with_price(
    analysis: &ComplianceAnalysis,
    (price_fraction, price_range): (f64, Option<(f64, f64)>),
    isp: Option<Isp>,
) -> Json {
    let band_entries: Vec<(String, Json)> = isps_sorted(isp)
        .into_iter()
        .filter(|&isp| !analysis.advertised_band_percentages(isp).is_empty())
        .map(|isp| {
            let mut bands: Vec<(String, f64)> = analysis
                .advertised_band_percentages(isp)
                .into_iter()
                .map(|(band, pct)| (band.label().to_string(), pct))
                .collect();
            bands.sort_by(|a, b| a.0.cmp(&b.0));
            (
                isp.name().to_string(),
                Json::Obj(bands.into_iter().map(|(k, v)| (k, num(v))).collect()),
            )
        })
        .collect();
    let isp_entries: Vec<(String, Json)> = isps_sorted(isp)
        .into_iter()
        .filter_map(|isp| {
            let rate = analysis.rate_for_isp(isp)?;
            Some((
                isp.name().to_string(),
                Json::Obj(vec![("rate".to_string(), num(rate))]),
            ))
        })
        .collect();
    let mut price = vec![("fraction".to_string(), num(price_fraction))];
    if let Some((lo, hi)) = price_range {
        price.push(("max".to_string(), num(hi)));
        price.push(("min".to_string(), num(lo)));
    }
    Json::Obj(vec![
        ("bands".to_string(), Json::Obj(band_entries)),
        (
            "cbgs".to_string(),
            Json::UInt(analysis.cbg_rates.len() as u64),
        ),
        (
            "experiment".to_string(),
            Json::Str("compliance".to_string()),
        ),
        ("isps".to_string(), Json::Obj(isp_entries)),
        ("overall_rate".to_string(), num(analysis.overall_rate())),
        ("price".to_string(), Json::Obj(price)),
    ])
}

fn outcome_split(split: Option<[f64; 3]>) -> Json {
    match split {
        Some([better, tie, worse]) => Json::Obj(vec![
            ("caf_better".to_string(), num(better)),
            ("other_better".to_string(), num(worse)),
            ("tie".to_string(), num(tie)),
        ]),
        None => Json::Null,
    }
}

/// The Q3 artifact: [`Q3Analysis::summary`]'s query accounting, Type-A
/// and Type-B outcome splits and Type-A uplift quantiles.
pub fn q3(analysis: &Q3Analysis) -> Json {
    let summary = analysis.summary();
    let count = |n: usize| Json::UInt(n as u64);
    let uplift = match summary.uplift {
        Some(uplift) => Json::Obj(vec![
            ("median_pct".to_string(), num(uplift.median)),
            ("n".to_string(), count(uplift.n)),
            ("p80_pct".to_string(), num(uplift.p80)),
        ]),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("blocks".to_string(), count(summary.blocks)),
        ("blocks_dropped".to_string(), count(summary.blocks_dropped)),
        ("caf_queried".to_string(), count(summary.caf_queried)),
        ("caf_served".to_string(), count(summary.caf_served)),
        ("experiment".to_string(), Json::Str("q3".to_string())),
        (
            "non_caf_queried".to_string(),
            count(summary.non_caf_queried),
        ),
        ("non_caf_served".to_string(), count(summary.non_caf_served)),
        ("type_a".to_string(), outcome_split(summary.type_a)),
        ("type_b".to_string(), outcome_split(summary.type_b)),
        ("uplift".to_string(), uplift),
    ])
}

/// The Table-2 artifact: [`Table2`]'s traceback error-event counts per
/// ISP per error category (the serve gate's byte-diff target — small,
/// fully integer, and exercised by the cheapest experiment the fixture
/// supports).
pub fn table2(dataset: &AuditDataset) -> Json {
    let mut rows = Table2::count(dataset).rows;
    rows.sort_by_key(|row| row.isp.name());
    let mut columns: Vec<(usize, ErrorCategory)> =
        ErrorCategory::all().into_iter().enumerate().collect();
    columns.sort_by_key(|(_, category)| category.label());
    let isp_entries: Vec<(String, Json)> = rows
        .iter()
        .map(|row| {
            let errors = columns
                .iter()
                .map(|&(column, category)| {
                    (category.label().to_string(), Json::UInt(row.counts[column]))
                })
                .collect();
            (
                row.isp.name().to_string(),
                Json::Obj(vec![
                    ("errors".to_string(), Json::Obj(errors)),
                    ("total".to_string(), Json::UInt(row.total)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("experiment".to_string(), Json::Str("table2".to_string())),
        ("isps".to_string(), Json::Obj(isp_entries)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_keys(value: &Json, path: &str) {
        if let Json::Obj(entries) = value {
            for pair in entries.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "{path}: {:?} before {:?}",
                    pair[0].0,
                    pair[1].0
                );
            }
            for (key, child) in entries {
                assert_sorted_keys(child, &format!("{path}.{key}"));
            }
        }
        if let Json::Arr(items) = value {
            for (i, item) in items.iter().enumerate() {
                assert_sorted_keys(item, &format!("{path}[{i}]"));
            }
        }
    }

    #[test]
    fn envelope_equals_wrap_for_random_metas() {
        use caf_exec::prop;
        let bodies = [
            Json::Obj(Vec::new()),
            Json::Null,
            Json::Obj(vec![
                ("experiment".to_string(), Json::Str("x\"y".to_string())),
                (
                    "isps".to_string(),
                    Json::Obj(vec![(
                        "AT&T".to_string(),
                        Json::Arr(vec![Json::Num(0.25), Json::UInt(3), Json::Arr(Vec::new())]),
                    )]),
                ),
            ]),
        ];
        let metas = (0..=u64::MAX, 0..=u32::MAX, 0..=u32::MAX, 0..=u64::MAX);
        prop::check(
            256,
            (metas, prop::select(bodies.to_vec())),
            |((seed, scale, q3_scale, epoch), body)| {
                let meta = ScenarioMeta {
                    seed,
                    scale,
                    q3_scale,
                    epoch,
                };
                assert_eq!(
                    envelope(&meta, &render_body(&body)),
                    to_canonical_bytes(&meta.wrap(body))
                );
            },
        );
    }

    #[test]
    fn scenario_meta_derives_q3_scale_like_repro() {
        assert_eq!(ScenarioMeta::new(1, 30).q3_scale, 30);
        assert_eq!(ScenarioMeta::new(1, 3).q3_scale, 8);
    }

    #[test]
    fn envelope_and_artifacts_have_sorted_keys_everywhere() {
        let dataset = crate::Audit::new(crate::AuditConfig {
            synth: caf_synth::SynthConfig {
                seed: 7,
                scale: 200,
            },
            campaign: caf_bqt::CampaignConfig {
                seed: 7,
                ..caf_bqt::CampaignConfig::default()
            },
            rule: crate::SamplingRule::paper(),
            resample_rounds: 1,
        })
        .run(&caf_synth::World::generate_states(
            caf_synth::SynthConfig {
                seed: 7,
                scale: 200,
            },
            &[caf_geo::UsState::Vermont],
        ));
        let index = crate::AuditIndex::build(&dataset);
        let s = ServiceabilityAnalysis::from_index(&index);
        let c = ComplianceAnalysis::from_index(&dataset, &index);
        let meta = ScenarioMeta::new(7, 200);
        for body in [
            serviceability(&s, None),
            serviceability(&s, Some(Isp::Consolidated)),
            compliance(&c, &dataset, None),
            table2(&dataset),
        ] {
            let wrapped = meta.wrap(body);
            assert_sorted_keys(&wrapped, "root");
            // Canonical bytes parse back to the same tree.
            let bytes = to_canonical_bytes(&wrapped);
            assert!(bytes.ends_with('\n'));
            let reparsed = caf_obs::json::parse(bytes.trim_end()).expect("canonical bytes parse");
            assert_sorted_keys(&reparsed, "reparsed");
        }
    }

    #[test]
    fn isp_filter_restricts_the_isps_section() {
        let entries = isps_sorted(Some(Isp::Att));
        assert_eq!(entries, vec![Isp::Att]);
        assert_eq!(isps_sorted(None).len(), Isp::audited().len());
    }
}
