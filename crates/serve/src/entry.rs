//! Scenario-cache entries: rendered artifact bodies, and the one byte
//! form the disk tier and the snapshot `VIEWS` section persist them in.
//!
//! An entry holds every body its routes can return, rendered once per
//! build at envelope depth ([`artifact::render_body`]): a Q1/Q2 entry
//! holds 13 (`table2`, then `serviceability` and `compliance` in each of
//! their six `isp=` forms), a Q3 world or a sweep cell one. A read picks
//! its body with [`body_index`] and only wraps it in the request's
//! scenario block. Persisting the bodies themselves makes a disk-tier
//! promotion or a snapshot restore byte-identical by construction: the
//! served bytes are the bytes the build rendered.

use crate::cache::SpillHook;
use crate::tier::DiskTier;
use caf_core::{artifact, AuditDataset, ComplianceAnalysis, ServiceabilityAnalysis};
use caf_obs::json::Json;
use caf_snap::{Reader, SnapError, Writer};
use caf_synth::Isp;
use std::sync::Arc;

/// Which pipeline a cache entry materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// The Q1/Q2 fixture: world + campaign + serviceability/compliance.
    Q12,
    /// The Q3 monopoly/competitive analysis (its own world build).
    Q3,
    /// One policy-sweep grid cell (its own single-state world; the
    /// key's `seed` field carries the cell's content hash).
    Sweep,
}

impl Kind {
    /// The kind's tag in the snapshot `VIEWS` section.
    fn tag(self) -> u8 {
        match self {
            Kind::Q12 => 0,
            Kind::Q3 => 1,
            Kind::Sweep => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Kind, SnapError> {
        match tag {
            0 => Ok(Kind::Q12),
            1 => Ok(Kind::Q3),
            2 => Ok(Kind::Sweep),
            other => Err(SnapError::Malformed(format!(
                "views: unknown kind tag {other}"
            ))),
        }
    }

    /// How many bodies an entry of this kind holds.
    pub fn bodies(self) -> usize {
        match self {
            Kind::Q12 => Q12_BODIES,
            Kind::Q3 | Kind::Sweep => 1,
        }
    }
}

/// Canonical scenario identity: result-changing parameters only. The
/// challenge epoch is identity — the same `(seed, scale)` before and
/// after a correction batch are different results — which is exactly
/// what lets pre- and post-challenge entries coexist in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioKey {
    /// The pipeline.
    pub kind: Kind,
    /// The run seed (a sweep cell's content hash for [`Kind::Sweep`]).
    pub seed: u64,
    /// The world scale (`q3_scale` for [`Kind::Q3`]).
    pub scale: u32,
    /// The challenge epoch (always 0 outside [`Kind::Q12`]).
    pub epoch: u64,
}

/// Filter forms of `serviceability` and `compliance`; see [`isp_form`].
const ISP_FORMS: usize = 6;
/// Bodies a Q1/Q2 entry holds: `table2`, then `serviceability` and
/// `compliance` in each of their [`ISP_FORMS`] filter forms.
const Q12_BODIES: usize = 1 + 2 * ISP_FORMS;

/// The filter form an `isp=` value selects: 0 unfiltered, 1–4 the
/// audited ISPs, 5 any other ISP. A filter on an ISP the audit does not
/// cover renders an empty `"isps"` section whichever ISP it names, so
/// one form serves them all.
fn isp_form(isp: Option<Isp>) -> usize {
    let audited = Isp::audited();
    match isp {
        None => 0,
        Some(isp) => {
            1 + audited
                .iter()
                .position(|&a| a == isp)
                .unwrap_or(audited.len())
        }
    }
}

/// The filter each form renders with: the inverse of [`isp_form`].
fn form_filters() -> [Option<Isp>; ISP_FORMS] {
    let [a, b, c, d] = Isp::audited();
    [
        None,
        Some(a),
        Some(b),
        Some(c),
        Some(d),
        Some(Isp::Windstream),
    ]
}

/// Where the body of `route` under filter `isp` sits in its entry.
pub fn body_index(route: &str, isp: Option<Isp>) -> usize {
    match route {
        "serviceability" => 1 + isp_form(isp),
        "compliance" => 1 + ISP_FORMS + isp_form(isp),
        _ => 0,
    }
}

/// A cache entry: the canonical artifact bodies of one scenario,
/// rendered at envelope depth.
pub struct Bundle {
    bodies: Vec<String>,
}

impl Bundle {
    /// Renders every body a Q1/Q2 route can return (see [`body_index`]).
    pub fn q12(
        dataset: &AuditDataset,
        serviceability: &ServiceabilityAnalysis,
        compliance: &ComplianceAnalysis,
    ) -> Bundle {
        let _span = caf_obs::span("render");
        let filters = form_filters();
        let mut bodies = Vec::with_capacity(Q12_BODIES);
        bodies.push(artifact::table2(dataset));
        bodies.extend(
            filters
                .iter()
                .map(|&isp| artifact::serviceability(serviceability, isp)),
        );
        let price = compliance.price_compliance(dataset);
        bodies.extend(
            filters
                .iter()
                .map(|&isp| artifact::compliance_with_price(compliance, price, isp)),
        );
        Bundle {
            bodies: bodies.iter().map(artifact::render_body).collect(),
        }
    }

    /// An entry with a single body (Q3, a sweep cell).
    pub fn one(body: &Json) -> Bundle {
        let _span = caf_obs::span("render");
        Bundle {
            bodies: vec![artifact::render_body(body)],
        }
    }

    /// The rendered bodies, in [`body_index`] order.
    pub fn bodies(&self) -> &[String] {
        &self.bodies
    }

    /// Serializes the bodies for the disk tier / snapshot `VIEWS`
    /// section: a count, then each body as a length-prefixed string.
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.bodies.len() as u32);
        for body in &self.bodies {
            w.put_str(body);
        }
    }

    /// Decodes an entry of `kind`, which fixes its body count. Every
    /// allocation is bounded by the input: the count is checked first
    /// and each body is a length-prefixed slice of it.
    fn decode(kind: Kind, r: &mut Reader<'_>) -> Result<Bundle, SnapError> {
        let count = r.u32()? as usize;
        if count != kind.bodies() {
            return Err(SnapError::Malformed(format!(
                "{kind:?} entry holds {count} bodies, expected {}",
                kind.bodies()
            )));
        }
        let mut bodies = Vec::with_capacity(count);
        for _ in 0..count {
            bodies.push(r.str()?);
        }
        Ok(Bundle { bodies })
    }
}

/// Writes the `VIEWS` section: a counted sequence of
/// `(kind, seed, scale, epoch, bodies)` cache entries.
pub fn put_views(w: &mut Writer, views: &[(ScenarioKey, Arc<Bundle>)]) {
    w.put_u32(views.len() as u32);
    for (key, bundle) in views {
        w.put_u8(key.kind.tag());
        w.put_u64(key.seed);
        w.put_u32(key.scale);
        w.put_u64(key.epoch);
        bundle.encode(w);
    }
}

/// Decodes a `VIEWS` section written by [`put_views`]. Malformed input
/// is a typed error, never a panic, and no allocation exceeds the
/// input: the entry count is checked against the remaining bytes before
/// anything is reserved.
pub fn decode_views(bytes: &[u8]) -> Result<Vec<(ScenarioKey, Bundle)>, SnapError> {
    // The smallest entry: kind, seed, scale, epoch, body count, and one
    // body's length prefix.
    const VIEW_FRAME_BYTES: usize = 1 + 8 + 4 + 8 + 4 + 8;
    let mut r = Reader::new(bytes);
    let count = r.u32()?;
    let count = r.check_count(count.into(), VIEW_FRAME_BYTES)?;
    let mut views = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = Kind::from_tag(r.u8()?)?;
        let key = ScenarioKey {
            kind,
            seed: r.u64()?,
            scale: r.u32()?,
            epoch: r.u64()?,
        };
        views.push((key, Bundle::decode(kind, &mut r)?));
    }
    r.finish()?;
    Ok(views)
}

/// Bridges cache evictions into the [`DiskTier`]: spilled entries are
/// serialized with [`Bundle::encode`] under a key that carries the full
/// scenario identity, and loads re-validate that identity against the
/// tier file's header before decoding.
pub(crate) struct TierSpill {
    pub(crate) tier: Arc<DiskTier>,
}

/// The tier file key for a scenario: kind, seed, scale, epoch — the
/// same identity the cache keys on, so a promoted entry is exactly the
/// entry that was evicted.
fn tier_key(key: &ScenarioKey) -> String {
    let kind = match key.kind {
        Kind::Q12 => "q12",
        Kind::Q3 => "q3",
        Kind::Sweep => "sweep",
    };
    format!("{kind}-{:016x}-{}-{}", key.seed, key.scale, key.epoch)
}

impl SpillHook<ScenarioKey, Bundle> for TierSpill {
    fn spill(&self, key: &ScenarioKey, bundle: &Bundle) {
        let _span = caf_obs::span("snap.tier.spill");
        let mut payload = Writer::new();
        bundle.encode(&mut payload);
        self.tier.put(
            &tier_key(key),
            key.seed,
            key.scale,
            key.epoch,
            &payload.into_bytes(),
        );
    }

    fn load(&self, key: &ScenarioKey) -> Option<Bundle> {
        let _span = caf_obs::span("snap.tier.load");
        self.tier
            .load(&tier_key(key), key.seed, key.scale, key.epoch, |payload| {
                let mut r = Reader::new(payload);
                let bundle = Bundle::decode(key.kind, &mut r).ok()?;
                r.finish().ok()?;
                Some(bundle)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_isp_filter_has_a_form_and_forms_round_trip() {
        let filters = form_filters();
        for (form, &isp) in filters.iter().enumerate() {
            assert_eq!(isp_form(isp), form);
        }
        let mut indexes: Vec<usize> = ["serviceability", "compliance"]
            .into_iter()
            .flat_map(|route| filters.map(|isp| body_index(route, isp)))
            .chain([body_index("table2", None)])
            .collect();
        indexes.sort_unstable();
        assert_eq!(indexes, (0..Q12_BODIES).collect::<Vec<_>>());
        // Every non-audited ISP shares the last form.
        for isp in Isp::all() {
            let form = isp_form(Some(isp));
            assert_eq!(form == ISP_FORMS - 1, !Isp::audited().contains(&isp));
        }
    }

    #[test]
    fn views_round_trip_and_reject_wrong_body_counts() {
        let key = |kind| ScenarioKey {
            kind,
            seed: 9,
            scale: 150,
            epoch: 2,
        };
        let q12 = Bundle {
            bodies: (0..Q12_BODIES).map(|i| format!("{{\"i\": {i}}}")).collect(),
        };
        let q3 = Bundle::one(&Json::Obj(Vec::new()));
        let views = vec![
            (key(Kind::Q12), Arc::new(q12)),
            (key(Kind::Q3), Arc::new(q3)),
        ];
        let mut w = Writer::new();
        put_views(&mut w, &views);
        let bytes = w.into_bytes();
        let decoded = decode_views(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        for ((key, bundle), (want_key, want)) in decoded.iter().zip(&views) {
            assert_eq!(key, want_key);
            assert_eq!(bundle.bodies(), want.bodies());
        }

        // The same bodies under a kind that holds a different number.
        let mut w = Writer::new();
        put_views(&mut w, &[(key(Kind::Sweep), Arc::clone(&views[0].1))]);
        assert!(matches!(
            decode_views(&w.into_bytes()),
            Err(SnapError::Malformed(_))
        ));
    }
}
