//! Challenge-process corrections to the availability map.
//!
//! The FCC's Broadband Data Collection runs a continuous *challenge*
//! process: crowd corrections mutate per-CBG availability claims after
//! the map is first published. This module is the synthetic equivalent:
//! a [`ChallengeDelta`] corrects one (state, CBG, ISP) cell — either the
//! latent serviceability rate (a *truth* correction) or the certified
//! tier (a *claim* correction) — and [`crate::World::apply_deltas`]
//! folds a batch of deltas into an existing world by rebuilding only the
//! touched CBGs' truth cells through the same `q1_cells` seam generation
//! uses, and handing each touched state's CAF-Map records a recipe that
//! carries its certified-tier corrections.
//!
//! ## Convergence contract
//!
//! Applying the same deltas in different batch splits must converge to
//! byte-identical worlds. Three rules make that hold:
//!
//! 1. **Content-addressed corrections.** A correction's effect is a pure
//!    function of `(seed, cell, correction value)` — never of the state
//!    the world was in when it arrived. Rebuilds always start from the
//!    seed baseline and overlay the *effective* correction.
//! 2. **Last-writer-wins merging.** A [`ChallengeSet`] keeps one
//!    effective value per (cell, correction kind); re-applying or
//!    overwriting is idempotent.
//! 3. **Cumulative epochs.** The world epoch counts deltas applied, not
//!    batches, so any batch decomposition of one delta stream lands on
//!    the same final epoch.
//!
//! Cells are addressed by their **index in the state's canonical CBG
//! enumeration** ([`StateGeography::build_range`] order). The index is a
//! pure function of the calibration presence matrix — independent of the
//! RNG stream, worker count, and shard policy — which is what lets a
//! committed delta file replay identically on any build of the world.

use crate::geography::StateGeography;
use crate::isp::Isp;
use caf_geo::UsState;
use caf_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt;

/// One correction to a (state, CBG, ISP) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correction {
    /// Replace the cell's latent serviceability rate with a fixed value,
    /// in parts per million (a truth correction: "the map says served,
    /// residents report otherwise"). Integer ppm keeps the JSON wire
    /// format exact.
    Availability {
        /// The corrected serviceability rate in `[0, 1_000_000]` ppm.
        rate_ppm: u32,
    },
    /// Replace the certified tier of every record in the cell (a claim
    /// correction: the ISP restates what it certified to USAC).
    CertifiedTier {
        /// Certified download speed in Mbps.
        down_mbps: u32,
        /// Certified upload speed in Mbps.
        up_mbps: u32,
    },
}

/// One challenge delta: a correction addressed to a (state, CBG, ISP)
/// cell. `cbg` is the index in the state's canonical CBG enumeration
/// (see the module docs for why it is an index, not a GEOID); `isp` is
/// redundant with the geography's cell → ISP assignment and is validated
/// against it on apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChallengeDelta {
    /// The state whose map is being corrected.
    pub state: UsState,
    /// CBG index in the state's canonical enumeration order.
    pub cbg: usize,
    /// The CAF-subsidized ISP certified in that CBG.
    pub isp: Isp,
    /// The correction to apply.
    pub correction: Correction,
}

/// The effective corrections for one cell, one slot per correction kind
/// (last writer wins within a kind; kinds compose).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCorrections {
    /// Effective availability override in ppm, if any.
    pub availability_ppm: Option<u32>,
    /// Effective certified-tier override `(down, up)` in Mbps, if any.
    pub certified: Option<(u32, u32)>,
}

impl CellCorrections {
    /// The availability override as a rate in `[0, 1]`, if any.
    pub(crate) fn availability_rate(&self) -> Option<f64> {
        self.availability_ppm
            .map(|ppm| f64::from(ppm) / 1_000_000.0)
    }
}

/// The merged, effective correction state of a world: everything needed
/// to rebuild any touched cell from the seed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChallengeSet {
    /// Keyed by (state FIPS code, CBG index) so iteration order is
    /// deterministic and state-grouped.
    cells: BTreeMap<(u16, usize), CellCorrections>,
}

impl ChallengeSet {
    /// An empty set (the epoch-0 world).
    pub fn new() -> ChallengeSet {
        ChallengeSet::default()
    }

    /// Folds one delta in (last writer wins within its correction kind)
    /// and returns the cell's new effective corrections.
    pub fn merge_delta(&mut self, delta: &ChallengeDelta) -> CellCorrections {
        let cell = self
            .cells
            .entry((delta.state.fips().code(), delta.cbg))
            .or_default();
        match delta.correction {
            Correction::Availability { rate_ppm } => cell.availability_ppm = Some(rate_ppm),
            Correction::CertifiedTier { down_mbps, up_mbps } => {
                cell.certified = Some((down_mbps, up_mbps));
            }
        }
        *cell
    }

    /// The effective corrections for a cell, if any.
    pub fn cell(&self, state: UsState, cbg: usize) -> Option<&CellCorrections> {
        self.cells.get(&(state.fips().code(), cbg))
    }

    /// A state's certified-tier corrections as `(CBG index, (down, up))`,
    /// ascending by index: what its CAF-Map records are built with.
    pub(crate) fn certified_tiers(&self, state: UsState) -> Vec<(usize, (u32, u32))> {
        let fips = state.fips().code();
        self.cells
            .range((fips, 0)..=(fips, usize::MAX))
            .filter_map(|(&(_, cbg), cell)| cell.certified.map(|tier| (cbg, tier)))
            .collect()
    }

    /// Number of corrected cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell carries a correction.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates corrected cells as `(FIPS code, CBG index, corrections)`
    /// in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, usize, &CellCorrections)> {
        self.cells.iter().map(|(&(f, i), c)| (f, i, c))
    }
}

/// What [`crate::World::apply_deltas`] did: the new epoch and which
/// cells were invalidated, grouped per state in world order — the dirty
/// set the incremental audit consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The world epoch after the batch (cumulative delta count).
    pub epoch: u64,
    /// Deltas applied in this batch.
    pub applied: usize,
    /// Touched CBG indices per state, each list sorted ascending and
    /// deduplicated.
    pub touched: Vec<(UsState, Vec<usize>)>,
}

impl DeltaOutcome {
    /// Total number of distinct cells invalidated by the batch.
    pub fn dirty_cells(&self) -> usize {
        self.touched.iter().map(|(_, cells)| cells.len()).sum()
    }
}

/// Why a delta batch was rejected (the whole batch is atomic: on any
/// error the world is left untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChallengeError {
    /// The delta names a state the world was not generated with.
    UnknownState(UsState),
    /// The CBG index is outside the state's enumeration.
    CbgOutOfRange {
        /// The state named by the delta.
        state: UsState,
        /// The out-of-range index.
        cbg: usize,
        /// The state's CBG count.
        len: usize,
    },
    /// The delta's ISP does not match the CBG's certified ISP.
    IspMismatch {
        /// The state named by the delta.
        state: UsState,
        /// The CBG index named by the delta.
        cbg: usize,
        /// The ISP the delta claimed.
        claimed: Isp,
        /// The ISP the geography certifies in that CBG.
        actual: Isp,
    },
    /// The availability rate exceeds 1 000 000 ppm.
    RateOutOfRange(u32),
}

impl fmt::Display for ChallengeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChallengeError::UnknownState(state) => {
                write!(f, "state {} is not part of this world", state.abbrev())
            }
            ChallengeError::CbgOutOfRange { state, cbg, len } => write!(
                f,
                "cbg index {cbg} out of range for {} ({len} cells)",
                state.abbrev()
            ),
            ChallengeError::IspMismatch {
                state,
                cbg,
                claimed,
                actual,
            } => write!(
                f,
                "cbg {cbg} in {} is certified to {actual}, not {claimed}",
                state.abbrev()
            ),
            ChallengeError::RateOutOfRange(ppm) => {
                write!(f, "availability rate {ppm} ppm exceeds 1000000")
            }
        }
    }
}

impl std::error::Error for ChallengeError {}

/// Validates one delta against a state geography (shared by
/// [`crate::World::apply_deltas`] and ingest front ends that want to
/// reject bad deltas before touching the world).
pub fn validate_delta(delta: &ChallengeDelta, geo: &StateGeography) -> Result<(), ChallengeError> {
    if delta.cbg >= geo.cbgs.len() {
        return Err(ChallengeError::CbgOutOfRange {
            state: delta.state,
            cbg: delta.cbg,
            len: geo.cbgs.len(),
        });
    }
    let actual = geo.cbgs[delta.cbg].isp;
    if actual != delta.isp {
        return Err(ChallengeError::IspMismatch {
            state: delta.state,
            cbg: delta.cbg,
            claimed: delta.isp,
            actual,
        });
    }
    if let Correction::Availability { rate_ppm } = delta.correction {
        if rate_ppm > 1_000_000 {
            return Err(ChallengeError::RateOutOfRange(rate_ppm));
        }
    }
    Ok(())
}

/// Serializes one delta as a compact single-line JSON object (the JSONL
/// wire format of `POST /v1/challenge` and `challenge_replay`).
pub fn delta_to_json(delta: &ChallengeDelta) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("cbg".to_string(), Json::UInt(delta.cbg as u64)),
        (
            "correction".to_string(),
            Json::Str(match delta.correction {
                Correction::Availability { .. } => "availability".to_string(),
                Correction::CertifiedTier { .. } => "certified_tier".to_string(),
            }),
        ),
    ];
    match delta.correction {
        Correction::Availability { rate_ppm } => {
            fields.push(("rate_ppm".to_string(), Json::UInt(u64::from(rate_ppm))));
        }
        Correction::CertifiedTier { down_mbps, up_mbps } => {
            fields.push(("down_mbps".to_string(), Json::UInt(u64::from(down_mbps))));
            fields.push(("up_mbps".to_string(), Json::UInt(u64::from(up_mbps))));
        }
    }
    fields.push(("isp".to_string(), Json::Str(delta.isp.name().to_string())));
    fields.push((
        "state".to_string(),
        Json::Str(delta.state.abbrev().to_string()),
    ));
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(fields).to_compact()
}

/// Parses one JSONL line into a delta. Lines must be objects with keys
/// `state` (postal abbreviation), `cbg` (enumeration index), `isp`
/// (display name), `correction` (`"availability"` with `rate_ppm`, or
/// `"certified_tier"` with `down_mbps`/`up_mbps`).
pub fn delta_from_json(line: &str) -> Result<ChallengeDelta, String> {
    let value = json::parse(line)?;
    let obj = value.as_obj().ok_or("delta line must be a JSON object")?;
    let get = |key: &str| {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    };
    let state_abbrev = get("state")?.as_str().ok_or("state must be a string")?;
    let state = UsState::from_abbrev(state_abbrev)
        .map_err(|_| format!("unknown state abbreviation {state_abbrev:?}"))?;
    let cbg = get("cbg")?
        .as_u64()
        .ok_or("cbg must be an unsigned integer")? as usize;
    let isp_name = get("isp")?.as_str().ok_or("isp must be a string")?;
    let isp = Isp::from_name(isp_name).ok_or_else(|| format!("unknown isp {isp_name:?}"))?;
    let kind = get("correction")?
        .as_str()
        .ok_or("correction must be a string")?;
    let correction = match kind {
        "availability" => {
            let ppm = get("rate_ppm")?
                .as_u64()
                .ok_or("rate_ppm must be an unsigned integer")?;
            let rate_ppm =
                u32::try_from(ppm).map_err(|_| format!("rate_ppm {ppm} out of range"))?;
            Correction::Availability { rate_ppm }
        }
        "certified_tier" => {
            let down = get("down_mbps")?
                .as_u64()
                .ok_or("down_mbps must be an unsigned integer")?;
            let up = get("up_mbps")?
                .as_u64()
                .ok_or("up_mbps must be an unsigned integer")?;
            Correction::CertifiedTier {
                down_mbps: u32::try_from(down)
                    .map_err(|_| format!("down_mbps {down} out of range"))?,
                up_mbps: u32::try_from(up).map_err(|_| format!("up_mbps {up} out of range"))?,
            }
        }
        other => return Err(format!("unknown correction kind {other:?}")),
    };
    Ok(ChallengeDelta {
        state,
        cbg,
        isp,
        correction,
    })
}

/// Parses a whole JSONL document (blank lines and `#` comment lines are
/// skipped), reporting the first malformed line by number.
pub fn deltas_from_jsonl(text: &str) -> Result<Vec<ChallengeDelta>, String> {
    let _span = caf_obs::span("challenge.parse");
    let mut deltas = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let delta = delta_from_json(trimmed).map_err(|e| format!("line {}: {e}", number + 1))?;
        deltas.push(delta);
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SynthConfig;

    fn sample_delta() -> ChallengeDelta {
        ChallengeDelta {
            state: UsState::Mississippi,
            cbg: 3,
            isp: Isp::Att,
            correction: Correction::Availability { rate_ppm: 120_000 },
        }
    }

    #[test]
    fn jsonl_roundtrip_both_kinds() {
        let deltas = [
            sample_delta(),
            ChallengeDelta {
                state: UsState::Vermont,
                cbg: 0,
                isp: Isp::Consolidated,
                correction: Correction::CertifiedTier {
                    down_mbps: 25,
                    up_mbps: 3,
                },
            },
        ];
        let text: String = deltas
            .iter()
            .map(|d| format!("{}\n", delta_to_json(d)))
            .collect();
        let parsed = deltas_from_jsonl(&text).expect("roundtrip parses");
        assert_eq!(parsed, deltas);
    }

    #[test]
    fn jsonl_skips_blanks_and_comments_and_reports_line_numbers() {
        let text = format!("# header\n\n{}\nnot json\n", delta_to_json(&sample_delta()));
        let err = deltas_from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        let ok = deltas_from_jsonl(&format!("# header\n{}\n", delta_to_json(&sample_delta())))
            .expect("comments skipped");
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn merge_is_last_writer_wins_per_kind() {
        let mut set = ChallengeSet::new();
        set.merge_delta(&sample_delta());
        set.merge_delta(&ChallengeDelta {
            correction: Correction::Availability { rate_ppm: 990_000 },
            ..sample_delta()
        });
        set.merge_delta(&ChallengeDelta {
            correction: Correction::CertifiedTier {
                down_mbps: 100,
                up_mbps: 10,
            },
            ..sample_delta()
        });
        assert_eq!(set.len(), 1);
        let cell = set.cell(UsState::Mississippi, 3).expect("cell present");
        assert_eq!(cell.availability_ppm, Some(990_000));
        assert_eq!(cell.certified, Some((100, 10)));
    }

    #[test]
    fn validation_rejects_bad_addresses() {
        let config = SynthConfig { seed: 5, scale: 20 };
        let geo = StateGeography::build(&config, UsState::Mississippi);
        assert!(validate_delta(&sample_delta(), &geo).is_ok());
        let out_of_range = ChallengeDelta {
            cbg: geo.cbgs.len(),
            ..sample_delta()
        };
        assert!(matches!(
            validate_delta(&out_of_range, &geo),
            Err(ChallengeError::CbgOutOfRange { .. })
        ));
        let wrong_isp = ChallengeDelta {
            isp: Isp::Frontier,
            ..sample_delta()
        };
        assert!(matches!(
            validate_delta(&wrong_isp, &geo),
            Err(ChallengeError::IspMismatch { .. })
        ));
        let bad_rate = ChallengeDelta {
            correction: Correction::Availability {
                rate_ppm: 1_000_001,
            },
            ..sample_delta()
        };
        assert!(matches!(
            validate_delta(&bad_rate, &geo),
            Err(ChallengeError::RateOutOfRange(_))
        ));
    }
}
