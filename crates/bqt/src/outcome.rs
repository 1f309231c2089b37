//! Query outcomes and records.
//!
//! §9.2 of the paper defines the response taxonomy per ISP: a query ends
//! as *Serviceable* (with plan data), *No Service*, *Address Not Found*
//! (treated as not serviceable), *Unknown* (persistent errors — excluded
//! from analysis), or *Call to Order* (AT&T's ambiguous page — excluded
//! and resampled).

use caf_geo::AddressId;
use caf_synth::params::ErrorCategory;
use caf_synth::plans::PlanList;
use caf_synth::Isp;

/// The terminal classification of one address query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The ISP's site displayed plans: the address is served.
    Serviceable {
        /// Advertised plans, highest tier first: the truth's list,
        /// borrowed when it is a catalog offer.
        plans: PlanList,
        /// Whether the site showed an existing-subscriber flow.
        existing_subscriber: bool,
    },
    /// The site explicitly said service is unavailable.
    NoService,
    /// The site resolved the address but then declared it invalid
    /// (Consolidated's pattern) — treated as not serviceable (§9.2).
    AddressNotFound,
    /// Every attempt failed; the dominant traceback category is recorded.
    /// Excluded from serviceability analysis.
    Unknown(ErrorCategory),
    /// The site punted to a "Call to Order" page (AT&T) — possibly
    /// serviceable within the FCC's 10-day window, but unverifiable
    /// without a phone call; excluded and resampled (§5).
    CallToOrder,
}

impl QueryOutcome {
    /// Whether the outcome makes a definitive serviceability statement.
    pub fn is_definitive(&self) -> bool {
        matches!(
            self,
            QueryOutcome::Serviceable { .. }
                | QueryOutcome::NoService
                | QueryOutcome::AddressNotFound
        )
    }

    /// Whether the address counts as served (definitive outcomes only).
    pub fn is_served(&self) -> Option<bool> {
        match self {
            QueryOutcome::Serviceable { .. } => Some(true),
            QueryOutcome::NoService | QueryOutcome::AddressNotFound => Some(false),
            _ => None,
        }
    }

    /// The maximum advertised download speed, if served and specified.
    pub fn max_download_mbps(&self) -> Option<f64> {
        match self {
            QueryOutcome::Serviceable { plans, .. } => plans
                .iter()
                .filter_map(|p| p.download_mbps)
                .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d)))),
            _ => None,
        }
    }

    /// A short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            QueryOutcome::Serviceable { .. } => "Serviceable",
            QueryOutcome::NoService => "No Service",
            QueryOutcome::AddressNotFound => "Address Not Found",
            QueryOutcome::Unknown(_) => "Unknown",
            QueryOutcome::CallToOrder => "Call to Order",
        }
    }
}

/// The full record of one address query: outcome plus telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// The queried address.
    pub address: AddressId,
    /// The ISP whose site was queried.
    pub isp: Isp,
    /// Terminal outcome.
    pub outcome: QueryOutcome,
    /// Number of attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Traceback error categories hit along the way, one per failed
    /// attempt (Table 2's unit of counting).
    pub errors: Vec<ErrorCategory>,
    /// Total simulated query time across attempts, in seconds (Figure 11).
    pub duration_secs: f64,
}

impl QueryRecord {
    /// Whether this record enters the serviceability denominator
    /// (definitive outcomes only; Unknown and Call-to-Order are excluded
    /// per §5).
    pub fn in_analysis(&self) -> bool {
        self.outcome.is_definitive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_synth::BroadbandPlan;

    fn plan(mbps: f64) -> BroadbandPlan {
        BroadbandPlan {
            name: format!("Tier {mbps}").into(),
            download_mbps: Some(mbps),
            upload_mbps: Some(1.0),
            monthly_usd: 50.0,
            speed_guaranteed: true,
        }
    }

    #[test]
    fn served_classification() {
        let s = QueryOutcome::Serviceable {
            plans: vec![plan(100.0), plan(10.0)].into(),
            existing_subscriber: false,
        };
        assert_eq!(s.is_served(), Some(true));
        assert_eq!(s.max_download_mbps(), Some(100.0));
        assert!(s.is_definitive());
        assert_eq!(s.label(), "Serviceable");
    }

    #[test]
    fn not_found_counts_as_unserved() {
        assert_eq!(QueryOutcome::AddressNotFound.is_served(), Some(false));
        assert_eq!(QueryOutcome::NoService.is_served(), Some(false));
    }

    #[test]
    fn unknown_and_ambiguous_are_excluded() {
        let u = QueryOutcome::Unknown(ErrorCategory::SelectDropdown);
        assert_eq!(u.is_served(), None);
        assert!(!u.is_definitive());
        let c = QueryOutcome::CallToOrder;
        assert_eq!(c.is_served(), None);
        let rec = QueryRecord {
            address: AddressId(1),
            isp: Isp::Att,
            outcome: c,
            attempts: 1,
            errors: vec![],
            duration_secs: 20.0,
        };
        assert!(!rec.in_analysis());
    }

    #[test]
    fn unspecified_speed_plans_have_no_max() {
        let s = QueryOutcome::Serviceable {
            plans: vec![BroadbandPlan {
                name: "Unknown Plan".into(),
                download_mbps: None,
                upload_mbps: None,
                monthly_usd: 50.0,
                speed_guaranteed: false,
            }]
            .into(),
            existing_subscriber: true,
        };
        assert_eq!(s.max_download_mbps(), None);
        assert_eq!(s.is_served(), Some(true));
    }
}
