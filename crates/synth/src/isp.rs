//! The ISPs in the study.
//!
//! Four ISPs are audited for serviceability and compliance (§3.1): the
//! top-3 CAF recipients — AT&T, CenturyLink, Frontier — plus Consolidated
//! Communications as a smaller contrast. Two more, Xfinity and Spectrum,
//! receive no CAF funds but are supported by BQT and enter the Q3
//! competition analysis. Windstream appears in the national Figure-1
//! marginals as the fourth-largest recipient.

use std::fmt;

/// An internet service provider known to the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isp {
    /// AT&T — largest CAF address count among the studied four.
    Att,
    /// CenturyLink (Lumen; some CAF obligations transferred to
    /// Brightspeed) — largest CAF funding recipient ($1.84 B).
    CenturyLink,
    /// Frontier Communications.
    Frontier,
    /// Consolidated Communications (including its Fidium fiber brand).
    Consolidated,
    /// Windstream — in the national top-4 by addresses; not audited.
    Windstream,
    /// Comcast Xfinity — unsubsidized; Q3 competitor only.
    Xfinity,
    /// Charter Spectrum — unsubsidized; Q3 competitor only.
    Spectrum,
}

impl Isp {
    /// Every ISP in the registry.
    pub const fn all() -> [Isp; 7] {
        [
            Isp::Att,
            Isp::CenturyLink,
            Isp::Frontier,
            Isp::Consolidated,
            Isp::Windstream,
            Isp::Xfinity,
            Isp::Spectrum,
        ]
    }

    /// The four CAF-funded ISPs audited in §4.1–4.2, in the paper's order.
    pub fn audited() -> [Isp; 4] {
        [Isp::Att, Isp::CenturyLink, Isp::Consolidated, Isp::Frontier]
    }

    /// The six ISPs BQT supports (§4.3): the audited four plus the two
    /// cable competitors.
    pub fn bqt_supported() -> [Isp; 6] {
        [
            Isp::Att,
            Isp::CenturyLink,
            Isp::Frontier,
            Isp::Consolidated,
            Isp::Xfinity,
            Isp::Spectrum,
        ]
    }

    /// Whether the ISP receives CAF subsidies.
    pub fn is_caf_funded(self) -> bool {
        !matches!(self, Isp::Xfinity | Isp::Spectrum)
    }

    /// Display name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Isp::Att => "AT&T",
            Isp::CenturyLink => "CenturyLink",
            Isp::Frontier => "Frontier",
            Isp::Consolidated => "Consolidated",
            Isp::Windstream => "Windstream",
            Isp::Xfinity => "Xfinity",
            Isp::Spectrum => "Spectrum",
        }
    }

    /// A stable small integer for RNG keying and dataframe encoding.
    pub fn id(self) -> u64 {
        match self {
            Isp::Att => 1,
            Isp::CenturyLink => 2,
            Isp::Frontier => 3,
            Isp::Consolidated => 4,
            Isp::Windstream => 5,
            Isp::Xfinity => 6,
            Isp::Spectrum => 7,
        }
    }

    /// Looks an ISP up by its display name.
    pub fn from_name(name: &str) -> Option<Isp> {
        Isp::all().into_iter().find(|isp| isp.name() == name)
    }

    /// Total CAF support disbursed to this ISP, in dollars (paper §2.3,
    /// §3.1: CenturyLink $1.84 B is named; the top-3 plus Windstream take
    /// 37.5 % of the $10 B total; Consolidated received $193 M).
    pub fn caf_funding_usd(self) -> f64 {
        match self {
            Isp::Att => 1.28e9,
            Isp::CenturyLink => 1.84e9,
            Isp::Frontier => 0.63e9,
            Isp::Consolidated => 0.193e9,
            Isp::Windstream => 0.52e9,
            Isp::Xfinity | Isp::Spectrum => 0.0,
        }
    }

    /// Nationwide CAF-certified deployment locations for this ISP (paper
    /// §3.1: the top-3 serve 54 % of 6.13 M; Consolidated 138 k, which is
    /// 18 % of Frontier's count, ranking fifth behind Windstream).
    pub fn caf_addresses_national(self) -> u64 {
        match self {
            Isp::Att => 1_500_000,
            Isp::CenturyLink => 1_080_000,
            Isp::Frontier => 730_000,
            Isp::Consolidated => 138_000,
            Isp::Windstream => 420_000,
            Isp::Xfinity | Isp::Spectrum => 0,
        }
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct() {
        let mut ids: Vec<u64> = Isp::all().iter().map(|i| i.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Isp::all().len());
    }

    #[test]
    fn name_roundtrip() {
        for isp in Isp::all() {
            assert_eq!(Isp::from_name(isp.name()), Some(isp));
        }
        assert_eq!(Isp::from_name("Verizon"), None);
    }

    #[test]
    fn funding_ordering_matches_paper() {
        // CenturyLink received the most funding of any ISP (§4.1).
        for isp in Isp::all() {
            if isp != Isp::CenturyLink {
                assert!(Isp::CenturyLink.caf_funding_usd() >= isp.caf_funding_usd());
            }
        }
        // AT&T and Frontier rank second and third among the audited four.
        assert!(Isp::Att.caf_funding_usd() > Isp::Frontier.caf_funding_usd());
        assert!(Isp::Frontier.caf_funding_usd() > Isp::Consolidated.caf_funding_usd());
        // Unsubsidized competitors receive nothing.
        assert_eq!(Isp::Xfinity.caf_funding_usd(), 0.0);
        assert!(!Isp::Spectrum.is_caf_funded());
    }

    #[test]
    fn address_counts_match_paper_ratios() {
        // Consolidated serves ~18 % of Frontier's address count (§3.1).
        let ratio = Isp::Consolidated.caf_addresses_national() as f64
            / Isp::Frontier.caf_addresses_national() as f64;
        assert!((0.15..0.21).contains(&ratio), "ratio {ratio}");
        // Top-3 serve 54 % of 6.13 M ≈ 3.31 M.
        let top3: u64 = [Isp::Att, Isp::CenturyLink, Isp::Frontier]
            .iter()
            .map(|i| i.caf_addresses_national())
            .sum();
        assert!((3_100_000..3_500_000).contains(&top3), "top3 {top3}");
    }

    #[test]
    fn audited_and_supported_sets() {
        assert_eq!(Isp::audited().len(), 4);
        assert!(Isp::audited().iter().all(|i| i.is_caf_funded()));
        assert_eq!(Isp::bqt_supported().len(), 6);
        assert!(!Isp::bqt_supported().contains(&Isp::Windstream));
    }
}
