//! Broadband plans and per-ISP plan catalogs.
//!
//! A "plan" is what an ISP's website advertises for an address: a name, a
//! download/upload speed (possibly unguaranteed — AT&T's "Internet Air"
//! and the "Frontier Internet" plan advertise no minimum speed, §4.2), and
//! a monthly price. The catalogs encode the speed tiers observed in
//! Table 1 and the price points of §4.2 ("prices … for the tier of
//! 10 Mbps ranged from $30 to $55 per month").
//!
//! Every advertised list a catalog generates is one of its *offers*
//! ([`PlanCatalog::offer`]), built once per process, so truth draws,
//! query outcomes and audit rows borrow the same `'static` list instead
//! of copying it per address.

use crate::isp::Isp;
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// An advertised plan list, highest tier first. A catalog offer borrows
/// its catalog's `'static` list ([`PlanCatalog::offer`]), so cloning it
/// copies a pointer; decoded and hand-built lists own theirs.
pub type PlanList = Cow<'static, [BroadbandPlan]>;

/// One advertised broadband plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadbandPlan {
    /// Marketing name, e.g. `"Fiber 500"` or `"AT&T Internet Air"`.
    /// Generated plans borrow their catalog tier's `'static` label;
    /// decoded or hand-built plans may own theirs.
    pub name: Cow<'static, str>,
    /// Advertised download speed in Mbps, or `None` when the plan offers
    /// no speed commitment at all ("Unknown Plan" rows in Table 1).
    pub download_mbps: Option<f64>,
    /// Advertised upload speed in Mbps, when shown.
    pub upload_mbps: Option<f64>,
    /// Monthly price in dollars.
    pub monthly_usd: f64,
    /// Whether the advertised speed is a commitment. "Frontier Internet"
    /// and "AT&T Internet Air" advertise speeds without guarantees and are
    /// classified non-compliant by the paper (§4.2).
    pub speed_guaranteed: bool,
}

impl BroadbandPlan {
    /// Carriage value: advertised download Mbps per dollar per month, or
    /// `None` if the plan advertises no download speed or a non-positive
    /// price.
    pub fn carriage_value(&self) -> Option<f64> {
        match (self.download_mbps, self.monthly_usd) {
            (Some(mbps), usd) if usd > 0.0 => Some(mbps / usd),
            _ => None,
        }
    }

    /// Whether this plan satisfies the CAF service standard: a
    /// *guaranteed* download speed of at least `min_down` Mbps and upload
    /// of at least `min_up` Mbps (upload treated as satisfied when the
    /// website does not show it, since many ISPs advertise download only —
    /// footnote 4 of the paper).
    pub fn meets_service_standard(&self, min_down: f64, min_up: f64) -> bool {
        if !self.speed_guaranteed {
            return false;
        }
        let down_ok = self.download_mbps.is_some_and(|d| d >= min_down);
        let up_ok = self.upload_mbps.is_none_or(|u| u >= min_up);
        down_ok && up_ok
    }
}

impl fmt::Display for BroadbandPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.download_mbps {
            Some(d) => write!(f, "{} ({} Mbps, ${:.2}/mo)", self.name, d, self.monthly_usd),
            None => write!(
                f,
                "{} (unspecified speed, ${:.2}/mo)",
                self.name, self.monthly_usd
            ),
        }
    }
}

/// A speed tier in an ISP's catalog, with its price and guarantee status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogTier {
    /// Tier label used in plan names.
    pub label: &'static str,
    /// Download speed in Mbps (`None` for unspecified-speed plans).
    pub download_mbps: Option<f64>,
    /// Upload speed in Mbps.
    pub upload_mbps: Option<f64>,
    /// Monthly price in dollars.
    pub monthly_usd: f64,
    /// Whether the speed is committed.
    pub guaranteed: bool,
}

/// An ISP's plan catalog: the tiers its website can advertise.
#[derive(Debug, Clone)]
pub struct PlanCatalog {
    isp: Isp,
    tiers: &'static [CatalogTier],
}

impl PlanCatalog {
    /// The catalog for an ISP. Tier lists follow Table 1's advertised
    /// speed distributions; prices follow §4.2 (10 Mbps tiers between $30
    /// and $55, all below the FCC's ≈$89 benchmark) and scale sub-linearly
    /// with speed as the predecessor study observed.
    pub fn for_isp(isp: Isp) -> PlanCatalog {
        let tiers: &'static [CatalogTier] = match isp {
            Isp::Att => &[
                CatalogTier {
                    label: "AT&T Internet Air",
                    download_mbps: Some(40.0),
                    upload_mbps: None,
                    monthly_usd: 55.0,
                    guaranteed: false,
                },
                CatalogTier {
                    label: "DSL 768k",
                    download_mbps: Some(0.768),
                    upload_mbps: Some(0.128),
                    monthly_usd: 40.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 1",
                    download_mbps: Some(1.0),
                    upload_mbps: Some(0.128),
                    monthly_usd: 40.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 3",
                    download_mbps: Some(3.0),
                    upload_mbps: Some(0.384),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 5",
                    download_mbps: Some(5.0),
                    upload_mbps: Some(0.6),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 10",
                    download_mbps: Some(10.0),
                    upload_mbps: Some(1.0),
                    monthly_usd: 55.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 25",
                    download_mbps: Some(25.0),
                    upload_mbps: Some(2.0),
                    monthly_usd: 55.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 50",
                    download_mbps: Some(50.0),
                    upload_mbps: Some(10.0),
                    monthly_usd: 55.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 300",
                    download_mbps: Some(300.0),
                    upload_mbps: Some(300.0),
                    monthly_usd: 55.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 500",
                    download_mbps: Some(500.0),
                    upload_mbps: Some(500.0),
                    monthly_usd: 65.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 1000",
                    download_mbps: Some(1000.0),
                    upload_mbps: Some(1000.0),
                    monthly_usd: 80.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 2000",
                    download_mbps: Some(2000.0),
                    upload_mbps: Some(2000.0),
                    monthly_usd: 110.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 5000",
                    download_mbps: Some(5000.0),
                    upload_mbps: Some(5000.0),
                    monthly_usd: 180.0,
                    guaranteed: true,
                },
            ],
            Isp::CenturyLink => &[
                CatalogTier {
                    label: "DSL 0.5",
                    download_mbps: Some(0.5),
                    upload_mbps: Some(0.128),
                    monthly_usd: 30.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 1.5",
                    download_mbps: Some(1.5),
                    upload_mbps: Some(0.256),
                    monthly_usd: 30.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 3",
                    download_mbps: Some(3.0),
                    upload_mbps: Some(0.384),
                    monthly_usd: 35.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 6",
                    download_mbps: Some(6.0),
                    upload_mbps: Some(0.768),
                    monthly_usd: 40.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Simply Internet 10",
                    download_mbps: Some(10.0),
                    upload_mbps: Some(1.0),
                    monthly_usd: 50.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Simply Internet 40",
                    download_mbps: Some(40.0),
                    upload_mbps: Some(5.0),
                    monthly_usd: 50.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Simply Internet 80",
                    download_mbps: Some(80.0),
                    upload_mbps: Some(10.0),
                    monthly_usd: 50.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 200",
                    download_mbps: Some(200.0),
                    upload_mbps: Some(200.0),
                    monthly_usd: 50.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 940",
                    download_mbps: Some(940.0),
                    upload_mbps: Some(940.0),
                    monthly_usd: 75.0,
                    guaranteed: true,
                },
            ],
            Isp::Frontier => &[
                CatalogTier {
                    label: "Frontier Internet",
                    download_mbps: Some(6.0),
                    upload_mbps: None,
                    monthly_usd: 50.0,
                    guaranteed: false,
                },
                CatalogTier {
                    label: "Unknown Plan",
                    download_mbps: None,
                    upload_mbps: None,
                    monthly_usd: 50.0,
                    guaranteed: false,
                },
                CatalogTier {
                    label: "DSL 10",
                    download_mbps: Some(10.0),
                    upload_mbps: Some(1.0),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 25",
                    download_mbps: Some(25.0),
                    upload_mbps: Some(2.0),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 500",
                    download_mbps: Some(500.0),
                    upload_mbps: Some(500.0),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 1 Gig",
                    download_mbps: Some(1000.0),
                    upload_mbps: Some(1000.0),
                    monthly_usd: 70.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 2 Gig",
                    download_mbps: Some(2000.0),
                    upload_mbps: Some(2000.0),
                    monthly_usd: 100.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fiber 5 Gig",
                    download_mbps: Some(5000.0),
                    upload_mbps: Some(5000.0),
                    monthly_usd: 155.0,
                    guaranteed: true,
                },
            ],
            Isp::Consolidated => &[
                CatalogTier {
                    label: "DSL 3",
                    download_mbps: Some(3.0),
                    upload_mbps: Some(0.384),
                    monthly_usd: 35.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "DSL 7",
                    download_mbps: Some(7.0),
                    upload_mbps: Some(0.768),
                    monthly_usd: 40.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 10",
                    download_mbps: Some(10.0),
                    upload_mbps: Some(1.0),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 50",
                    download_mbps: Some(50.0),
                    upload_mbps: Some(5.0),
                    monthly_usd: 50.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet 250",
                    download_mbps: Some(250.0),
                    upload_mbps: Some(200.0),
                    monthly_usd: 55.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fidium 1 Gig",
                    download_mbps: Some(1000.0),
                    upload_mbps: Some(1000.0),
                    monthly_usd: 70.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fidium 2 Gig",
                    download_mbps: Some(2000.0),
                    upload_mbps: Some(2000.0),
                    monthly_usd: 95.0,
                    guaranteed: true,
                },
            ],
            Isp::Windstream => &[
                CatalogTier {
                    label: "Kinetic 25",
                    download_mbps: Some(25.0),
                    upload_mbps: Some(3.0),
                    monthly_usd: 40.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Kinetic 100",
                    download_mbps: Some(100.0),
                    upload_mbps: Some(10.0),
                    monthly_usd: 45.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Kinetic 1 Gig",
                    download_mbps: Some(1000.0),
                    upload_mbps: Some(1000.0),
                    monthly_usd: 70.0,
                    guaranteed: true,
                },
            ],
            Isp::Xfinity => &[
                CatalogTier {
                    label: "Connect 150",
                    download_mbps: Some(150.0),
                    upload_mbps: Some(10.0),
                    monthly_usd: 40.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Fast 400",
                    download_mbps: Some(400.0),
                    upload_mbps: Some(20.0),
                    monthly_usd: 55.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Gigabit",
                    download_mbps: Some(1000.0),
                    upload_mbps: Some(35.0),
                    monthly_usd: 70.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Gigabit X2",
                    download_mbps: Some(2000.0),
                    upload_mbps: Some(200.0),
                    monthly_usd: 100.0,
                    guaranteed: true,
                },
            ],
            Isp::Spectrum => &[
                CatalogTier {
                    label: "Internet 300",
                    download_mbps: Some(300.0),
                    upload_mbps: Some(10.0),
                    monthly_usd: 50.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet Ultra 500",
                    download_mbps: Some(500.0),
                    upload_mbps: Some(20.0),
                    monthly_usd: 70.0,
                    guaranteed: true,
                },
                CatalogTier {
                    label: "Internet Gig",
                    download_mbps: Some(1000.0),
                    upload_mbps: Some(35.0),
                    monthly_usd: 90.0,
                    guaranteed: true,
                },
            ],
        };
        PlanCatalog { isp, tiers }
    }

    /// The ISP this catalog belongs to.
    pub fn isp(&self) -> Isp {
        self.isp
    }

    /// All tiers.
    pub fn tiers(&self) -> &'static [CatalogTier] {
        self.tiers
    }

    /// The tier whose download speed is closest to `mbps` in *log* space
    /// (speed grids are geometric: 10/25/50/…/1000, so log distance is the
    /// natural metric — linear distance would bias multiplicative speed
    /// differences down to the lower tier). Unspecified-speed tiers are
    /// skipped.
    pub fn tier_near(&self, mbps: f64) -> &'static CatalogTier {
        let target = mbps.max(1e-6).ln();
        self.tiers
            .iter()
            .filter(|t| t.download_mbps.is_some())
            .min_by(|a, b| {
                let da = (a.download_mbps.unwrap().ln() - target).abs();
                let db = (b.download_mbps.unwrap().ln() - target).abs();
                da.partial_cmp(&db).expect("finite")
            })
            .expect("every catalog has at least one specified-speed tier")
    }

    /// The tier with the given label, if present.
    pub fn tier_labeled(&self, label: &str) -> Option<&'static CatalogTier> {
        self.tiers.iter().find(|t| t.label == label)
    }

    /// Materializes a [`BroadbandPlan`] from a tier.
    pub fn plan_from_tier(&self, tier: &CatalogTier) -> BroadbandPlan {
        BroadbandPlan {
            name: Cow::Borrowed(tier.label),
            download_mbps: tier.download_mbps,
            upload_mbps: tier.upload_mbps,
            monthly_usd: tier.monthly_usd,
            speed_guaranteed: tier.guaranteed,
        }
    }

    /// The plans the ISP's website advertises where `max_tier` (one of
    /// this catalog's tiers) is the best offer: that tier first, then up
    /// to two lower tiers. Built once per catalog per process and
    /// borrowed from then on.
    ///
    /// # Panics
    ///
    /// If `max_tier` is no tier of this catalog.
    pub fn offer(&self, max_tier: &CatalogTier) -> &'static [BroadbandPlan] {
        static OFFERS: [OnceLock<Vec<Vec<BroadbandPlan>>>; Isp::all().len()] =
            [const { OnceLock::new() }; Isp::all().len()];
        let offers = OFFERS[self.isp as usize].get_or_init(|| {
            self.tiers
                .iter()
                .map(|tier| {
                    let mut plans = vec![self.plan_from_tier(tier)];
                    plans.extend(self.lower_tiers(tier).map(|t| self.plan_from_tier(t)));
                    plans
                })
                .collect()
        });
        let i = self
            .tiers
            .iter()
            .position(|tier| tier == max_tier)
            .expect("an offer's maximum tier belongs to its catalog");
        &offers[i]
    }

    /// The guaranteed lower tiers advertised beside `max_tier`, fastest
    /// first.
    fn lower_tiers(&self, max_tier: &CatalogTier) -> impl Iterator<Item = &'static CatalogTier> {
        // Guaranteed lower tiers are also advertised — but only where the
        // best offer is itself a committed wireline tier. Addresses whose
        // best offer is an unguaranteed product (Internet Air, Frontier
        // Internet, tier-less subscriber pages) have no wireline
        // alternative; that is exactly why the paper classifies them
        // non-compliant (§4.2). The two fastest qualify, earlier catalog
        // entries winning speed ties.
        let mut lower: [Option<&'static CatalogTier>; 2] = [None, None];
        if max_tier.guaranteed {
            let max_down = max_tier.download_mbps.unwrap_or(0.0);
            let faster = |down: f64, slot: Option<&CatalogTier>| {
                slot.is_none_or(|t| down > t.download_mbps.unwrap_or(0.0))
            };
            for tier in self.tiers.iter().filter(|t| t.guaranteed) {
                let Some(down) = tier.download_mbps.filter(|&d| d < max_down) else {
                    continue;
                };
                if faster(down, lower[0]) {
                    lower = [Some(tier), lower[0]];
                } else if faster(down, lower[1]) {
                    lower[1] = Some(tier);
                }
            }
        }
        lower.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_isp_has_a_catalog_with_valid_prices() {
        for isp in Isp::all() {
            let cat = PlanCatalog::for_isp(isp);
            assert_eq!(cat.isp(), isp);
            assert!(!cat.tiers().is_empty());
            for t in cat.tiers() {
                assert!(t.monthly_usd > 0.0, "{isp} {}", t.label);
                if let Some(d) = t.download_mbps {
                    assert!(d > 0.0);
                }
            }
        }
    }

    #[test]
    fn ten_mbps_tiers_priced_30_to_55_like_the_paper() {
        // §4.2: "prices offered by our analyzed ISPs, for the tier of
        // 10 Mbps (download), ranged from $30 to $55 per month".
        for isp in Isp::audited() {
            let cat = PlanCatalog::for_isp(isp);
            let tier = cat.tier_near(10.0);
            assert!(
                (30.0..=55.0).contains(&tier.monthly_usd),
                "{isp}: ${}",
                tier.monthly_usd
            );
        }
    }

    #[test]
    fn unguaranteed_plans_fail_the_service_standard() {
        let att = PlanCatalog::for_isp(Isp::Att);
        let air = att.tier_labeled("AT&T Internet Air").unwrap();
        let plan = att.plan_from_tier(air);
        // Advertises 40 Mbps but guarantees nothing.
        assert!(!plan.meets_service_standard(10.0, 1.0));

        let frontier = PlanCatalog::for_isp(Isp::Frontier);
        let fi = frontier.plan_from_tier(frontier.tier_labeled("Frontier Internet").unwrap());
        assert!(!fi.meets_service_standard(10.0, 1.0));
        let unknown = frontier.plan_from_tier(frontier.tier_labeled("Unknown Plan").unwrap());
        assert!(!unknown.meets_service_standard(10.0, 1.0));
        assert_eq!(unknown.carriage_value(), None);
    }

    #[test]
    fn guaranteed_ten_one_plans_pass() {
        for isp in Isp::audited() {
            let cat = PlanCatalog::for_isp(isp);
            let tier = cat.tier_near(10.0);
            let plan = cat.plan_from_tier(tier);
            assert!(
                plan.meets_service_standard(10.0, 1.0),
                "{isp}: {}",
                plan.name
            );
        }
    }

    #[test]
    fn sub_ten_tiers_fail_the_speed_floor() {
        let cl = PlanCatalog::for_isp(Isp::CenturyLink);
        let slow = cl.plan_from_tier(cl.tier_labeled("DSL 3").unwrap());
        assert!(!slow.meets_service_standard(10.0, 1.0));
    }

    #[test]
    fn carriage_value_shape() {
        let cl = PlanCatalog::for_isp(Isp::CenturyLink);
        let fiber = cl.plan_from_tier(cl.tier_labeled("Fiber 940").unwrap());
        let dsl = cl.plan_from_tier(cl.tier_labeled("Simply Internet 10").unwrap());
        // Fiber carries far more Mbps per dollar.
        assert!(fiber.carriage_value().unwrap() > 10.0 * dsl.carriage_value().unwrap());
    }

    #[test]
    fn tier_near_picks_closest() {
        let cat = PlanCatalog::for_isp(Isp::Att);
        assert_eq!(cat.tier_near(9.0).label, "Internet 10");
        assert_eq!(cat.tier_near(4000.0).label, "Fiber 5000");
        assert_eq!(cat.tier_near(0.5).label, "DSL 768k");
    }

    /// The lower-tier rule as `TruthDraw::materialize` applied it per
    /// draw before offers were tabled: the oracle for
    /// [`PlanCatalog::offer`].
    fn materialized_plans(catalog: &PlanCatalog, max_tier: &CatalogTier) -> Vec<BroadbandPlan> {
        let mut lower: [Option<&CatalogTier>; 2] = [None, None];
        if max_tier.guaranteed {
            let max_down = max_tier.download_mbps.unwrap_or(0.0);
            let faster = |down: f64, slot: Option<&CatalogTier>| {
                slot.is_none_or(|t| down > t.download_mbps.unwrap_or(0.0))
            };
            for tier in catalog.tiers().iter().filter(|t| t.guaranteed) {
                let Some(down) = tier.download_mbps.filter(|&d| d < max_down) else {
                    continue;
                };
                if faster(down, lower[0]) {
                    lower = [Some(tier), lower[0]];
                } else if faster(down, lower[1]) {
                    lower[1] = Some(tier);
                }
            }
        }
        let mut plans = Vec::with_capacity(1 + lower.iter().flatten().count());
        plans.push(catalog.plan_from_tier(max_tier));
        plans.extend(
            lower
                .into_iter()
                .flatten()
                .map(|t| catalog.plan_from_tier(t)),
        );
        plans
    }

    #[test]
    fn every_offer_equals_the_materialized_plans() {
        for isp in Isp::all() {
            let catalog = PlanCatalog::for_isp(isp);
            for tier in catalog.tiers() {
                let offer = catalog.offer(tier);
                assert_eq!(
                    offer,
                    materialized_plans(&catalog, tier),
                    "{isp} {}",
                    tier.label
                );
                // One table per catalog: a second call (or a copied
                // tier) borrows the same list.
                let copy = *tier;
                assert!(std::ptr::eq(offer, catalog.offer(&copy)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "belongs to its catalog")]
    fn an_offer_of_another_catalogs_tier_panics() {
        let att = PlanCatalog::for_isp(Isp::Att);
        let xfinity = PlanCatalog::for_isp(Isp::Xfinity);
        att.offer(&xfinity.tiers()[0]);
    }

    #[test]
    fn display_formats() {
        let cat = PlanCatalog::for_isp(Isp::Frontier);
        let p = cat.plan_from_tier(cat.tier_labeled("Fiber 1 Gig").unwrap());
        assert_eq!(p.to_string(), "Fiber 1 Gig (1000 Mbps, $70.00/mo)");
        let u = cat.plan_from_tier(cat.tier_labeled("Unknown Plan").unwrap());
        assert!(u.to_string().contains("unspecified speed"));
    }
}
