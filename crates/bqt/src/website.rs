//! Per-ISP website page flows.
//!
//! §9.2 of the paper documents each ISP's query workflow page by page.
//! This module reproduces those flows as small state machines: a single
//! *attempt* walks the pages an automated browser would visit and ends in
//! either a classified response or a transient error (bot walls, dropdown
//! failures, unclassifiable pages). The walk is driven by the address's
//! latent [`AddressTruth`] and the calibrated error model — the same
//! separation as reality, where the page an ISP serves is a function of
//! the household's actual serviceability plus website flakiness.

use caf_exec::rng::StdRng;
use caf_synth::dist;
use caf_synth::params::{CalibrationParams, ErrorCategory};
use caf_synth::{AddressTruth, Isp};

use crate::outcome::QueryOutcome;

/// A page (or page-level event) in an ISP's query workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Page {
    /// The address search form.
    SearchForm,
    /// The dynamic dropdown address resolver.
    Dropdown,
    /// A page listing available plans.
    PlansPage,
    /// A page explicitly stating no service is available.
    NoServicePage,
    /// A human-verification (CAPTCHA-style) wall — CenturyLink (§9.2).
    HumanVerification,
    /// AT&T's "Call to Order" page.
    CallToOrderPage,
    /// Redirect from CenturyLink to Brightspeed (asset sale, §9.2).
    BrightspeedRedirect,
    /// Redirect from Consolidated to the Fidium purchase flow.
    FidiumRedirect,
    /// The existing-subscriber "modify your service" page.
    ModifyServicePage,
    /// A page saying the (resolved) address could not be found —
    /// Consolidated's stand-in for a no-service page.
    AddressNotFoundPage,
}

/// The result of one attempt: a terminal response or a transient error.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptResult {
    /// The site answered; the outcome is final for this attempt.
    Response(QueryOutcome),
    /// The attempt died; the traceback category explains where.
    TransientError(ErrorCategory),
}

/// The trace of one attempt: pages visited plus the result.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptTrace {
    /// Pages visited, in order.
    pub pages: Vec<Page>,
    /// How the attempt ended.
    pub result: AttemptResult,
}

/// Where [`walk`] notes each page it visits. A `Vec<Page>` keeps them
/// in order; `()` drops them, so a query that needs only the result
/// allocates no page list.
pub trait PageRecorder {
    /// Notes one visited page.
    fn visit(&mut self, page: Page);
}

impl PageRecorder for Vec<Page> {
    fn visit(&mut self, page: Page) {
        self.push(page);
    }
}

impl PageRecorder for () {
    fn visit(&mut self, _page: Page) {}
}

/// Simulates one attempt against `isp`'s website for an address with the
/// given latent truth, returning the pages visited with the result. All
/// randomness comes from `rng` (the per-address stream), keeping
/// campaigns deterministic under any scheduling.
pub fn attempt(rng: &mut StdRng, isp: Isp, truth: &AddressTruth) -> AttemptTrace {
    let mut pages = Vec::new();
    let result = walk(rng, isp, truth, &mut pages);
    AttemptTrace { pages, result }
}

/// The page flow of one attempt: visits each page into `pages` and
/// returns how the attempt ended. [`attempt`] records into a `Vec`; the
/// query client passes `()`. The recorder never touches `rng`, so every
/// recorder sees the same draws and the same result.
pub fn walk(
    rng: &mut StdRng,
    isp: Isp,
    truth: &AddressTruth,
    pages: &mut impl PageRecorder,
) -> AttemptResult {
    pages.visit(Page::SearchForm);
    pages.visit(Page::Dropdown);

    // Hard failures: the resolver never finds the address, every time
    // (§5's Frontier-in-Wisconsin dropdown pathology). CenturyLink's
    // failures instead die behind the human-verification wall with an
    // empty traceback — the only error category in its Table 2 row.
    if truth.hard_failure {
        let category = if isp == Isp::CenturyLink {
            pages.visit(Page::HumanVerification);
            ErrorCategory::EmptyTraceback
        } else {
            ErrorCategory::SelectDropdown
        };
        return AttemptResult::TransientError(category);
    }

    // Transient flakiness: bot walls, UI drift, unclassifiable pages.
    if dist::bernoulli(rng, CalibrationParams::transient_error_rate(isp)) {
        let weights = CalibrationParams::error_category_weights(isp);
        let idx = dist::categorical(rng, &weights);
        let category = ErrorCategory::all()[idx];
        // Page context for the error, per ISP (§9.2).
        match (isp, category) {
            (Isp::CenturyLink, _) => pages.visit(Page::HumanVerification),
            (_, ErrorCategory::ClickingButton) => pages.visit(Page::PlansPage),
            _ => {}
        }
        return AttemptResult::TransientError(category);
    }

    // AT&T's ambiguous flow.
    if truth.ambiguous && isp == Isp::Att {
        pages.visit(Page::CallToOrderPage);
        return AttemptResult::Response(QueryOutcome::CallToOrder);
    }

    if truth.served {
        // CenturyLink hands some CAF obligations to Brightspeed: the CL
        // site redirects and the Brightspeed site shows the plans.
        if isp == Isp::CenturyLink && dist::bernoulli(rng, 0.35) {
            pages.visit(Page::BrightspeedRedirect);
        }
        // Consolidated's fiber footprint redirects to Fidium.
        if isp == Isp::Consolidated
            && truth
                .max_tier_plan()
                .is_some_and(|p| p.name.starts_with("Fidium"))
        {
            pages.visit(Page::FidiumRedirect);
        }
        if truth.existing_subscriber {
            pages.visit(Page::ModifyServicePage);
        }
        pages.visit(Page::PlansPage);
        AttemptResult::Response(QueryOutcome::Serviceable {
            plans: truth.plans.clone(),
            existing_subscriber: truth.existing_subscriber,
        })
    } else if isp == Isp::Consolidated {
        // Consolidated never shows an explicit no-service page (§9.2): the
        // resolved address lands on "address not found" instead.
        pages.visit(Page::AddressNotFoundPage);
        AttemptResult::Response(QueryOutcome::AddressNotFound)
    } else {
        pages.visit(Page::NoServicePage);
        AttemptResult::Response(QueryOutcome::NoService)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_exec::prop;
    use caf_synth::{BroadbandPlan, PlanCatalog};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn served_truth(isp: Isp, tier_label: &str, subscriber: bool) -> AddressTruth {
        let cat = PlanCatalog::for_isp(isp);
        let tier = cat.tier_labeled(tier_label).expect("tier exists");
        AddressTruth {
            served: true,
            plans: vec![cat.plan_from_tier(tier)].into(),
            existing_subscriber: subscriber,
            hard_failure: false,
            ambiguous: false,
        }
    }

    /// Runs attempts until a terminal response is seen (skipping
    /// transient errors), panicking after 100 tries.
    fn eventually_responds(isp: Isp, truth: &AddressTruth) -> (Vec<Page>, QueryOutcome) {
        let mut r = rng();
        for _ in 0..100 {
            let trace = attempt(&mut r, isp, truth);
            if let AttemptResult::Response(outcome) = trace.result {
                return (trace.pages, outcome);
            }
        }
        panic!("no terminal response in 100 attempts");
    }

    /// The recorder-free walk the client runs and [`attempt`] make the
    /// same draws: over seeds, ISPs and truth shapes (served at any
    /// catalog tier or not, with any of the subscriber, hard-failure and
    /// ambiguous flags), each of a few consecutive attempts ends alike
    /// and the two streams end in the same state.
    #[test]
    fn recorder_free_walk_matches_attempt() {
        let shapes = (
            0u64..u64::MAX,
            prop::select(Isp::all().to_vec()),
            0usize..64,
            prop::any_bool(),
            0u8..8,
        );
        prop::check(512, shapes, |(seed, isp, tier, served, flags)| {
            let catalog = PlanCatalog::for_isp(isp);
            let tiers = catalog.tiers();
            let truth = AddressTruth {
                served,
                plans: if served {
                    vec![catalog.plan_from_tier(&tiers[tier % tiers.len()])].into()
                } else {
                    Default::default()
                },
                existing_subscriber: flags & 1 != 0,
                hard_failure: flags & 2 != 0,
                ambiguous: flags & 4 != 0,
            };
            let (mut traced, mut bare) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..4 {
                let trace = attempt(&mut traced, isp, &truth);
                assert_eq!(walk(&mut bare, isp, &truth, &mut ()), trace.result);
            }
            assert_eq!(traced.next_u64(), bare.next_u64());
        });
    }

    #[test]
    fn hard_failure_always_dies_in_the_dropdown() {
        let truth = AddressTruth {
            hard_failure: true,
            ..AddressTruth::unserved()
        };
        let mut r = rng();
        for isp in Isp::bqt_supported() {
            let trace = attempt(&mut r, isp, &truth);
            if isp == Isp::CenturyLink {
                // CL's hard failures die behind the verification wall.
                assert_eq!(
                    trace.result,
                    AttemptResult::TransientError(ErrorCategory::EmptyTraceback)
                );
                assert!(trace.pages.contains(&Page::HumanVerification));
            } else {
                assert_eq!(
                    trace.result,
                    AttemptResult::TransientError(ErrorCategory::SelectDropdown)
                );
                assert_eq!(trace.pages, vec![Page::SearchForm, Page::Dropdown]);
            }
        }
    }

    #[test]
    fn served_address_reaches_plans_page() {
        let truth = served_truth(Isp::Frontier, "Fiber 1 Gig", false);
        let (pages, outcome) = eventually_responds(Isp::Frontier, &truth);
        assert!(pages.contains(&Page::PlansPage));
        assert_eq!(outcome.is_served(), Some(true));
        assert_eq!(outcome.max_download_mbps(), Some(1000.0));
    }

    #[test]
    fn unserved_gets_no_service_except_consolidated() {
        let truth = AddressTruth::unserved();
        let (pages, outcome) = eventually_responds(Isp::Att, &truth);
        assert!(pages.contains(&Page::NoServicePage));
        assert_eq!(outcome, QueryOutcome::NoService);

        let (pages, outcome) = eventually_responds(Isp::Consolidated, &truth);
        assert!(pages.contains(&Page::AddressNotFoundPage));
        assert_eq!(outcome, QueryOutcome::AddressNotFound);
        assert_eq!(outcome.is_served(), Some(false));
    }

    #[test]
    fn att_ambiguous_goes_to_call_to_order() {
        let mut truth = served_truth(Isp::Att, "Internet 25", false);
        truth.ambiguous = true;
        let (pages, outcome) = eventually_responds(Isp::Att, &truth);
        assert!(pages.contains(&Page::CallToOrderPage));
        assert_eq!(outcome, QueryOutcome::CallToOrder);
    }

    #[test]
    fn subscriber_flow_visits_modify_service() {
        let truth = served_truth(Isp::Consolidated, "Internet 50", true);
        let (pages, outcome) = eventually_responds(Isp::Consolidated, &truth);
        assert!(pages.contains(&Page::ModifyServicePage));
        match outcome {
            QueryOutcome::Serviceable {
                existing_subscriber,
                ..
            } => assert!(existing_subscriber),
            other => panic!("expected serviceable, got {other:?}"),
        }
    }

    #[test]
    fn fidium_tier_redirects() {
        let truth = served_truth(Isp::Consolidated, "Fidium 1 Gig", false);
        let (pages, _) = eventually_responds(Isp::Consolidated, &truth);
        assert!(pages.contains(&Page::FidiumRedirect));
    }

    #[test]
    fn brightspeed_redirect_happens_sometimes() {
        let truth = served_truth(Isp::CenturyLink, "Fiber 940", false);
        let mut r = rng();
        let mut redirects = 0;
        let mut responses = 0;
        for _ in 0..400 {
            let trace = attempt(&mut r, Isp::CenturyLink, &truth);
            if let AttemptResult::Response(_) = trace.result {
                responses += 1;
                if trace.pages.contains(&Page::BrightspeedRedirect) {
                    redirects += 1;
                }
            }
        }
        let frac = redirects as f64 / responses as f64;
        assert!((0.2..0.5).contains(&frac), "redirect fraction {frac}");
    }

    #[test]
    fn error_rates_match_calibration() {
        let truth = served_truth(Isp::Att, "Internet 25", false);
        let mut r = rng();
        let n = 5_000;
        let errors = (0..n)
            .filter(|_| {
                matches!(
                    attempt(&mut r, Isp::Att, &truth).result,
                    AttemptResult::TransientError(_)
                )
            })
            .count();
        let rate = errors as f64 / n as f64;
        let expected = CalibrationParams::transient_error_rate(Isp::Att);
        assert!((rate - expected).abs() < 0.03, "rate {rate} vs {expected}");
    }

    #[test]
    fn centurylink_errors_show_human_verification() {
        let truth = served_truth(Isp::CenturyLink, "DSL 6", false);
        let mut r = rng();
        for _ in 0..2_000 {
            let trace = attempt(&mut r, Isp::CenturyLink, &truth);
            if let AttemptResult::TransientError(cat) = trace.result {
                assert_eq!(cat, ErrorCategory::EmptyTraceback); // Table 2 row
                assert!(trace.pages.contains(&Page::HumanVerification));
                return;
            }
        }
        panic!("never saw a CenturyLink error in 2000 attempts");
    }

    #[test]
    fn unspecified_speed_plan_roundtrips() {
        let cat = PlanCatalog::for_isp(Isp::Frontier);
        let unknown: BroadbandPlan = cat.plan_from_tier(cat.tier_labeled("Unknown Plan").unwrap());
        let truth = AddressTruth {
            served: true,
            plans: vec![unknown].into(),
            existing_subscriber: true,
            hard_failure: false,
            ambiguous: false,
        };
        let (_, outcome) = eventually_responds(Isp::Frontier, &truth);
        assert_eq!(outcome.max_download_mbps(), None);
        assert_eq!(outcome.is_served(), Some(true));
    }
}
