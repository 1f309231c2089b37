//! The query client: retry loop over website attempts.
//!
//! One client drives one browser context: it looks up the latent truth
//! for the (address, ISP) pair, walks the ISP's page flow, and on a
//! transient error rotates its proxy IP and retries up to a configurable
//! budget (§3.2: "we rerun failed queries multiple times and rotate
//! through the pool of IP addresses"). If every attempt fails, the
//! address is classified Unknown under its dominant traceback category.

use caf_geo::AddressId;
use caf_synth::params::ErrorCategory;
use caf_synth::rng::mix2;
use caf_synth::rng::scoped_rng;
use caf_synth::{AddressTruth, Isp, TruthTable};

use crate::outcome::{QueryOutcome, QueryRecord};
use crate::proxy::ProxyPool;
use crate::timing::{attempt_duration_secs, RETRY_OVERHEAD_SECS};
use crate::website::{walk, AttemptResult};

/// A query client with its own proxy pool.
#[derive(Debug)]
pub struct QueryClient {
    seed: u64,
    max_attempts: u32,
    pool: ProxyPool,
}

impl QueryClient {
    /// Creates a client. `max_attempts` bounds the retry loop (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(seed: u64, max_attempts: u32, pool: ProxyPool) -> QueryClient {
        assert!(max_attempts >= 1, "need at least one attempt");
        QueryClient {
            seed,
            max_attempts,
            pool,
        }
    }

    /// This client's proxy pool telemetry.
    pub fn pool(&self) -> &ProxyPool {
        &self.pool
    }

    /// Queries one (address, ISP) pair against the latent truth.
    ///
    /// An address with no truth entry is outside the ISP's footprint
    /// entirely: the site cannot resolve it, which surfaces as an Unknown
    /// after the retry budget (the paper's resampling trigger).
    pub fn query(&mut self, truth: &TruthTable, address: AddressId, isp: Isp) -> QueryRecord {
        self.query_with_attempts(truth, address, isp, self.max_attempts)
    }

    /// Like [`QueryClient::query`] but with an explicit retry budget,
    /// overriding the client default. Adaptive campaigns size the budget
    /// per ISP from its calibrated transient-error rate; the RNG stream
    /// is still keyed only by (seed, address, ISP), so two clients with
    /// different budgets agree on every attempt they both make.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn query_with_attempts(
        &mut self,
        truth: &TruthTable,
        address: AddressId,
        isp: Isp,
        max_attempts: u32,
    ) -> QueryRecord {
        let unresolvable = AddressTruth {
            hard_failure: true,
            ..AddressTruth::unserved()
        };
        let address_truth = truth.get(address, isp);
        let address_truth = address_truth.as_deref().unwrap_or(&unresolvable);
        self.query_truth(address_truth, address, isp, max_attempts)
    }

    /// Queries one (address, ISP) pair whose latent truth the caller
    /// already holds, with an explicit retry budget: the retry loop of
    /// [`QueryClient::query_with_attempts`] without the table lookup.
    /// The attempts walk the page flow with no page recorder.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn query_truth(
        &mut self,
        address_truth: &AddressTruth,
        address: AddressId,
        isp: Isp,
        max_attempts: u32,
    ) -> QueryRecord {
        assert!(max_attempts >= 1, "need at least one attempt");
        // Per-(address, ISP) RNG: outcome identical under any scheduling.
        let mut rng = scoped_rng(self.seed, "bqt-query", mix2(address.0, isp.id(), 7));
        let mut errors: Vec<ErrorCategory> = Vec::new();
        let mut duration = 0.0;
        for attempt_no in 1..=max_attempts {
            let _ip = self.pool.acquire();
            duration += attempt_duration_secs(&mut rng, isp);
            match walk(&mut rng, isp, address_truth, &mut ()) {
                AttemptResult::Response(outcome) => {
                    return QueryRecord {
                        address,
                        isp,
                        outcome,
                        attempts: attempt_no,
                        errors,
                        duration_secs: duration,
                    };
                }
                AttemptResult::TransientError(category) => {
                    errors.push(category);
                    self.pool.rotate_on_error();
                    duration += RETRY_OVERHEAD_SECS;
                }
            }
        }
        // Retry budget exhausted: Unknown, classified by the most frequent
        // traceback category (ties broken by first occurrence).
        let dominant = dominant_category(&errors);
        QueryRecord {
            address,
            isp,
            outcome: QueryOutcome::Unknown(dominant),
            attempts: max_attempts,
            errors,
            duration_secs: duration,
        }
    }
}

/// The most frequent error category, ties broken by first occurrence.
fn dominant_category(errors: &[ErrorCategory]) -> ErrorCategory {
    let mut best = ErrorCategory::Other;
    let mut best_count = 0usize;
    for &candidate in errors {
        let count = errors.iter().filter(|&&e| e == candidate).count();
        if count > best_count {
            best = candidate;
            best_count = count;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_synth::PlanCatalog;
    use std::borrow::Cow;

    fn client(seed: u64) -> QueryClient {
        QueryClient::new(seed, 3, ProxyPool::new(seed, 8))
    }

    fn table_with(addr: u64, isp: Isp, truth: AddressTruth) -> TruthTable {
        let mut t = TruthTable::new();
        t.insert(AddressId(addr), isp, truth);
        t
    }

    fn served(isp: Isp) -> AddressTruth {
        let cat = PlanCatalog::for_isp(isp);
        let tier = cat.tier_near(100.0);
        AddressTruth {
            served: true,
            plans: vec![cat.plan_from_tier(tier)].into(),
            existing_subscriber: false,
            hard_failure: false,
            ambiguous: false,
        }
    }

    #[test]
    fn served_address_resolves_serviceable() {
        let truth = table_with(1, Isp::CenturyLink, served(Isp::CenturyLink));
        // Try several addresses/seeds; most must resolve Serviceable.
        let mut ok = 0;
        for seed in 0..20 {
            let mut c = client(seed);
            let rec = c.query(&truth, AddressId(1), Isp::CenturyLink);
            if rec.outcome.is_served() == Some(true) {
                ok += 1;
                assert!(rec.attempts >= 1 && rec.attempts <= 3);
                assert!(rec.duration_secs > 0.0);
            }
        }
        assert!(ok >= 17, "only {ok}/20 resolved");
    }

    #[test]
    fn serviceable_outcomes_borrow_the_truths_offer() {
        let cat = PlanCatalog::for_isp(Isp::CenturyLink);
        let offer = cat.offer(cat.tier_near(100.0));
        let served = AddressTruth {
            served: true,
            plans: Cow::Borrowed(offer),
            ..AddressTruth::unserved()
        };
        let truth = table_with(1, Isp::CenturyLink, served);
        let mut serviceable = 0;
        for seed in 0..20 {
            let rec = client(seed).query(&truth, AddressId(1), Isp::CenturyLink);
            if let QueryOutcome::Serviceable { plans, .. } = rec.outcome {
                assert!(matches!(plans, Cow::Borrowed(p) if std::ptr::eq(p, offer)));
                serviceable += 1;
            }
        }
        assert!(serviceable >= 17, "only {serviceable}/20 resolved");
    }

    #[test]
    fn hard_failure_exhausts_retries_to_unknown() {
        let truth = table_with(
            2,
            Isp::Frontier,
            AddressTruth {
                hard_failure: true,
                ..AddressTruth::unserved()
            },
        );
        let mut c = client(1);
        let rec = c.query(&truth, AddressId(2), Isp::Frontier);
        assert_eq!(
            rec.outcome,
            QueryOutcome::Unknown(ErrorCategory::SelectDropdown)
        );
        assert_eq!(rec.attempts, 3);
        assert_eq!(rec.errors.len(), 3);
        // Each failed attempt rotated the proxy.
        assert_eq!(
            c.pool()
                .endpoints()
                .iter()
                .map(|e| e.error_rotations)
                .sum::<u64>(),
            3
        );
    }

    #[test]
    fn missing_truth_is_unknown() {
        let truth = TruthTable::new();
        let mut c = client(1);
        let rec = c.query(&truth, AddressId(42), Isp::Att);
        assert!(matches!(rec.outcome, QueryOutcome::Unknown(_)));
    }

    #[test]
    fn query_is_deterministic_per_address_seed() {
        let truth = table_with(7, Isp::Att, served(Isp::Att));
        let mut c1 = QueryClient::new(5, 3, ProxyPool::new(0, 4));
        let mut c2 = QueryClient::new(5, 3, ProxyPool::new(99, 16));
        let r1 = c1.query(&truth, AddressId(7), Isp::Att);
        let r2 = c2.query(&truth, AddressId(7), Isp::Att);
        // Different pools, same outcome, duration, and attempt count.
        assert_eq!(r1, r2);
    }

    #[test]
    fn retries_accumulate_duration() {
        // Find a seed where the first attempt errors but a retry succeeds.
        let truth = table_with(9, Isp::Consolidated, served(Isp::Consolidated));
        for seed in 0..200 {
            let mut c = client(seed);
            let rec = c.query(&truth, AddressId(9), Isp::Consolidated);
            if rec.attempts > 1 && rec.outcome.is_definitive() {
                assert!(!rec.errors.is_empty());
                assert!(rec.duration_secs > RETRY_OVERHEAD_SECS);
                return;
            }
        }
        panic!("no retry-then-success case found in 200 seeds");
    }

    #[test]
    fn explicit_budget_agrees_with_default_on_successes() {
        // A query that succeeds within the smaller budget must be
        // byte-identical under any larger budget: the RNG stream is keyed
        // by (seed, address, ISP), not by the budget.
        let truth = table_with(1, Isp::CenturyLink, served(Isp::CenturyLink));
        for seed in 0..20 {
            let mut a = client(seed);
            let mut b = client(seed);
            let small = a.query_with_attempts(&truth, AddressId(1), Isp::CenturyLink, 3);
            let large = b.query_with_attempts(&truth, AddressId(1), Isp::CenturyLink, 9);
            if small.outcome.is_definitive() {
                assert_eq!(small, large);
            }
        }
    }

    #[test]
    fn dominant_category_majority_and_tiebreak() {
        use ErrorCategory::*;
        assert_eq!(
            dominant_category(&[SelectDropdown, EmptyTraceback, SelectDropdown]),
            SelectDropdown
        );
        assert_eq!(
            dominant_category(&[EmptyTraceback, SelectDropdown]),
            EmptyTraceback
        );
        assert_eq!(dominant_category(&[]), Other);
    }
}
