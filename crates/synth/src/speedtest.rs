//! Crowdsourced speed-test measurements (the §5 "advertised vs
//! experienced" extension).
//!
//! The paper's first stated limitation is that BQT sees only what ISPs
//! *advertise*; prior work (its reference \[44\]) shows experienced
//! throughput routinely falls short, especially on DSL. This module
//! models the complementary data source the authors name as future work:
//! crowdsourced speed tests (Ookla/M-Lab style) at served addresses.
//!
//! The model: a subscriber at a served address runs `k ~ 1 + Poisson`
//! tests; each test realizes `advertised × delivery_factor × congestion`,
//! where the delivery factor depends on the last-mile technology
//! (DSL under-delivers most, fiber least — the \[44\] finding) and
//! congestion is a time-of-day multiplier. Tests are tagged with an hour
//! so the evening-peak dip is analyzable.

use crate::dist;
use crate::isp::Isp;
use crate::rng::{mix2, scoped_rng};
use crate::truth::TruthTable;
use crate::usac::{Technology, UsacDataset};
use caf_geo::AddressId;

/// One crowdsourced speed-test observation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedTest {
    /// The address the test ran from.
    pub address: AddressId,
    /// The subscriber's ISP.
    pub isp: Isp,
    /// Advertised download speed of the subscribed plan, Mbps.
    pub advertised_mbps: f64,
    /// Measured download throughput, Mbps.
    pub measured_mbps: f64,
    /// Local hour of day (0–23) the test ran.
    pub hour: u8,
    /// Last-mile technology of the certified deployment.
    pub technology: Technology,
}

impl SpeedTest {
    /// Delivery ratio: measured over advertised.
    pub fn delivery_ratio(&self) -> f64 {
        if self.advertised_mbps <= 0.0 {
            0.0
        } else {
            self.measured_mbps / self.advertised_mbps
        }
    }
}

/// Median delivery factor by technology: the fraction of the advertised
/// speed a subscriber typically experiences. DSL's long copper loops
/// under-deliver most; fiber is nearly at par (shape from the paper's
/// reference \[44\] and the FCC's MBA reports).
pub fn delivery_factor(technology: Technology) -> f64 {
    match technology {
        Technology::Dsl => 0.62,
        Technology::FixedWireless => 0.74,
        Technology::Fiber => 0.94,
    }
}

/// Evening-peak congestion multiplier for a given hour.
pub fn congestion_factor(hour: u8) -> f64 {
    match hour {
        19..=22 => 0.82, // evening peak
        23 | 0..=5 => 1.02,
        _ => 0.95,
    }
}

/// Generates speed tests for the served addresses of a state's USAC
/// slice. Only a fraction of addresses host a tester (crowdsourcing is
/// opt-in and biased toward engaged subscribers).
pub fn generate_speedtests(
    seed: u64,
    usac: &UsacDataset,
    truth: &TruthTable,
    participation: f64,
) -> Vec<SpeedTest> {
    assert!(
        (0.0..=1.0).contains(&participation),
        "participation is a probability"
    );
    let mut out = Vec::new();
    for record in &usac.records {
        let Some(address_truth) = truth.get(record.address.id, record.isp) else {
            continue;
        };
        if !address_truth.served {
            continue;
        }
        let Some(advertised) = address_truth.max_download_mbps() else {
            continue; // tier-less plans advertise nothing to measure against
        };
        let mut rng = scoped_rng(
            seed,
            "speedtest",
            mix2(record.address.id.0, record.isp.id(), 3),
        );
        if !dist::bernoulli(&mut rng, participation) {
            continue;
        }
        let tests = 1 + (dist::lognormal(&mut rng, 0.5, 0.8) as usize).min(9);
        for _ in 0..tests {
            let hour = rng.gen_range(0..24u8);
            let base = delivery_factor(record.technology);
            let noise = dist::lognormal(&mut rng, 0.0, 0.18);
            let measured =
                (advertised * base * congestion_factor(hour) * noise).clamp(0.1, advertised * 1.1);
            out.push(SpeedTest {
                address: record.address.id,
                isp: record.isp,
                advertised_mbps: advertised,
                measured_mbps: measured,
                hour,
                technology: record.technology,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geography::StateGeography;
    use crate::params::SynthConfig;
    use caf_geo::UsState;

    fn world_bits() -> (UsacDataset, TruthTable) {
        let cfg = SynthConfig { seed: 3, scale: 30 };
        let geo = StateGeography::build(&cfg, UsState::Vermont);
        let usac = UsacDataset::build(&cfg, &geo);
        let truth = TruthTable::build_q1(&cfg, &geo);
        (usac, truth)
    }

    #[test]
    fn tests_only_at_served_addresses_with_specified_speeds() {
        let (usac, truth) = world_bits();
        let tests = generate_speedtests(3, &usac, &truth, 0.5);
        assert!(!tests.is_empty());
        for t in &tests {
            let at = truth.get(t.address, t.isp).expect("truth exists");
            assert!(at.served);
            assert_eq!(Some(t.advertised_mbps), at.max_download_mbps());
            assert!(t.measured_mbps > 0.0);
            assert!(t.hour < 24);
        }
    }

    #[test]
    fn experienced_falls_short_of_advertised_on_average() {
        let (usac, truth) = world_bits();
        let tests = generate_speedtests(3, &usac, &truth, 0.8);
        let mean_ratio = tests.iter().map(|t| t.delivery_ratio()).sum::<f64>() / tests.len() as f64;
        assert!(
            (0.5..0.95).contains(&mean_ratio),
            "mean delivery ratio {mean_ratio}"
        );
        // DSL under-delivers more than fiber.
        let mean_for = |tech: Technology| {
            let xs: Vec<f64> = tests
                .iter()
                .filter(|t| t.technology == tech)
                .map(|t| t.delivery_ratio())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let dsl = mean_for(Technology::Dsl);
        let fiber = mean_for(Technology::Fiber);
        if dsl > 0.0 && fiber > 0.0 {
            assert!(fiber > dsl + 0.1, "fiber {fiber} vs dsl {dsl}");
        }
    }

    #[test]
    fn evening_peak_is_slower() {
        let (usac, truth) = world_bits();
        let tests = generate_speedtests(3, &usac, &truth, 0.9);
        let mean_at = |pred: &dyn Fn(u8) -> bool| {
            let xs: Vec<f64> = tests
                .iter()
                .filter(|t| pred(t.hour))
                .map(|t| t.delivery_ratio())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let peak = mean_at(&|h| (19..=22).contains(&h));
        let off = mean_at(&|h| h < 6 || h == 23);
        assert!(off > peak, "off-peak {off} should beat peak {peak}");
    }

    #[test]
    fn participation_bounds_respected() {
        let (usac, truth) = world_bits();
        let none = generate_speedtests(3, &usac, &truth, 0.0);
        assert!(none.is_empty());
        let all = generate_speedtests(3, &usac, &truth, 1.0);
        let some = generate_speedtests(3, &usac, &truth, 0.3);
        assert!(some.len() < all.len());
        assert!(!some.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let (usac, truth) = world_bits();
        let a = generate_speedtests(9, &usac, &truth, 0.4);
        let b = generate_speedtests(9, &usac, &truth, 0.4);
        assert_eq!(a, b);
        let c = generate_speedtests(10, &usac, &truth, 0.4);
        assert_ne!(a, c);
    }
}
