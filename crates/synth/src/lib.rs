//! # caf-synth — synthetic data generators
//!
//! The paper's inputs are gated: the USAC CAF-Map is public but frozen in
//! time, the Zillow parcel dataset sits behind a data-use agreement, the
//! FCC Form-477 footprints are enormous, and the ISP websites the
//! broadband-plan querying tool crawled are live services. This crate
//! replaces all four with **seeded synthetic equivalents calibrated to the
//! marginals the paper publishes**, so the downstream pipeline exercises
//! identical code paths on statistically equivalent input (see DESIGN.md
//! §1 for the substitution table).
//!
//! The central object is the [`World`]: a deterministic function of a
//! [`SynthConfig`] that contains, per study state, the census geography,
//! the certified CAF address list (the "USAC dataset"), the Zillow-like
//! non-CAF parcels, the Form-477-like provider footprints, and — crucially
//! — the **latent deployment truth**: which addresses each ISP actually
//! serves and what plans it advertises there. The truth is hidden from the
//! analysis pipeline; only the simulated BQT in `caf-bqt` may look at it,
//! exactly as the real BQT could only observe ISP websites. Tests in
//! `caf-core` then verify the pipeline *recovers* the truth — an
//! end-to-end validity check the paper itself could not run.
//!
//! Everything is deterministic given the seed: entity-keyed sub-seeds (see
//! [`rng`]) make each address's truth independent of generation order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod challenge;
pub mod dist;

pub mod geography;
pub mod isp;
pub mod params;
pub mod q3;
pub mod snap;
pub mod truth;
pub mod usac;
pub mod world;

pub mod plans;
pub mod rng;
pub mod speedtest;

pub use challenge::{ChallengeDelta, ChallengeError, ChallengeSet, Correction, DeltaOutcome};
pub use isp::Isp;
pub use params::{CalibrationParams, SynthConfig};
pub use plans::{BroadbandPlan, PlanCatalog};
pub use q3::{Q3Sink, Q3World};
pub use truth::{AddressTruth, TruthTable};
pub use usac::{CafRecord, LazyUsac, UsacDataset};
pub use world::{StateWorld, World};
