//! # caf-obs — zero-overhead telemetry for the audit pipeline
//!
//! The engine and the BQT campaign are deterministic black boxes without
//! this crate: no per-stage timings, no retry counters, no way to see
//! where wall-clock goes at higher worker counts. `caf-obs` makes the
//! pipeline observable without touching its outputs:
//!
//! * [`span`](fn@span) / [`span_with`] — hierarchical scoped timers. Spans nest
//!   per thread (a thread-local path stack joins names with `/`) and
//!   aggregate per path: count, total, min, max, and log-bucket
//!   histogram quantiles (p50/p99).
//! * [`metrics`] — a registry of named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s, all plain atomics. Names follow the
//!   `caf.<crate>.<subsystem>.<name>` convention (see DESIGN.md).
//! * [`report`] — [`RunReport`] snapshots the registry into a stable,
//!   sorted JSON schema (`{ meta, metrics, spans }`) plus a
//!   human-readable summary table; `validate_report_json` is the schema
//!   gate `ci.sh` runs against `repro --metrics` output.
//! * [`trace`] — caf-trace: per-request trace contexts with explicit
//!   cross-thread handoff, span-event capture, and a bounded
//!   [`FlightRecorder`] (recent ring + slow/error keep list) behind
//!   `caf-serve`'s `/v1/debug/traces`.
//! * [`prometheus`] — [`render_prometheus`] text exposition of the
//!   registry (`/metrics?format=prometheus`).
//! * [`slo`] — per-route [`Slo`] objects whose burn counters
//!   `metrics_check --max-slo-burn` gates in CI.
//!
//! # The zero-overhead contract
//!
//! Telemetry is globally off by default. Every instrumentation entry
//! point ([`span`](fn@span), [`count`], [`gauge`], [`observe`]) first performs a
//! single relaxed atomic load ([`enabled`]) and returns immediately when
//! telemetry is off — no allocation, no clock read, no lock. Turning it
//! on ([`set_enabled`]) only ever *observes* the pipeline: nothing in
//! this crate feeds back into audit results, so the engine's determinism
//! contract (byte-identical output at any worker count, telemetry on or
//! off) is preserved. `crates/tests/tests/determinism.rs` pins this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod report;
pub mod slo;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use prometheus::render_prometheus;
pub use report::{validate_report_json, RunReport};
pub use slo::Slo;
pub use span::{span, span_with, SpanGuard};
pub use trace::{FlightRecorder, TraceCtx, TraceGuard, TraceId};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Turns global telemetry collection on or off. Off is the default; the
/// cost of leaving it off is one relaxed atomic load per call site.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently collected (a relaxed atomic load — the
/// entire zero-subscriber cost).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global registry all instrumentation records into. Lives for the
/// process; [`Registry::reset`] clears it between runs.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `delta` to the named global counter. No-op while disabled.
pub fn count(name: &str, delta: u64) {
    if enabled() {
        registry().count(name, delta);
    }
}

/// Sets the named global gauge. No-op while disabled.
pub fn gauge(name: &str, value: u64) {
    if enabled() {
        registry().set_gauge(name, value);
    }
}

/// Records one observation into the named global histogram. No-op while
/// disabled.
pub fn observe(name: &str, value: u64) {
    if enabled() {
        registry().observe(name, value);
    }
}

/// Serializes unit tests that toggle the global [`enabled`] flag — they
/// share one process, so unsynchronized toggling would race.
#[cfg(test)]
pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_flag_gates_the_free_functions() {
        let _lock = flag_lock();
        set_enabled(false);
        count("caf.test.lib.disabled_counter", 5);
        gauge("caf.test.lib.disabled_gauge", 5);
        observe("caf.test.lib.disabled_hist", 5);
        let snap = registry().metrics_snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|(n, _)| n == "caf.test.lib.disabled_counter"));
        assert!(!snap
            .gauges
            .iter()
            .any(|(n, _)| n == "caf.test.lib.disabled_gauge"));
        assert!(!snap
            .histograms
            .iter()
            .any(|(n, _)| n == "caf.test.lib.disabled_hist"));

        set_enabled(true);
        assert!(enabled());
        count("caf.test.lib.enabled_counter", 5);
        count("caf.test.lib.enabled_counter", 2);
        let snap = registry().metrics_snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "caf.test.lib.enabled_counter" && *v == 7));
        set_enabled(false);
    }
}
