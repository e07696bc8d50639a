//! Transient-computing checkpoint strategies — the systems surveyed in
//! Section II.B and Section III of the paper.
//!
//! A *transient* system keeps operating correctly even though Eq. (2)
//! (`V_cc ≥ V_min ∀t`) is violated: it snapshots volatile state to NVM and
//! resumes after the outage. This crate implements every strategy the paper
//! discusses against the simulated MCU:
//!
//! | Strategy | Paper reference | Checkpoint trigger |
//! |---|---|---|
//! | [`Restart`] | baseline | none — recompute from scratch |
//! | [`Mementos`] | \[7\] | compile-time sites (`Mark`) + voltage poll |
//! | [`Hibernus`] | \[9\], Section III | `V_H` voltage interrupt (Eq. 4) |
//! | [`HibernusPP`] | \[2\] (Hibernus++) | as Hibernus, self-calibrating |
//! | [`QuickRecall`] | \[8\] | voltage interrupt, unified FRAM |
//! | [`Nvp`] | \[10\] | voltage interrupt, NV flip-flops |
//! | [`HibernusPn`] | \[14\], Fig. 8 | Hibernus + DFS power-neutral governor |
//! | [`burst::EnergyBurstRunner`] | \[4\]\[5\]\[6\] | task-based energy bursts |
//!
//! The shared execution harness is [`TransientRunner`]: a fixed-timestep
//! loop coupling an energy source, the supply node, the hysteretic voltage
//! monitor, and the strategy's decisions.
//!
//! # Examples
//!
//! Running a computation across an intermittent supply with Hibernus (the
//! paper's Fig. 7 setup, with a half-wave rectified sine source):
//!
//! ```
//! use edc_transient::{Hibernus, RunOutcome, TransientRunner};
//! use edc_units::{Amps, Farads, Seconds, Volts};
//! use edc_workloads::{BusyLoop, Workload};
//!
//! let workload = BusyLoop::new(2000);
//! let mut runner = TransientRunner::builder()
//!     .capacitance(Farads::from_micro(10.0))
//!     .strategy(Box::new(Hibernus::new()))
//!     .program(workload.program())
//!     .source(|v, t| {
//!         let v_oc = (4.0 * (std::f64::consts::TAU * 2.0 * t.0).sin()).max(0.0);
//!         Amps(((v_oc - v.0) / 100.0).max(0.0))
//!     })
//!     .build();
//! let outcome = runner.run_until_complete(Seconds(10.0));
//! assert_eq!(outcome, RunOutcome::Completed);
//! workload.verify(runner.mcu()).expect("result survives outages");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod crossover;
mod hibernus;
mod hibernus_pp;
mod mementos;
mod nvp;
mod quickrecall;
mod restart;
mod runner;

pub use hibernus::{Hibernus, HibernusPn};
pub use hibernus_pp::HibernusPP;
pub use mementos::Mementos;
pub use nvp::Nvp;
pub use quickrecall::QuickRecall;
pub use restart::Restart;
pub use runner::{RunOutcome, RunnerBuilder, RunnerStats, TransientRunner};

use edc_mcu::{ExecutionResidence, Mcu, PowerModel};
use edc_units::{Farads, Volts};

/// Strategy response to the `V_H` falling-edge interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowVoltageResponse {
    /// Snapshot now and sleep until the supply recovers (Hibernus family).
    Hibernate,
    /// No interrupt support — keep running and risk the brownout (Mementos,
    /// restart).
    Ignore,
}

/// Strategy response at a compile-time checkpoint site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerResponse {
    /// Snapshot here, then continue executing.
    Checkpoint,
    /// Fall through.
    Continue,
}

/// What the strategy learned from a snapshot attempt — the observation
/// Hibernus++ uses for its on-line calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotObservation {
    /// Rail voltage when the snapshot began.
    pub v_before: Volts,
    /// Rail voltage after the snapshot's energy was drawn.
    pub v_after: Volts,
    /// Energy the snapshot consumed.
    pub energy: edc_units::Joules,
    /// Whether the frame sealed.
    pub completed: bool,
}

/// A transient-computing checkpoint policy.
///
/// The [`TransientRunner`] consults the strategy at each decision point; the
/// strategy never touches the supply directly, mirroring the software/
/// hardware split on real platforms.
pub trait Strategy {
    /// Display name used in tables.
    fn name(&self) -> &str;

    /// Memory configuration this strategy requires.
    fn residence(&self) -> ExecutionResidence {
        ExecutionResidence::Sram
    }

    /// Hardware power model this strategy requires (NVP's shadow cells);
    /// `None` keeps the platform default.
    fn power_model(&self) -> Option<PowerModel> {
        None
    }

    /// Initial `(V_H, V_R)` comparator thresholds given the platform.
    /// Takes `&mut self` so strategies can retain calibration state.
    fn thresholds(&mut self, mcu: &Mcu, c: Farads, v_min: Volts, v_max: Volts) -> (Volts, Volts);

    /// `true` when the runner should yield at `Mark` sites.
    fn wants_markers(&self) -> bool {
        false
    }

    /// Response to the falling-edge voltage interrupt.
    fn on_low_voltage(&mut self) -> LowVoltageResponse {
        LowVoltageResponse::Ignore
    }

    /// Decision at a marker site, given the present rail voltage.
    fn on_marker(&mut self, _v: Volts) -> MarkerResponse {
        MarkerResponse::Continue
    }

    /// Whether to restore a sealed snapshot at boot (all real strategies do;
    /// the restart baseline does not).
    fn restores_snapshots(&self) -> bool {
        true
    }

    /// Observation hook after each snapshot attempt; may return retuned
    /// `(V_H, V_R)` thresholds (Hibernus++).
    fn after_snapshot(&mut self, _obs: SnapshotObservation) -> Option<(Volts, Volts)> {
        None
    }

    /// Per-tick adaptation hook (the power-neutral governor adjusts the DFS
    /// clock here).
    fn on_tick(&mut self, _v: Volts, _mcu: &mut Mcu) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_workloads::{BusyLoop, Workload};

    #[test]
    fn strategy_defaults_are_inert() {
        struct Plain;
        impl Strategy for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn thresholds(
                &mut self,
                _mcu: &Mcu,
                _c: Farads,
                v_min: Volts,
                v_max: Volts,
            ) -> (Volts, Volts) {
                (v_min, v_max)
            }
        }
        let mut p = Plain;
        assert_eq!(p.on_low_voltage(), LowVoltageResponse::Ignore);
        assert_eq!(p.on_marker(Volts(2.0)), MarkerResponse::Continue);
        assert!(!p.wants_markers());
        assert!(p.restores_snapshots());
        assert!(p.power_model().is_none());
        assert_eq!(p.residence(), ExecutionResidence::Sram);
        assert!(p
            .after_snapshot(SnapshotObservation {
                v_before: Volts(3.0),
                v_after: Volts(2.5),
                energy: edc_units::Joules(1e-6),
                completed: true,
            })
            .is_none());
        let mut mcu = Mcu::new(BusyLoop::new(1).program());
        p.on_tick(Volts(3.0), &mut mcu); // default: no effect
        assert_eq!(mcu.clock().level(), 3);
    }
}
