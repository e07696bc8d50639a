//! The transient execution harness: couples an energy source, the supply
//! node, the voltage monitor, the MCU, and a [`Strategy`].
//!
//! This is the software realisation of the paper's Fig. 4 topology — the
//! harvester drives the load directly, with only the node capacitance
//! (decoupling or a small task buffer) in between. Figures 7 and 8 are
//! traces of this loop.

use edc_mcu::{Mcu, PowerState, RunExit};
use edc_power::{MonitorEvent, VoltageMonitor};
use edc_sim::{SupplyNode, TimeSeries};
use edc_telemetry::{Event, Phase, Record, Sink};
use edc_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

use crate::{LowVoltageResponse, MarkerResponse, SnapshotObservation, Strategy};

/// Aggregate statistics of a transient run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunnerStats {
    /// Sealed snapshots taken.
    pub snapshots: u64,
    /// Snapshot attempts that tore (supply died mid-copy).
    pub torn_snapshots: u64,
    /// Successful restores.
    pub restores: u64,
    /// Brownouts (Eq. 2 violations while up).
    pub brownouts: u64,
    /// Cold boots.
    pub boots: u64,
    /// Time spent actively executing.
    pub active_time: Seconds,
    /// Time spent asleep (including hibernation).
    pub sleep_time: Seconds,
    /// Time spent unpowered.
    pub off_time: Seconds,
    /// Total cycles retired by the workload.
    pub cycles: u64,
    /// Completion time of the workload, if reached.
    pub completed_at: Option<Seconds>,
    /// Energy drawn by execution, snapshots and restores.
    pub energy_consumed: Joules,
    /// Simulation timesteps advanced.
    pub ticks: u64,
    /// Instructions retired by the workload.
    pub instructions: u64,
    /// Ticks that banked their whole cycle budget because even the head
    /// instruction could not be funded (see `TransientRunner`'s
    /// `cycle_carry`).
    pub carry_activations: u64,
}

impl RunnerStats {
    /// Fraction of wall-clock time spent executing.
    pub fn duty_cycle(&self) -> f64 {
        let total = self.active_time.0 + self.sleep_time.0 + self.off_time.0;
        if total > 0.0 {
            self.active_time.0 / total
        } else {
            0.0
        }
    }
}

/// Why [`TransientRunner::run_until_complete`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The workload halted.
    Completed,
    /// The deadline passed first.
    DeadlineExpired,
    /// The machine faulted (a bug in strategy or workload).
    Faulted,
}

/// Builder for [`TransientRunner`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
pub struct RunnerBuilder<'a> {
    capacitance: Farads,
    initial_voltage: Volts,
    v_max: Volts,
    dt: Seconds,
    leakage: Option<edc_units::Ohms>,
    trace_decimation: Option<u64>,
    strategy: Option<Box<dyn Strategy + 'a>>,
    program: Option<edc_mcu::isa::Program>,
    source: Option<Box<dyn FnMut(Volts, Seconds) -> Amps + 'a>>,
    sink: Option<Box<dyn Sink + 'a>>,
}

impl<'a> RunnerBuilder<'a> {
    fn new() -> Self {
        Self {
            capacitance: Farads::from_micro(10.0),
            initial_voltage: Volts(0.0),
            v_max: Volts(3.6),
            dt: Seconds(20e-6),
            leakage: None,
            trace_decimation: None,
            strategy: None,
            program: None,
            source: None,
            sink: None,
        }
    }

    /// Adds a board-leakage path across the supply node (real boards bleed
    /// tens of µA; this is what makes the rail collapse fully between
    /// supply cycles in the Fig. 7 waveform).
    pub fn leakage(mut self, r: edc_units::Ohms) -> Self {
        self.leakage = Some(r);
        self
    }

    /// Total supply-node capacitance (decoupling + any added storage).
    pub fn capacitance(mut self, c: Farads) -> Self {
        self.capacitance = c;
        self
    }

    /// Starting rail voltage (default 0 V — cold start).
    pub fn initial_voltage(mut self, v: Volts) -> Self {
        self.initial_voltage = v;
        self
    }

    /// Overvoltage clamp (default 3.6 V).
    pub fn clamp(mut self, v: Volts) -> Self {
        self.v_max = v;
        self
    }

    /// Simulation timestep (default 20 µs).
    pub fn timestep(mut self, dt: Seconds) -> Self {
        self.dt = dt;
        self
    }

    /// Records a decimated `V_cc` trace for figure output.
    pub fn trace(mut self, decimation: u64) -> Self {
        self.trace_decimation = Some(decimation);
        self
    }

    /// The checkpoint strategy (required).
    pub fn strategy(mut self, s: Box<dyn Strategy + 'a>) -> Self {
        self.strategy = Some(s);
        self
    }

    /// The workload program (required).
    pub fn program(mut self, p: edc_mcu::isa::Program) -> Self {
        self.program = Some(p);
        self
    }

    /// The energy source: `(rail voltage, time) → current into the node`
    /// (required). Adapters for `edc_harvest` sources live in `edc-core`.
    pub fn source(mut self, f: impl FnMut(Volts, Seconds) -> Amps + 'a) -> Self {
        self.source = Some(Box::new(f));
        self
    }

    /// Installs a telemetry sink receiving a typed [`Record`] at every
    /// lifecycle event. Without one (the default) emission is a single
    /// `Option::None` branch — zero overhead.
    pub fn telemetry(mut self, sink: Box<dyn Sink + 'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Builds the runner.
    ///
    /// # Panics
    ///
    /// Panics if strategy, program or source is missing.
    pub fn build(self) -> TransientRunner<'a> {
        let mut strategy = self.strategy.expect("strategy is required");
        let program = self.program.expect("program is required");
        let source = self.source.expect("source is required");
        let mut mcu = Mcu::new(program).with_residence(strategy.residence());
        if let Some(pm) = strategy.power_model() {
            mcu = mcu.with_power_model(pm);
        }
        let v_min = mcu.power_model().v_min;
        let (v_low, v_high) = strategy.thresholds(&mcu, self.capacitance, v_min, self.v_max);
        if self.initial_voltage < v_min {
            // The machine begins unpowered; it boots once the harvester has
            // charged the rail past V_R.
            mcu.power_loss();
        }
        let mut node =
            SupplyNode::new(self.capacitance, self.initial_voltage).with_clamp(self.v_max);
        if let Some(r) = self.leakage {
            node = node.with_leakage(r);
        }
        let monitor = VoltageMonitor::new(v_low, v_high);
        let mut runner = TransientRunner {
            phase: phase_of(mcu.state()),
            mcu,
            node,
            monitor,
            strategy,
            source,
            dt: self.dt,
            time: Seconds(0.0),
            v_min,
            hibernated: false,
            cycle_carry: 0,
            stats: RunnerStats::default(),
            vcc_trace: self
                .trace_decimation
                .map(|d| TimeSeries::with_decimation("Vcc", d)),
            freq_trace: self
                .trace_decimation
                .map(|d| TimeSeries::with_decimation("f_core_MHz", d)),
            faulted: false,
            supply_power: Watts::ZERO,
            sink: self.sink,
        };
        // Open the initial phase span (and a t = 0 gauge) so timelines
        // start at the origin rather than at the first transition.
        if runner.sink.is_some() {
            let phase = runner.phase;
            let stored = runner.stored_energy();
            if let Some(sink) = &mut runner.sink {
                sink.phase(Seconds(0.0), phase);
                sink.gauge(Seconds(0.0), stored, Watts::ZERO);
            }
        }
        runner
    }
}

/// The lifecycle phase a power state maps to.
fn phase_of(state: PowerState) -> Phase {
    match state {
        PowerState::Off => Phase::Off,
        PowerState::Sleep => Phase::Sleep,
        PowerState::Active => Phase::Active,
    }
}

/// Fixed-timestep transient-computing simulation loop.
pub struct TransientRunner<'a> {
    mcu: Mcu,
    node: SupplyNode,
    monitor: VoltageMonitor,
    strategy: Box<dyn Strategy + 'a>,
    source: Box<dyn FnMut(Volts, Seconds) -> Amps + 'a>,
    dt: Seconds,
    time: Seconds,
    v_min: Volts,
    /// `true` between a hibernation snapshot and the subsequent wake/boot.
    hibernated: bool,
    /// Cycles banked from ticks whose budget could not fund even the head
    /// instruction (multi-cycle peripheral ops at fine timesteps), so that
    /// instruction accrues cycles across ticks instead of stalling forever.
    cycle_carry: u64,
    stats: RunnerStats,
    vcc_trace: Option<TimeSeries>,
    freq_trace: Option<TimeSeries>,
    faulted: bool,
    /// The lifecycle phase last reported to the sink; transitions are
    /// emitted only on change.
    phase: Phase,
    /// Supply power at the last step, sampled only while a sink is
    /// installed (gauge emission reads it at event time).
    supply_power: Watts,
    sink: Option<Box<dyn Sink + 'a>>,
}

impl<'a> TransientRunner<'a> {
    /// Starts a builder.
    pub fn builder() -> RunnerBuilder<'a> {
        RunnerBuilder::new()
    }

    /// The machine under test.
    pub fn mcu(&self) -> &Mcu {
        &self.mcu
    }

    /// The supply node.
    pub fn node(&self) -> &SupplyNode {
        &self.node
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RunnerStats {
        self.stats
    }

    /// The recorded `V_cc` trace, when tracing was enabled.
    pub fn vcc_trace(&self) -> Option<&TimeSeries> {
        self.vcc_trace.as_ref()
    }

    /// The recorded core-frequency trace (MHz), when tracing was enabled.
    pub fn frequency_trace(&self) -> Option<&TimeSeries> {
        self.freq_trace.as_ref()
    }

    /// Current simulation time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Current monitor thresholds `(V_H, V_R)`.
    pub fn thresholds(&self) -> (Volts, Volts) {
        (self.monitor.low(), self.monitor.high())
    }

    /// The installed telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&dyn Sink> {
        self.sink.as_deref()
    }

    /// Removes and returns the telemetry sink (e.g. to summarise it after
    /// the run).
    pub fn take_telemetry(&mut self) -> Option<Box<dyn Sink + 'a>> {
        self.sink.take()
    }

    /// Energy currently stored in the supply-node capacitance.
    fn stored_energy(&self) -> Joules {
        self.node
            .capacitance()
            .energy_between(self.node.voltage(), Volts::ZERO)
            .max(Joules::ZERO)
    }

    /// Stamps `event` with the current time and cumulative consumed energy
    /// and hands it to the sink, preceded by a gauge sample (stored energy
    /// and supply power) at the same instant. With no sink installed this
    /// is one branch.
    fn tap(&mut self, event: Event) {
        if self.sink.is_some() {
            let stored = self.stored_energy();
            let supply = self.supply_power;
            let rec = Record {
                t: self.time,
                energy: self.stats.energy_consumed,
                event,
            };
            if let Some(sink) = &mut self.sink {
                sink.gauge(rec.t, stored, supply);
                sink.record(rec);
            }
        }
    }

    /// Reports a lifecycle-phase transition to the sink, once per change.
    fn set_phase(&mut self, phase: Phase) {
        if phase == self.phase {
            return;
        }
        self.phase = phase;
        if let Some(sink) = &mut self.sink {
            sink.phase(self.time, phase);
        }
    }

    fn draw(&mut self, e: Joules) {
        self.node.draw_energy(e);
        self.stats.energy_consumed += e;
    }

    /// Performs a snapshot attempt with the energy available *above*
    /// `V_min` — the Eq. (4) budget: the copy loop can only execute while
    /// the rail stays in the operating range, so charge below `V_min` is
    /// unreachable. Reports the observation to the strategy.
    fn attempt_snapshot(&mut self) -> bool {
        let v_before = self.node.voltage();
        let available = self
            .node
            .capacitance()
            .energy_between(v_before, self.v_min)
            .max(Joules::ZERO);
        let outcome = self.mcu.take_snapshot(Some(available));
        self.draw(outcome.energy);
        let v_after = self.node.voltage();
        if outcome.completed {
            self.stats.snapshots += 1;
        } else {
            self.stats.torn_snapshots += 1;
        }
        self.tap(Event::Snapshot {
            sealed: outcome.completed,
            cost: outcome.energy,
        });
        if let Some((low, high)) = self.strategy.after_snapshot(SnapshotObservation {
            v_before,
            v_after,
            energy: outcome.energy,
            completed: outcome.completed,
        }) {
            self.monitor.set_thresholds(low, high);
        }
        outcome.completed
    }

    fn boot_sequence(&mut self) {
        self.mcu.cold_boot();
        self.stats.boots += 1;
        self.tap(Event::Boot);
        if self.strategy.restores_snapshots() && self.mcu.has_valid_snapshot() {
            let e = self.mcu.restore_energy();
            if let Some(_r) = self.mcu.restore_snapshot() {
                self.draw(e);
                self.stats.restores += 1;
                self.tap(Event::Restore);
            }
        }
        self.hibernated = false;
        self.set_phase(Phase::Active);
    }

    /// Advances the simulation by one timestep. Returns `false` once the
    /// workload has completed or the machine has faulted.
    pub fn step(&mut self) -> bool {
        let t = self.time;
        let dt = self.dt;
        self.stats.ticks += 1;

        // 1. Source charges the node; static (sleep/off) load discharges it.
        let v = self.node.voltage();
        let i_src = (self.source)(v, t);
        if self.sink.is_some() {
            self.supply_power = v * i_src;
        }
        let i_static = match self.mcu.state() {
            PowerState::Active => Amps::ZERO, // drawn as lump energy below
            _ => self.mcu.supply_current(),
        };
        self.node.step(i_src, i_static, dt);
        if self.mcu.state() != PowerState::Active {
            self.stats.energy_consumed += self.node.voltage() * i_static * dt;
        }
        let v = self.node.voltage();

        if let Some(trace) = &mut self.vcc_trace {
            trace.push(t, v.0);
        }
        if let Some(trace) = &mut self.freq_trace {
            let f = if self.mcu.state() == PowerState::Active {
                self.mcu.frequency().0 / 1e6
            } else {
                0.0
            };
            trace.push(t, f);
        }

        // 2. State machine.
        match self.mcu.state() {
            PowerState::Off => {
                self.stats.off_time += dt;
                if v >= self.monitor.high() {
                    self.monitor.reset();
                    self.monitor.update(v);
                    self.tap(Event::SupplyCrossing { rising: true });
                    self.boot_sequence();
                }
            }
            PowerState::Sleep => {
                if v < self.v_min {
                    // The node kept sagging: the sleeping machine dies too.
                    self.mcu.power_loss();
                    self.monitor.reset();
                    self.stats.brownouts += 1;
                    self.tap(Event::PowerFail);
                    self.set_phase(Phase::Off);
                    self.stats.sleep_time += dt;
                } else if self.mcu.is_halted() {
                    self.stats.sleep_time += dt;
                } else if v >= self.monitor.high() && self.hibernated {
                    // Supply recovered before dying: RAM intact, continue.
                    self.monitor.update(v);
                    self.mcu.wake();
                    self.hibernated = false;
                    self.tap(Event::SupplyCrossing { rising: true });
                    self.set_phase(Phase::Active);
                    self.stats.sleep_time += dt;
                } else {
                    self.stats.sleep_time += dt;
                }
            }
            PowerState::Active => {
                if v < self.v_min {
                    self.mcu.power_loss();
                    self.monitor.reset();
                    self.cycle_carry = 0;
                    self.stats.brownouts += 1;
                    self.tap(Event::Brownout);
                    self.set_phase(Phase::Off);
                    return true;
                }
                self.strategy.on_tick(v, &mut self.mcu);
                // Voltage interrupt?
                if let Some(MonitorEvent::FellBelowLow) = self.monitor.update(v) {
                    self.tap(Event::SupplyCrossing { rising: false });
                    if self.strategy.on_low_voltage() == LowVoltageResponse::Hibernate {
                        self.attempt_snapshot();
                        self.mcu.sleep();
                        self.hibernated = true;
                        self.cycle_carry = 0;
                        self.set_phase(Phase::Sleep);
                        self.stats.active_time += dt;
                        return true;
                    }
                }
                // Execute this tick's cycle budget (plus any cycles banked
                // by starved ticks before it).
                let mut budget = self.mcu.cycles_in(dt) + self.cycle_carry;
                self.cycle_carry = 0;
                let stop_at_markers = self.strategy.wants_markers();
                let mut retired_this_tick = 0u64;
                while budget > 0 {
                    let report = self.mcu.run(budget, stop_at_markers);
                    self.draw(report.energy);
                    self.stats.cycles += report.cycles;
                    self.stats.instructions += report.instructions;
                    retired_this_tick += report.instructions;
                    let remaining = budget.saturating_sub(report.cycles.max(1));
                    match report.exit {
                        RunExit::Completed => {
                            if self.stats.completed_at.is_none() {
                                self.stats.completed_at = Some(self.time);
                                self.tap(Event::TaskComplete);
                                // A finished program must not be resurrected.
                                self.mcu.invalidate_snapshot();
                                self.mcu.sleep();
                                self.set_phase(Phase::Sleep);
                            }
                            self.stats.active_time += dt;
                            return false;
                        }
                        RunExit::Marker(_) => {
                            let v_now = self.node.voltage();
                            if self.strategy.on_marker(v_now) == MarkerResponse::Checkpoint {
                                self.attempt_snapshot();
                                if self.node.voltage() < self.v_min {
                                    // The snapshot burst killed the rail.
                                    break;
                                }
                            }
                        }
                        RunExit::BudgetExhausted => {
                            if retired_this_tick == 0 {
                                // Even the head instruction costs more than
                                // the whole tick (multi-cycle peripheral
                                // ops like `Sense`/`Tx` at fine timesteps).
                                // Bank the budget so the instruction accrues
                                // cycles over the following ticks instead
                                // of stalling forever; ticks that made any
                                // progress discard their remainder exactly
                                // as before.
                                self.cycle_carry = budget;
                                self.stats.carry_activations += 1;
                            }
                            break;
                        }
                        RunExit::Fault(_) => {
                            self.faulted = true;
                            return false;
                        }
                    }
                    budget = remaining;
                }
                self.stats.active_time += dt;
            }
        }
        self.time += dt;
        true
    }

    /// Runs until the workload completes, the machine faults, or `deadline`
    /// passes.
    pub fn run_until_complete(&mut self, deadline: Seconds) -> RunOutcome {
        while self.time < deadline {
            if !self.step() {
                break;
            }
        }
        if self.faulted {
            RunOutcome::Faulted
        } else if self.stats.completed_at.is_some() {
            RunOutcome::Completed
        } else {
            RunOutcome::DeadlineExpired
        }
    }

    /// Runs for a fixed duration regardless of completion (figure traces).
    pub fn run_for(&mut self, duration: Seconds) {
        let end = Seconds(self.time.0 + duration.0);
        while self.time < end && !self.faulted {
            let live = self.step();
            if !live {
                // Completed: keep simulating the idle system so traces cover
                // the full window.
                self.time += self.dt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hibernus, Restart};
    use edc_workloads::{BusyLoop, Workload};

    fn dc_source(v_oc: f64, r: f64) -> impl FnMut(Volts, Seconds) -> Amps {
        move |v, _t| Amps(((v_oc - v.0) / r).max(0.0))
    }

    #[test]
    fn steady_supply_completes_without_snapshots() {
        let wl = BusyLoop::new(2000);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Hibernus::new()))
            .program(wl.program())
            .source(dc_source(3.3, 10.0))
            .build();
        let out = runner.run_until_complete(Seconds(1.0));
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(runner.stats().snapshots, 0);
        assert_eq!(runner.stats().brownouts, 0);
        wl.verify(runner.mcu()).unwrap();
    }

    #[test]
    fn restart_strategy_eventually_completes_on_gappy_supply() {
        // Supply present 60 ms of every 100 ms: short workload fits an
        // on-window, so even restart completes.
        let wl = BusyLoop::new(500);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Restart::new()))
            .program(wl.program())
            .source(|v, t| {
                if t.0.rem_euclid(0.1) < 0.06 {
                    Amps(((3.3 - v.0) / 10.0).max(0.0))
                } else {
                    Amps::ZERO
                }
            })
            .build();
        let out = runner.run_until_complete(Seconds(2.0));
        assert_eq!(out, RunOutcome::Completed);
        wl.verify(runner.mcu()).unwrap();
    }

    #[test]
    fn stats_duty_cycle_is_fraction() {
        let stats = RunnerStats {
            active_time: Seconds(1.0),
            sleep_time: Seconds(2.0),
            off_time: Seconds(1.0),
            ..RunnerStats::default()
        };
        assert!((stats.duty_cycle() - 0.25).abs() < 1e-12);
        assert_eq!(RunnerStats::default().duty_cycle(), 0.0);
    }

    #[test]
    fn telemetry_sink_receives_lifecycle_events() {
        use edc_telemetry::RingBuffer;
        let wl = BusyLoop::new(500);
        let mut ring = RingBuffer::with_capacity(64);
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Restart::new()))
            .program(wl.program())
            .source(dc_source(3.3, 10.0))
            .telemetry(Box::new(&mut ring))
            .build();
        assert!(runner.telemetry().is_some());
        let out = runner.run_until_complete(Seconds(1.0));
        assert_eq!(out, RunOutcome::Completed);
        drop(runner);
        let events = ring.events();
        assert_eq!(events[0], Event::SupplyCrossing { rising: true });
        assert_eq!(events[1], Event::Boot);
        assert_eq!(*events.last().unwrap(), Event::TaskComplete);
        for w in ring.records().windows(2) {
            assert!(w[1].energy >= w[0].energy, "energy stamps are monotone");
            assert!(w[1].t >= w[0].t, "timestamps are monotone");
        }
    }

    #[test]
    fn timeline_sink_sees_phases_and_gauges() {
        use edc_telemetry::TimelineSink;
        let wl = BusyLoop::new(500);
        let mut tl = TimelineSink::new();
        let mut runner = TransientRunner::builder()
            .strategy(Box::new(Restart::new()))
            .program(wl.program())
            .source(dc_source(3.3, 10.0))
            .telemetry(Box::new(&mut tl))
            .build();
        let out = runner.run_until_complete(Seconds(1.0));
        assert_eq!(out, RunOutcome::Completed);
        drop(runner);
        let phases: Vec<Phase> = tl.phases().iter().map(|p| p.phase).collect();
        assert_eq!(
            phases,
            vec![Phase::Off, Phase::Active, Phase::Sleep],
            "cold start → boot → completion"
        );
        assert_eq!(tl.phases()[0].t, Seconds(0.0), "initial span opens at 0");
        assert_eq!(
            tl.gauges().len(),
            tl.records().len() + 1,
            "one gauge per event plus the t = 0 sample"
        );
        for w in tl.phases().windows(2) {
            assert!(w[1].t >= w[0].t, "phase stamps are monotone");
        }
        assert!(
            tl.gauges().iter().skip(1).any(|g| g.supply.0 > 0.0),
            "supply power is sampled"
        );
        assert!(tl.gauges().iter().all(|g| g.stored.0 >= 0.0));
    }
}
