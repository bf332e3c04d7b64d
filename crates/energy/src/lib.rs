//! Mica-mote energy accounting.
//!
//! "Since TOSSIM does not capture energy consumption, we calculate the
//! energy consumption by counting the operations performed during
//! reprogramming" (paper §4.2). This crate reproduces that methodology:
//! the per-operation charge costs of Table 1 ([`OperationCosts::MICA2`]),
//! per-node operation counters ([`EnergyMeter`]), and the derived charge
//! breakdown ([`EnergyBreakdown`]).
//!
//! The paper's headline energy metric is *active radio time* — "the energy
//! consumed in idle listening is comparable to the energy consumed in
//! transmitting/receiving, and it is proportional to the active radio
//! time". The meter therefore tracks radio-on time and on-air time
//! separately, charging idle listening for the difference.
//!
//! # Example
//!
//! ```
//! use mnp_energy::{EnergyMeter, OperationCosts};
//! use mnp_sim::SimDuration;
//!
//! let mut m = EnergyMeter::new();
//! m.record_tx(SimDuration::from_millis(20));
//! m.record_rx(SimDuration::from_millis(20));
//! m.record_eeprom_write();
//! m.set_active_radio(SimDuration::from_secs(1));
//! let b = m.breakdown(&OperationCosts::MICA2);
//! assert!(b.total_nah() > 0.0);
//! assert!(b.idle_nah > b.tx_nah, "idle listening dominates at 1 s radio-on");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use mnp_sim::SimDuration;

/// Charge cost of each Mica operation, in nAh (Table 1 of the paper,
/// reproducing the Mica measurements of Mainwaring et al., WSNA'02).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperationCosts {
    /// Transmitting one packet.
    pub tx_packet_nah: f64,
    /// Receiving one packet.
    pub rx_packet_nah: f64,
    /// Idle listening for one millisecond.
    pub idle_listen_ms_nah: f64,
    /// One EEPROM data read (16-byte line).
    pub eeprom_read_nah: f64,
    /// One EEPROM data write (16-byte line).
    pub eeprom_write_nah: f64,
}

impl OperationCosts {
    /// Table 1: "Power required by various Mica operations".
    pub const MICA2: OperationCosts = OperationCosts {
        tx_packet_nah: 20.000,
        rx_packet_nah: 8.000,
        idle_listen_ms_nah: 1.250,
        eeprom_read_nah: 1.111,
        eeprom_write_nah: 83.333,
    };
}

impl Default for OperationCosts {
    fn default() -> Self {
        OperationCosts::MICA2
    }
}

/// Per-node operation counters, filled in as the simulation runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyMeter {
    /// Packets transmitted.
    pub transmissions: u64,
    /// Packets received (delivered intact).
    pub receptions: u64,
    /// EEPROM line reads.
    pub eeprom_reads: u64,
    /// EEPROM line writes.
    pub eeprom_writes: u64,
    /// Total time spent transmitting.
    pub tx_airtime: SimDuration,
    /// Total time spent locked onto incoming frames.
    pub rx_airtime: SimDuration,
    /// Total time the radio was powered on (set from the medium).
    pub active_radio: SimDuration,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Records one transmitted packet occupying the air for `airtime`.
    pub fn record_tx(&mut self, airtime: SimDuration) {
        self.transmissions += 1;
        self.tx_airtime += airtime;
    }

    /// Records one received packet occupying the air for `airtime`.
    pub fn record_rx(&mut self, airtime: SimDuration) {
        self.receptions += 1;
        self.rx_airtime += airtime;
    }

    /// Records one EEPROM line read.
    #[cfg(test)]
    pub(crate) fn record_eeprom_read(&mut self) {
        self.eeprom_reads += 1;
    }

    /// Records one EEPROM line write.
    pub fn record_eeprom_write(&mut self) {
        self.eeprom_writes += 1;
    }

    /// Sets the total radio-on time (queried from the medium at the end of
    /// a run, or at a snapshot instant).
    pub fn set_active_radio(&mut self, t: SimDuration) {
        self.active_radio = t;
    }

    /// Time the radio was on but neither transmitting nor receiving.
    pub(crate) fn idle_listen_time(&self) -> SimDuration {
        self.active_radio
            .saturating_sub(self.tx_airtime)
            .saturating_sub(self.rx_airtime)
    }

    /// Charge consumed, broken down by operation class.
    pub fn breakdown(&self, costs: &OperationCosts) -> EnergyBreakdown {
        EnergyBreakdown {
            tx_nah: self.transmissions as f64 * costs.tx_packet_nah,
            rx_nah: self.receptions as f64 * costs.rx_packet_nah,
            idle_nah: self.idle_listen_time().as_micros() as f64 / 1_000.0
                * costs.idle_listen_ms_nah,
            eeprom_nah: self.eeprom_reads as f64 * costs.eeprom_read_nah
                + self.eeprom_writes as f64 * costs.eeprom_write_nah,
        }
    }
}

/// Charge consumed by one node, in nAh, split by operation class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Transmission cost.
    pub tx_nah: f64,
    /// Reception cost.
    pub rx_nah: f64,
    /// Idle-listening cost.
    pub idle_nah: f64,
    /// EEPROM read+write cost.
    pub eeprom_nah: f64,
}

impl EnergyBreakdown {
    /// Total charge in nAh.
    pub fn total_nah(&self) -> f64 {
        self.tx_nah + self.rx_nah + self.idle_nah + self.eeprom_nah
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx {:.1} nAh, rx {:.1} nAh, idle {:.1} nAh, eeprom {:.1} nAh (total {:.1} nAh)",
            self.tx_nah,
            self.rx_nah,
            self.idle_nah,
            self.eeprom_nah,
            self.total_nah()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants_match_paper() {
        let c = OperationCosts::MICA2;
        assert_eq!(c.tx_packet_nah, 20.000);
        assert_eq!(c.rx_packet_nah, 8.000);
        assert_eq!(c.idle_listen_ms_nah, 1.250);
        assert_eq!(c.eeprom_read_nah, 1.111);
        assert_eq!(c.eeprom_write_nah, 83.333);
    }

    #[test]
    fn breakdown_accumulates_counts() {
        let mut m = EnergyMeter::new();
        for _ in 0..10 {
            m.record_tx(SimDuration::from_millis(20));
        }
        for _ in 0..5 {
            m.record_rx(SimDuration::from_millis(20));
        }
        m.record_eeprom_read();
        m.record_eeprom_write();
        let b = m.breakdown(&OperationCosts::MICA2);
        assert_eq!(b.tx_nah, 200.0);
        assert_eq!(b.rx_nah, 40.0);
        assert!((b.eeprom_nah - 84.444).abs() < 1e-9);
    }

    #[test]
    fn idle_time_excludes_on_air_time() {
        let mut m = EnergyMeter::new();
        m.record_tx(SimDuration::from_millis(300));
        m.record_rx(SimDuration::from_millis(200));
        m.set_active_radio(SimDuration::from_secs(1));
        assert_eq!(m.idle_listen_time(), SimDuration::from_millis(500));
        let b = m.breakdown(&OperationCosts::MICA2);
        assert!((b.idle_nah - 500.0 * 1.25).abs() < 1e-9);
    }

    #[test]
    fn idle_time_saturates_when_airtime_exceeds_radio_time() {
        let mut m = EnergyMeter::new();
        m.record_tx(SimDuration::from_secs(2));
        m.set_active_radio(SimDuration::from_secs(1));
        assert_eq!(m.idle_listen_time(), SimDuration::ZERO);
    }

    #[test]
    fn idle_listening_dominates_an_always_on_minute() {
        // The paper's motivation: "if a node keeps its radio on at all time,
        // the vast majority of energy is wasted in idle-listening".
        let mut m = EnergyMeter::new();
        for _ in 0..100 {
            m.record_tx(SimDuration::from_millis(20));
            m.record_rx(SimDuration::from_millis(20));
        }
        m.set_active_radio(SimDuration::from_secs(60));
        let b = m.breakdown(&OperationCosts::MICA2);
        assert!(b.idle_nah > 0.8 * b.total_nah(), "{b}");
    }

    #[test]
    fn display_is_nonempty() {
        let b = EnergyMeter::new().breakdown(&OperationCosts::MICA2);
        assert!(b.to_string().contains("total"));
    }
}
