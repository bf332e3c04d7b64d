//! Table 1: "Power required by various Mica operations".
//!
//! "Since TOSSIM does not capture energy consumption, we calculate the
//! energy consumption by counting the operations performed during
//! reprogramming" (paper §4.2). The run already records every count the
//! table prices: packets sent and received in the trace, radio-on time on
//! the medium, EEPROM lines in `Protocol::eeprom_ops`. So pricing is one
//! pure function, [`OperationCosts::charge_nah`], over those counts. The
//! constants themselves are inputs (reproduced from Mainwaring et al.,
//! WSNA'02); this module prints the table and a worked example.

use std::fmt;

use mnp_sim::SimDuration;

/// Charge cost of each Mica operation, in nAh.
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

/// What one node did, in the units Table 1 prices.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OperationCounts {
    /// Packets transmitted.
    pub tx: u64,
    /// Packets received intact.
    pub rx: u64,
    /// Total time the radio was powered on.
    pub radio_on: SimDuration,
    /// The part of `radio_on` spent transmitting or receiving; the rest is
    /// idle listening.
    pub on_air: SimDuration,
    /// EEPROM line reads.
    pub eeprom_reads: u64,
    /// EEPROM line writes.
    pub eeprom_writes: u64,
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

    /// The charge of `counts`, in nAh: per packet sent and received, per
    /// millisecond of idle listening (radio-on minus on-air time, never
    /// below zero), and per EEPROM line read and written.
    pub fn charge_nah(&self, counts: &OperationCounts) -> f64 {
        let idle = counts.radio_on.saturating_sub(counts.on_air);
        let tx = counts.tx as f64 * self.tx_packet_nah;
        let rx = counts.rx as f64 * self.rx_packet_nah;
        let idle = idle.as_micros() as f64 / 1_000.0 * self.idle_listen_ms_nah;
        let eeprom = counts.eeprom_reads as f64 * self.eeprom_read_nah
            + counts.eeprom_writes as f64 * self.eeprom_write_nah;
        tx + rx + idle + eeprom
    }
}

/// The rendered Table 1 plus a worked example.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// The operation costs (Table 1 rows).
    pub costs: OperationCosts,
    /// A worked example: charge of a node that sent and received 100
    /// packets of 20 ms each with 60 s of radio-on time.
    pub example_total_nah: f64,
}

/// Builds Table 1.
pub fn run() -> Table1 {
    let costs = OperationCosts::MICA2;
    let example = OperationCounts {
        tx: 100,
        rx: 100,
        radio_on: SimDuration::from_secs(60),
        on_air: SimDuration::from_millis(20) * 200,
        ..OperationCounts::default()
    };
    Table1 {
        costs,
        example_total_nah: costs.charge_nah(&example),
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Table 1: Power required by various Mica operations ==="
        )?;
        writeln!(f, "Operation                        nAh")?;
        writeln!(
            f,
            "Transmitting a packet         {:>7.3}",
            self.costs.tx_packet_nah
        )?;
        writeln!(
            f,
            "Receiving a packet            {:>7.3}",
            self.costs.rx_packet_nah
        )?;
        writeln!(
            f,
            "Idle listening for 1 ms       {:>7.3}",
            self.costs.idle_listen_ms_nah
        )?;
        writeln!(
            f,
            "EEPROM Read Data              {:>7.3}",
            self.costs.eeprom_read_nah
        )?;
        writeln!(
            f,
            "EEPROM Write Data             {:>7.3}",
            self.costs.eeprom_write_nah
        )?;
        writeln!(
            f,
            "(check: 100 tx + 100 rx + 60 s radio-on = {:.0} nAh)",
            self.example_total_nah
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_all_rows() {
        let t = run().to_string();
        for needle in ["Transmitting", "Receiving", "Idle listening", "EEPROM"] {
            assert!(t.contains(needle), "missing row {needle}");
        }
    }

    #[test]
    fn worked_example_matches_hand_calculation() {
        let t = run();
        // 100·20 + 100·8 + (60 000 ms − 4 000 ms on-air)·1.25
        let expect = 2_000.0 + 800.0 + 56_000.0 * 1.25;
        assert!((t.example_total_nah - expect).abs() < 1e-6);
    }
}
