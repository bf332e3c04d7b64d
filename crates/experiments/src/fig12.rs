//! Fig. 12: "Overall advertisements, download requests, and data messages
//! transmitted in a one-minute window."
//!
//! Observation: "the number of data messages transmitted remains almost
//! constant during the entire process, indicating a smooth data
//! propagation flow."

use std::fmt;

use mnp_trace::MsgClass;

use crate::runner::RunOutcome;

/// The Fig. 12 series, derived from the Fig. 8 run.
#[derive(Clone, Debug)]
pub struct Fig12 {
    /// Advertisements per minute.
    pub adv: Vec<u64>,
    /// Download requests per minute.
    pub req: Vec<u64>,
    /// Data packets per minute.
    pub data: Vec<u64>,
}

/// Builds the series from an existing run.
pub fn report(outcome: &RunOutcome) -> Fig12 {
    let w = outcome.trace.windows();
    Fig12 {
        adv: w.series(MsgClass::Advertisement),
        req: w.series(MsgClass::Request),
        data: w.series(MsgClass::Data),
    }
}

impl Fig12 {
    /// Coefficient of variation of the data series over the active phase
    /// (all windows except the final partial one): low = smooth flow.
    pub fn data_flow_cv(&self) -> f64 {
        let active: Vec<f64> = self
            .data
            .iter()
            .take(self.data.len().saturating_sub(1))
            .map(|&v| v as f64)
            .collect();
        if active.len() < 2 {
            return 0.0;
        }
        let m = mnp_trace::mean(&active);
        if m == 0.0 {
            return 0.0;
        }
        mnp_trace::variance(&active).sqrt() / m
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig 12: messages per one-minute window ===")?;
        writeln!(f, "minute  adv   req   data")?;
        for (i, ((a, r), d)) in self.adv.iter().zip(&self.req).zip(&self.data).enumerate() {
            writeln!(f, "{i:>6}  {a:>4}  {r:>4}  {d:>5}")?;
        }
        writeln!(f, "data-flow CV {:.2}", self.data_flow_cv())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig08;

    crate::claims::claim_tests! {
        all_three_classes_flow => "F12-flow",
    }

    #[test]
    fn series_share_a_length() {
        let fig = fig08::run(4, 4, 1, 32);
        let r = report(&fig.outcome);
        assert_eq!(r.adv.len(), r.req.len());
        assert_eq!(r.adv.len(), r.data.len());
    }
}
