//! The correctness oracle: simulated outputs recorded at the default seed.
//!
//! Simulated figures are deterministic, so a speed-up must reproduce them
//! exactly; they are compared bit for bit. The retired-event count is an
//! engine counter and deliberately not part of the oracle.

use crate::workload::{Figures, Workload};

/// Figures each workload produced at [`crate::workload::DEFAULT_SEED`].
pub fn recorded(workload: Workload) -> &'static [(&'static str, f64)] {
    match workload {
        Workload::PaperClient => &[
            ("write_mbps", 55.57608096504248),
            ("close_mbps", 42.38494107406966),
            ("write_rpcs", 129_320.0),
        ],
        Workload::FleetTcp => &[
            ("aggregate_mbps", 17.886528082987812),
            ("jain", 0.9999999999723357),
        ],
        Workload::Megafleet1m => &[
            ("aggregate_mbps", 33.75673511683459),
            ("bytes_per_client", 65.0),
        ],
    }
}

/// Checks `figures` against the recorded values.
pub fn check(workload: Workload, figures: &Figures) -> Result<(), String> {
    for &(name, want) in recorded(workload) {
        let got = figures
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("no figure {name}"))?;
        if got.to_bits() != want.to_bits() {
            return Err(format!("{name} = {got:?}, recorded {want:?}"));
        }
    }
    Ok(())
}
