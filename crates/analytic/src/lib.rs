//! Analytical NoC evaluation — the paper's §III-B methodology.
//!
//! The design-space exploration (Fig. 5, Tables III and IV) does not run a
//! cycle-accurate simulation; it *analyzes* each candidate network under
//! the Soteriou synthetic traffic: per-link injection rates from the routed
//! traffic matrix, average utilization `U` and its growth rate `R = dU/dr`,
//! average latency from per-hop link/router latencies, power from the
//! DSENT-style models, and finally the system-level CLEAR figure of merit
//! (equation 2):
//!
//! ```text
//!            (Σ link capacities) / N
//! CLEAR = ─────────────────────────────────
//!          Latency × Power × Area × R
//! ```
//!
//! [`NocModel`] bundles a topology with its per-link / per-router
//! energy-area estimates; [`NocModel::evaluate`] produces a
//! [`NocEvaluation`] with every factor separately (the paper plots each
//! factor as its own panel in Fig. 5), and [`energy`] converts activity
//! counts from the trace simulations into total dynamic energy (Table V).

pub mod energy;
pub mod model;

pub use energy::{dynamic_energy_joules, EnergyBreakdown};
pub use model::{NocEvaluation, NocModel, CORE_CLK_GHZ};
