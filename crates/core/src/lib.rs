//! # HyPPI NoC — a reproduction of "HyPPI NoC: Bringing Hybrid Plasmonics
//! # to an Opto-Electronic Network-on-Chip" (ICPP 2017)
//!
//! This crate is the façade of the reproduction workspace. It re-exports
//! every subsystem and adds the two pieces that tie them to the paper:
//!
//! * [`link_clear`] — the link-level CLEAR figure of merit (equation 1,
//!   Fig. 3) over bare point-to-point links of all four technologies;
//! * [`experiments`] — one driver per table and figure of the paper's
//!   evaluation, each returning a structured result with a rendered text
//!   table.
//!
//! Two workspace-root documents anchor the repo:
//!
//! * [`README.md`](../../../README.md) — workspace map, quickstart, and
//!   the catalog mapping every paper figure/table to its `repro`
//!   subcommand and every recorded metric to its `BENCH_netsim.json`
//!   field;
//! * [`docs/ARCHITECTURE.md`](../../../docs/ARCHITECTURE.md) — the
//!   simulation engine's internals (active sets, calendar wheel, flit
//!   slab, credit cells, the shard superstep/mailbox protocol,
//!   closed-loop source credits) and the parity-oracle rule every
//!   engine change must follow.
//!
//! ## Quick start
//!
//! ```
//! use hyppi::prelude::*;
//!
//! // Build the paper's 16×16 electronic mesh with HyPPI express links.
//! let topo = express_mesh(
//!     MeshSpec::paper(LinkTechnology::Electronic),
//!     ExpressSpec { span: 3, tech: LinkTechnology::Hyppi },
//! );
//! let model = NocModel::new(topo);
//!
//! // Evaluate it under the paper's synthetic traffic.
//! let cfg = SoteriouConfig::paper();
//! let traffic = cfg.matrix(&model.topo);
//! let eval = model.evaluate(&traffic, cfg.max_injection_rate);
//! assert!(eval.clear > 0.0);
//! ```
//!
//! ## Workspace layout
//!
//! | crate | role |
//! |---|---|
//! | `hyppi-phys` | units, Table I device parameters, loss budgets, laser equation |
//! | `hyppi-dsent` | DSENT-style router / link energy-area models |
//! | `hyppi-topology` | meshes, express meshes, torus, X-then-Y routing |
//! | `hyppi-traffic` | Soteriou synthetic model, NPB trace synthesis |
//! | `hyppi-netsim` | cycle-accurate BookSim-style simulator |
//! | `hyppi-analytic` | system CLEAR (eq. 2), power/area roll-ups |
//! | `hyppi-optical` | all-optical routers and Fig. 8 projections |

pub mod experiments;
pub mod link_clear;
pub mod table;

pub use link_clear::{link_clear_point, link_clear_sweep, LinkClearPoint};

/// Everything needed to drive the models, in one import.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::link_clear::{link_clear_point, link_clear_sweep, LinkClearPoint};
    pub use hyppi_analytic::{dynamic_energy_joules, NocEvaluation, NocModel, CORE_CLK_GHZ};
    pub use hyppi_dsent::{
        ElectricalLinkModel, OpticalLinkModel, RouterConfig, RouterModel, TechNode,
    };
    pub use hyppi_netsim::{
        EnergyCounts, LatencyStats, LoadCurve, LoadPoint, NoopProbe, Probe, ReferenceSimulator,
        RunOutcome, SaturationSearch, ShardedSimulator, SimConfig, SimError, SimStats, Simulator,
        Snapshot, SnapshotError, SweepConfig, SweepRunner,
    };
    pub use hyppi_optical::{
        all_optical_projection, AllOpticalDesign, OpticalRouterModel, PortKind, RadarPoint,
    };
    pub use hyppi_phys::{
        electronic_wire_params, hyppi_params, photonic_params, plasmonic_params, Decibels,
        Femtojoules, Gbps, LinkTechnology, LossBudget, Micrometers, Milliwatts, Picoseconds,
        SquareMicrometers, TechnologyParams,
    };
    pub use hyppi_topology::{
        express_mesh, mesh, torus, Coord, ExpressSpec, FaultSpec, Link, LinkClass, LinkId,
        LinkLoads, MeshSpec, NodeId, Partition, RouteError, RoutingTable, ShardSpec, Topology,
        ROUTER_PIPELINE_CYCLES,
    };
    pub use hyppi_traffic::{
        packetize_message, BurstSpec, CommVolume, NpbKernel, NpbTraceSpec, Packet, SoteriouConfig,
        SyntheticPattern, Trace, TraceEvent, TrafficMatrix, DATA_PACKET_FLITS,
    };
}
