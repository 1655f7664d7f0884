//! # noc-gsf — Globally-Synchronized Frames comparison network
//!
//! A reimplementation of GSF (Lee, Ng & Asanović, ISCA 2008), the QoS
//! NoC the LOFT paper compares against, following the description in
//! the LOFT paper (Sections 2.2 and 3.1) and the published GSF
//! algorithm:
//!
//! * time is quantized into large **frames** (2000 flits in the
//!   paper's setup); every flow holds a reservation of `R_ij` flits
//!   per frame and sources inject each packet into the earliest
//!   active frame with remaining quota,
//! * a window of `W` frames (6) is active at once; a flow that has
//!   exhausted its quota in every active frame stalls in its (large)
//!   source queue,
//! * routers arbitrate virtual channels and the switch by **frame
//!   priority**: flits of older frames always win,
//! * flits of different packets may never share a virtual channel, so
//!   a VC is only reallocated after it has fully drained (this is the
//!   flow-control inefficiency the paper highlights in Figure 6),
//! * the head frame is **recycled globally**: when no flit of the
//!   oldest frame remains in the network, a barrier network detects
//!   this with a fixed delay (16 cycles) and the whole window slides.
//!
//! The global synchronization is GSF's weakness: one congested region
//! slows frame recycling for *every* node (the paper's Figure 1 /
//! Case Study II), which LOFT's per-output-port frames avoid.
//!
//! # Example
//!
//! ```
//! use noc_sim::{Simulation, RunConfig};
//! use noc_traffic::Scenario;
//! use noc_gsf::{GsfConfig, GsfNetwork};
//!
//! let scenario = Scenario::hotspot(0.01);
//! let cfg = GsfConfig::default();
//! let reservations = scenario.reservations(cfg.frame_size)?;
//! let network = GsfNetwork::new(cfg, &reservations);
//! let report = Simulation::new(network, scenario.workload(7), RunConfig::short()).run();
//! assert!(report.flits_delivered > 0);
//! # Ok::<(), noc_sim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod framing;
mod network;

pub use config::GsfConfig;
pub use network::GsfNetwork;
