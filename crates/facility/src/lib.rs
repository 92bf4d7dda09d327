//! # evoflow-facility — the simulated scientific complex
//!
//! The physical world the paper's agents coordinate: facilities hosting
//! instruments, HPC batch queues, WAN data movement, and — crucially for
//! the acceleration claims — the humans currently gluing it all together.
//!
//! * [`facility`] — facility/instrument models with failure + sample
//!   inventories, and their capability advertisements (Fig 3).
//! * [`hpc`] — FCFS + EASY-backfill batch scheduling (Table 3's
//!   "Batch System" cell; queue waits for every campaign).
//! * [`human`] — the human-coordination latency model (log-normal decision
//!   effort, working hours, hand-off overhead) against which the 10–100×
//!   claim is measured.
//! * [`fabric`] — Globus-style transfer planning over the federation
//!   topology with §5.3's bandwidth classes.
//! * [`streaming`] — instrument sensor streams with injected anomalies and
//!   a sub-second edge detector (§5.3's "edge devices providing sub-second
//!   inference at instruments").
//! * [`quantum`] — QPU models (shot noise, decoherence) with batch vs
//!   interactive access and the hybrid classical-quantum variational loop
//!   (the Infrastructure Abstraction layer's Quantum Interface, §5.2).
//!
//! This crate is the documented substitution for hardware the paper's
//! vision assumes (beamlines, robot labs, >100 Gbps WANs): see DESIGN.md §2.

pub mod fabric;
pub mod facility;
pub mod hpc;
pub mod human;
pub mod quantum;
pub mod streaming;

pub use fabric::{DataFabric, FabricError, Link, TransferPlan};
pub use facility::{presets, Facility, FacilityKind, FailureModel, Instrument};
pub use hpc::{BatchScheduler, Finished, Job, JobId, StartProjection};
pub use human::{is_working, next_working_instant, HumanModel};
pub use quantum::{AccessMode, CircuitSpec, Estimate, HybridLoop, HybridReport, Qpu, QpuError};
pub use streaming::{monitor, DetectionReport, EdgeDetector, Sample, SensorStream, StreamConfig};
