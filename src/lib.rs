//! # rubin-repro — umbrella crate
//!
//! Re-exports the whole workspace for convenient use from examples and
//! integration tests. See the individual crates for full documentation:
//!
//! * [`simnet`] — deterministic discrete-event network/host simulator.
//! * [`rdma_verbs`] — simulated RDMA Verbs stack (PD/MR/QP/CQ/CM).
//! * [`simnet_socket`] — simulated kernel TCP + Java-NIO-style selector.
//! * [`rubin`] — the paper's contribution: the RUBIN RDMA selector
//!   framework.
//! * [`bft_crypto`] — SHA-256 / HMAC / MAC-vector authenticators.
//! * [`reptor`] — PBFT state-machine replication with COP parallelization.

pub use bft_crypto;
pub use rdma_verbs;
pub use reptor;
pub use rubin;
pub use simnet;
pub use simnet_socket;
