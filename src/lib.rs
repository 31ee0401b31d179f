//! Umbrella crate for the JWINS reproduction: re-exports every sub-crate so the
//! examples and integration tests can use a single dependency.

#![deny(unsafe_code)]

pub use jwins as core;
pub use jwins_codec as codec;
pub use jwins_data as data;
pub use jwins_fault as fault;
pub use jwins_fourier as fourier;
pub use jwins_metrics as metrics;
pub use jwins_net as net;
pub use jwins_nn as nn;
pub use jwins_sim as sim;
pub use jwins_topology as topology;
pub use jwins_trace as trace;
pub use jwins_wavelet as wavelet;

/// Whether `JWINS_SMOKE=1` requests the CI-sized reduced configuration —
/// the examples-smoke job runs every example with this set so each one
/// executes end to end in seconds. Delegates to the single definition of
/// the smoke contract in [`jwins::smoke`].
pub use jwins::smoke;
