//! The transport layer: one engine-facing contract over one network.
//!
//! The paper deploys 96–384 node processes over ZeroMQ TCP sockets and
//! *instruments the experiments* to measure real bytes transferred (§IV-B-g).
//! This crate gives the engine that network through a single trait,
//! [`Transport`] — committed [`PendingSend`]s in, deadline/TTL-aware drains
//! out, one scoped purge, exact byte metering — implemented by
//! [`SimNetwork`], the deterministic in-process network on the *virtual*
//! time axis. Nodes exchange the very same serialized payloads a socket
//! would carry, through per-node mailboxes, and a meter records payload vs.
//! metadata bytes per node — the two series the paper plots in Figure 4
//! (row 3) and Figure 9. A message travelling a slow link is simply not
//! visible to its receiver until `latency + bytes/bandwidth` have elapsed
//! on the virtual clock ([`Transport::drain`] with the receiver's
//! deadline).
//!
//! The mailboxes and their accounting live in one mailbox core (see
//! [`transport`]); a [`SimNetwork`] adds only the loss model and the purge
//! scopes' selection.
//!
//! [`TimeModel`] converts measured bytes into simulated wall-clock time
//! (compute + latency + bandwidth), preserving the *relative*
//! time-to-accuracy comparisons of Figures 5–6.

#![warn(clippy::too_many_lines)]
#![deny(unsafe_code)]

pub mod meter;
pub mod sim;
pub mod time;
pub mod transport;

pub use meter::{ByteBreakdown, TrafficStats};
pub use sim::{LossModel, SimNetwork};
pub use time::TimeModel;
pub use transport::{Drained, Envelope, Message, PendingSend, PurgeReport, PurgeScope, Transport};
