//! Multi-tenant campaign broker for the AVF stressmark service.
//!
//! `avf-stressmark broker --listen <addr> --worker <addr>...` runs a
//! long-lived coordinator between campaign drivers and the `serve`
//! worker fleet. Where a bare [`avf_service::RemoteBackend`] couples a
//! driver's lifetime to its campaign, the broker decouples them:
//!
//! * **Admission control + fair scheduling** — submissions pass typed
//!   per-tenant and global quotas, then a deficit-round-robin queue
//!   ([`FairQueue`]) shares the fleet's `max_running` slots so no
//!   tenant's expensive campaign starves another's cheap one.
//! * **Durable campaigns** — accepted specs land in an append-only
//!   on-disk log ([`CampaignStore`]) before they are acknowledged. The
//!   broker runs them itself; a driver may disconnect and `attach`
//!   later — even after a broker restart — and receive a report
//!   bit-identical to what an uninterrupted run would have produced,
//!   because campaigns are deterministic functions of their spec.
//! * **Session multiplexing** — one persistent connection carries
//!   submissions, attachments, and whole interactive campaigns and
//!   searches (`MUX`-tagged worker-protocol frames from
//!   [`BrokeredBackend`] and [`BrokeredEvaluator`], relayed into the
//!   broker's own run of the fleet dispatcher, [`avf_service::fleet`]).
//! * **Authenticated framing** — with `--auth-key-file`, every frame
//!   on both planes (driver↔broker, broker↔worker) carries a keyed
//!   SipHash tag over a per-direction sequence number; tampered,
//!   replayed, or unkeyed frames are rejected typed, never executed.
//! * **Observability** — `--metrics` serves a plaintext page: queue
//!   depths per tenant, slot usage, dispatch/re-dispatch counters, and
//!   live worker liveness probes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod store;

pub use backend::{BrokeredBackend, BrokeredEvaluator};
pub use client::{BrokerClient, SubmitError};
pub use metrics::BrokerStats;
pub use protocol::{CampaignPhase, CampaignSpec, LogRecord, RejectReason, Reply, Request};
pub use queue::FairQueue;
pub use server::{Broker, BrokerOptions};
pub use store::{CampaignStore, StoredCampaign};
