//! # mcs-net — the MCS web service and client
//!
//! Exposes the Metadata Catalog Service over SOAP/HTTP (the Tomcat+Axis
//! deployment of the paper's Figure 4) and provides a synchronous client
//! mirroring the original Java client API. The measured gap between
//! calling [`mcs::Mcs`] directly and through this layer *is* the paper's
//! headline web-service overhead (≈4.8× on adds).
//!
//! Each of the 44 operations is defined once, as a variant of
//! [`ops::Request`], and executed once, in [`dispatch::execute`]. Two
//! codecs carry it: SOAP envelopes ([`wire`]) and [`binproto`], a
//! pipelined length-prefixed binary protocol — the paper's §6.3 "the WS
//! stack is the bottleneck" finding, answered. Both servers are decode
//! → execute → encode, and one generic [`client::Client`] serves both
//! wires. The byte formats are pinned by a golden transcript test.

#![warn(missing_docs)]

pub mod binproto;
pub mod client;
pub mod dispatch;
pub mod ops;
pub mod server;
pub mod wire;
pub mod wsdl;

pub use binproto::{BinMcsClient, BinServer};
pub use client::{
    CacheStatsReport, CatalogInfoReport, Client, DurabilityMode, FaultKind, McsClient, NetError,
};
pub use ops::{Request, Response};
pub use server::{register_methods, McsServer};
