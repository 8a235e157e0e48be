//! # binproto — the pipelined binary wire protocol beside SOAP
//!
//! The paper's §6.3 analysis (and our `encoding`/`keepalive` ablations)
//! blame the web-service stack for most of the client-observed gap to
//! direct calls: SOAP envelope encode/decode is ~20× a compact binary
//! framing and TCP setup is ~57% of per-call cost. This module is the
//! escape the AliEn/ALICE catalogue built when it outgrew its WS stack:
//! the **same operations** ([`crate::ops::Request`]), run by the same
//! [`crate::dispatch::execute`] under the same auth and per-request
//! durability/cache semantics, over length-prefixed binary frames on a
//! persistent connection, with request pipelining and a batched
//! `createFiles` bulk mutation.
//!
//! Frame layout, tagging, error frames and the version byte are
//! specified in DESIGN.md §7.7; the codec — requests and replies as
//! well as the records inside them — lives in [`frame`]. Its bytes are
//! pinned by `tests/wire_golden.rs`, its round trip by
//! `tests/codec_roundtrip.rs`, the robustness of the decoder by
//! `tests/bin_fuzz.rs`, and in-order pipelining by
//! `tests/bin_pipeline_stress.rs`.

pub mod frame;

mod client;
mod server;

pub use client::{BinMcsClient, BinTransport};
pub use server::BinServer;
