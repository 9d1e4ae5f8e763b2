//! # mbcr-gateway — zero-dependency HTTP/1.1 + JSON + SSE plumbing
//!
//! The wire-format layer of the mbcr service plane: everything needed to
//! put the sweep registry behind plain HTTP — hardened request parsing,
//! response writing, server-sent event (SSE) framing, and a minimal
//! client — built on nothing but `std` and [`mbcr_json`], in the same
//! spirit as the binary `mbcr-shard` protocol.
//!
//! This crate is deliberately policy-free: it knows requests, responses
//! and event streams, never sweeps. The `mbcr-shard` coordinator mounts
//! the actual routes (`POST /v1/sweeps`, `GET /v1/sweeps/{id}/events`,
//! `GET /v1/metrics`, …) on top, and every client verb of the CLI
//! (`mbcr submit`, `status`, `cancel`, `report --connect http://…`)
//! speaks them through the client half — HTTP is the daemon's only
//! client surface. The client trusts response heads no more than the
//! server trusts requests: a declared `Content-Length` bounds the body
//! read but is never allocated up front.
//!
//! The server-side parser treats the network as hostile, mirroring the
//! binary protocol's discipline:
//!
//! * request lines, header lines, header counts and bodies are all
//!   hard-capped ([`MAX_REQUEST_LINE`], [`MAX_HEADER_LINE`],
//!   [`MAX_HEADERS`], [`MAX_BODY`]) — an oversized or runaway request
//!   fails fast instead of buffering unbounded bytes;
//! * a connection closed before the first byte is a clean `None`; one
//!   torn mid-request (mid-line, mid-headers, mid-body) is an error —
//!   exactly the `Closed`/torn split `mbcr-shard`'s framing makes;
//! * `Transfer-Encoding` is refused outright (no chunked-body state
//!   machine to confuse), and `Content-Length` must parse and fit.

mod client;
mod http;
mod sse;

pub use client::{open_sse, parse_url, request, Response};
pub use http::{
    read_request, respond_empty, respond_error, respond_json, respond_text, status_reason, Request,
    MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE,
};
pub use sse::{sse_event, sse_headers, SseEvent, SseReader};
