//! # dpnet-trace — packet/flow trace model and synthetic dataset generators
//!
//! The substrate beneath the differentially-private network analyses of
//! *McSherry & Mahajan (SIGCOMM 2010)*: the record types the analyses
//! consume, noise-free reference computations (the baselines the paper
//! compares against), a compact binary trace format, and generators for
//! stand-ins of the paper's three proprietary datasets.
//!
//! | paper dataset | record | generator |
//! |---|---|---|
//! | Hotspot | `<timestamp, packet>` ([`Packet`]) | [`gen::hotspot`] |
//! | IspTraffic | `<timestamp, link, packet>` ([`gen::isp::LinkPacket`]) | [`gen::isp`] |
//! | IPscatter | `<monitor, IPaddr, ttl>` ([`gen::scatter::ScatterRecord`]) | [`gen::scatter`] |
//!
//! Each generator plants ground truth (worm payloads, stepping-stone pairs,
//! volume anomalies, topological clusters, …) and returns it alongside the
//! records, so experiments can score how much of the truth each privacy
//! level recovers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod connections;
pub mod flow;
pub mod format;
pub mod gen;
pub mod packet;
pub mod tcp;

pub use connections::{annotate_connections, ConnPacket};
pub use flow::{FlowKey, FlowSummary};
pub use packet::{format_ip, parse_ip, Packet, Proto, TcpFlags};
