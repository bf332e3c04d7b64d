//! Program images and the EEPROM (external flash) model.
//!
//! Reprogramming moves a multi-kilobyte program image over the radio and
//! into each mote's 512 KB external flash. This crate provides:
//!
//! * [`ImageLayout`] / [`ProgramImage`] — the image, divided into segments
//!   of at most 128 packets of 23 bytes each, exactly as MNP transmits it
//!   (Deluge's "pages" reuse the same layout).
//! * [`PacketStore`] — the receiving side's EEPROM: the paper's
//!   MissingVector per segment over one image shared by every node, with
//!   the invariant "each packet in a segment is written to EEPROM only
//!   once" *enforced* (a duplicate write is an error, so any protocol bug
//!   that would burn flash energy fails tests loudly) and every write
//!   checked against the source, so "the exact program image is received"
//!   holds packet by packet.
//!
//! # Example
//!
//! ```
//! use mnp_storage::{ImageLayout, PacketStore, ProgramImage, ProgramId};
//!
//! let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(2));
//! // A node that kept segment 0 from the previous version receives the rest.
//! let mut store = PacketStore::preloaded(&image, 1);
//! assert_eq!(store.segments_received_prefix(), 1);
//! assert_eq!(store.missing_mask(1), u128::MAX); // all 128 packets of segment 1
//! for pkt in 0..image.layout().packets_in_segment(1) {
//!     store.write_packet(1, pkt, image.packet_payload(1, pkt)).unwrap();
//! }
//! assert!(store.write_packet(1, 0, image.packet_payload(1, 0)).is_err()); // write-once
//! assert!(store.is_complete());
//! assert_eq!(store.line_writes, 128 * 2); // the preloaded segment is not billed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eeprom;
mod image;

pub use eeprom::{PacketStore, StorageError, EEPROM_LINE_BYTES, EEPROM_WRITE_LATENCY};
pub use image::{ImageLayout, ProgramId, ProgramImage};
