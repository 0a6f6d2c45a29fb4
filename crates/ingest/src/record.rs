//! The one ingested-observation record shared across the subsystem.

use fsi_proto::IngestBody;
use serde::{Deserialize, Serialize};

/// One observation: the wire payload plus a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestRecord {
    /// The caller's sequence number (e.g. a position in a batch). The
    /// merge does not read it: records fold into per-cell counts, so
    /// their order does not matter. Kept for [`IngestRecord::from_wire`]
    /// callers.
    pub seq: u64,
    /// Map-space x coordinate.
    pub x: f64,
    /// Map-space y coordinate.
    pub y: f64,
    /// Opaque cohort tag.
    pub group: u32,
    /// Observed binary outcome for the served task.
    pub label: bool,
}

impl IngestRecord {
    /// Rebuilds a record from its wire form and its position in a
    /// batch.
    pub fn from_wire(seq: u64, body: &IngestBody) -> Self {
        Self {
            seq,
            x: body.x,
            y: body.y,
            group: body.group,
            label: body.label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip_preserves_every_field() {
        let r = IngestRecord {
            seq: 42,
            x: 0.31,
            y: 0.72,
            group: 9,
            label: true,
        };
        let back = IngestRecord::from_wire(42, &IngestBody::new(0.31, 0.72, 9, true));
        assert_eq!(r, back);
    }
}
