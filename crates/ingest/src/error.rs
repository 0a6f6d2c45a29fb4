//! Error type for the streaming-ingestion subsystem.

use std::fmt;

/// Errors produced while buffering, scoring or merging ingested points.
#[derive(Debug)]
pub enum IngestError {
    /// A maintenance spec failed validation.
    InvalidSpec(String),
    /// Ingestion was configured without a dataset to merge into.
    MissingDataset,
    /// The delta buffer and the dataset disagree on the grid shape.
    GridMismatch {
        /// Grid shape `(rows, cols)` the buffer was built over.
        expected: (usize, usize),
        /// Grid shape that was supplied.
        got: (usize, usize),
    },
    /// The seed dataset refused the merge: the task's outcome column is
    /// missing, a record lies outside the grid, or the per-cell counts
    /// do not match the grid.
    Data(fsi_data::DataError),
    /// The merged feature matrix could not be assembled.
    Ml(fsi_ml::MlError),
    /// Cell statistics could not be built or shifted.
    Core(fsi_core::CoreError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::InvalidSpec(msg) => write!(f, "invalid maintenance spec: {msg}"),
            IngestError::MissingDataset => {
                write!(f, "ingestion requires a dataset to merge into")
            }
            IngestError::GridMismatch { expected, got } => write!(
                f,
                "delta buffer grid is {}x{} but the dataset grid is {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            IngestError::Data(e) => write!(f, "dataset merge failed: {e}"),
            IngestError::Ml(e) => write!(f, "feature merge failed: {e}"),
            IngestError::Core(e) => write!(f, "cell statistics failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Data(e) => Some(e),
            IngestError::Ml(e) => Some(e),
            IngestError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fsi_data::DataError> for IngestError {
    fn from(e: fsi_data::DataError) -> Self {
        IngestError::Data(e)
    }
}

impl From<fsi_ml::MlError> for IngestError {
    fn from(e: fsi_ml::MlError) -> Self {
        IngestError::Ml(e)
    }
}

impl From<fsi_core::CoreError> for IngestError {
    fn from(e: fsi_core::CoreError) -> Self {
        IngestError::Core(e)
    }
}
