//! The one error type of the facade.
//!
//! Every crate in the workspace keeps its own focused error enum
//! (`GeoError`, `CoreError`, `MlError`, `DataError`, `FairnessError`,
//! `PipelineError`, `ServeError`) so library layers stay independent;
//! [`FsiError`] unifies them at the facade boundary. Conversions
//! *flatten*: a `PipelineError::Ml(e)` arriving through `From` becomes
//! [`FsiError::Ml`], not a nested pipeline variant, so callers match one
//! level of structure no matter how deep the failure originated. The
//! original error is always reachable through
//! [`std::error::Error::source`].

use fsi_core::CoreError;
use fsi_data::DataError;
use fsi_fairness::FairnessError;
use fsi_geo::GeoError;
use fsi_ml::MlError;
use fsi_pipeline::PipelineError;
use fsi_serve::ServeError;
use std::fmt;

/// Any failure the `fsi` facade can produce, from dataset loading to
/// index serving.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so new pipeline stages can add variants without a breaking
/// change.
#[derive(Debug)]
#[non_exhaustive]
pub enum FsiError {
    /// Geometry failed (grids, rectangles, partitions, Voronoi).
    Geo(GeoError),
    /// Index construction failed (KD-tree / quadtree builders).
    Core(CoreError),
    /// Model training or scoring failed.
    Ml(MlError),
    /// Dataset handling failed (CSV, encoding, synthesis).
    Data(DataError),
    /// Fairness metric computation failed.
    Fairness(FairnessError),
    /// Compiling, querying or rebuilding a served index failed.
    Serve(ServeError),
    /// A spec or builder chain is invalid (caught before any work runs).
    InvalidSpec(String),
    /// A protocol message failed to encode, decode or validate.
    Proto(fsi_proto::ProtoError),
    /// An HTTP transport round-trip came back non-2xx.
    Http {
        /// The HTTP status code.
        status: u16,
        /// The response body (usually an error envelope).
        body: String,
    },
    /// Reading or writing a report/spec file failed.
    Io(std::io::Error),
    /// Serializing or deserializing a spec/report failed.
    Json(serde_json::Error),
}

impl fmt::Display for FsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsiError::Geo(e) => write!(f, "geometry: {e}"),
            FsiError::Core(e) => write!(f, "index construction: {e}"),
            FsiError::Ml(e) => write!(f, "model: {e}"),
            FsiError::Data(e) => write!(f, "data: {e}"),
            FsiError::Fairness(e) => write!(f, "fairness: {e}"),
            FsiError::Serve(e) => write!(f, "serving: {e}"),
            FsiError::InvalidSpec(msg) => write!(f, "invalid pipeline spec: {msg}"),
            FsiError::Proto(e) => write!(f, "protocol: {e}"),
            FsiError::Http { status, body } => {
                write!(f, "http status {status}: {body}")
            }
            FsiError::Io(e) => write!(f, "i/o: {e}"),
            FsiError::Json(e) => write!(f, "json: {e}"),
        }
    }
}

impl std::error::Error for FsiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsiError::Geo(e) => Some(e),
            FsiError::Core(e) => Some(e),
            FsiError::Ml(e) => Some(e),
            FsiError::Data(e) => Some(e),
            FsiError::Fairness(e) => Some(e),
            FsiError::Serve(e) => Some(e),
            FsiError::InvalidSpec(_) => None,
            FsiError::Proto(e) => Some(e),
            FsiError::Http { .. } => None,
            FsiError::Io(e) => Some(e),
            FsiError::Json(e) => Some(e),
        }
    }
}

impl From<fsi_proto::ProtoError> for FsiError {
    fn from(e: fsi_proto::ProtoError) -> Self {
        FsiError::Proto(e)
    }
}

impl From<GeoError> for FsiError {
    fn from(e: GeoError) -> Self {
        FsiError::Geo(e)
    }
}
impl From<CoreError> for FsiError {
    fn from(e: CoreError) -> Self {
        FsiError::Core(e)
    }
}
impl From<MlError> for FsiError {
    fn from(e: MlError) -> Self {
        FsiError::Ml(e)
    }
}
impl From<DataError> for FsiError {
    fn from(e: DataError) -> Self {
        FsiError::Data(e)
    }
}
impl From<FairnessError> for FsiError {
    fn from(e: FairnessError) -> Self {
        FsiError::Fairness(e)
    }
}
impl From<std::io::Error> for FsiError {
    fn from(e: std::io::Error) -> Self {
        FsiError::Io(e)
    }
}
impl From<serde_json::Error> for FsiError {
    fn from(e: serde_json::Error) -> Self {
        FsiError::Json(e)
    }
}

impl From<PipelineError> for FsiError {
    /// Flattens: the lower-layer error wrapped by the pipeline surfaces
    /// as its own top-level variant, and invalid-config reports become
    /// [`FsiError::InvalidSpec`] — there is deliberately no
    /// `FsiError::Pipeline` variant left to match on.
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Core(e) => FsiError::Core(e),
            PipelineError::Data(e) => FsiError::Data(e),
            PipelineError::Fairness(e) => FsiError::Fairness(e),
            PipelineError::Geo(e) => FsiError::Geo(e),
            PipelineError::Ml(e) => FsiError::Ml(e),
            PipelineError::InvalidConfig(msg) => FsiError::InvalidSpec(msg),
        }
    }
}

impl From<ServeError> for FsiError {
    /// Flattens: pipeline errors inside serve errors are re-flattened;
    /// genuine serving failures stay [`FsiError::Serve`].
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Pipeline(inner) => FsiError::from(inner),
            other => FsiError::Serve(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_flatten_nested_errors() {
        let e: FsiError = PipelineError::Ml(MlError::EmptyDataset).into();
        assert!(matches!(e, FsiError::Ml(_)), "{e:?}");
        let e: FsiError = ServeError::Pipeline(PipelineError::Geo(GeoError::NoSeeds)).into();
        assert!(matches!(e, FsiError::Geo(_)), "{e:?}");
        let e: FsiError = ServeError::NotStaged.into();
        assert!(matches!(e, FsiError::Serve(_)), "{e:?}");
        let e: FsiError = PipelineError::InvalidConfig("bad".into()).into();
        assert!(matches!(e, FsiError::InvalidSpec(_)), "{e:?}");
    }

    #[test]
    fn sources_chain_to_the_origin() {
        let e: FsiError = MlError::EmptyDataset.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("model"));
        let e = FsiError::InvalidSpec("height".into());
        assert!(e.source().is_none());
        assert!(e.to_string().contains("height"));
    }
}
