//! Typed failures of the service layer.

use std::fmt;

use ipds_analysis::ImageError;

/// Everything the service layer can refuse to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A table image failed verification at registration time (bad magic,
    /// truncation, checksum mismatch, malformed payload — see
    /// [`ImageError`]). The image never enters the cache and no session
    /// runs against it.
    Image {
        /// The workload the image was registered under.
        workload: String,
        /// The loader's verdict.
        error: ImageError,
    },
    /// A session was opened against a workload the service has no verified
    /// artifact for.
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// A batch or close referenced a session id that is not open.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// An open named a session id that is already open. The open session
    /// keeps running; the second open changes nothing.
    SessionAlreadyOpen {
        /// The offending session id.
        session: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Image { workload, error } => {
                write!(f, "image for workload `{workload}` rejected: {error}")
            }
            ServiceError::UnknownWorkload { name } => {
                write!(f, "no verified artifact for workload `{name}`")
            }
            ServiceError::UnknownSession { session } => {
                write!(f, "session {session} is not open")
            }
            ServiceError::SessionAlreadyOpen { session } => {
                write!(f, "session {session} is already open")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Image { error, .. } => Some(error),
            _ => None,
        }
    }
}
