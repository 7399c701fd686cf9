//! Error type for the serving layer.

use cdl_core::CdlError;
use cdl_tensor::Tensor;
use std::fmt;

use crate::config::Priority;
use crate::router::ModelId;

/// Result alias used throughout `cdl-serve`.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Error produced by request submission or completion.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded submission queue is at capacity (a non-blocking admission
    /// such as [`crate::Router::try_submit_with`] — a blocking submit waits
    /// instead). The request was **not** admitted.
    Full,
    /// The server no longer accepts requests (shutdown has begun).
    ShuttingDown,
    /// The serving pipeline dropped the request without evaluating it
    /// (a worker died, or the server was torn down abnormally). Graceful
    /// [`crate::Server::shutdown`] drains the queue, so waiters only see
    /// this on abnormal termination.
    Disconnected,
    /// The evaluator failed on the batch containing this request.
    Eval(CdlError),
    /// Invalid server configuration (zero-sized queue, empty worker pool,
    /// zero-sized batches, …).
    BadConfig(String),
    /// Invalid per-request [`crate::SubmitOptions`] (e.g. a δ override out
    /// of range for the model's policy). The request was **not** admitted.
    BadOptions(String),
    /// The [`crate::ModelId`] on a routed request matches no shard of the
    /// [`crate::Router`]. The request was **not** admitted.
    UnknownModel(ModelId),
    /// The request's deadline passed before it reached the evaluator: it
    /// was settled as its batch was sealed, without spending any evaluator
    /// ops — the queue-level analogue of early exit.
    Expired,
    /// The admission gate shed the request because its priority class is
    /// not admitted at the current queue depth (lower classes are shed
    /// first as the gate fills). The request was **not** admitted.
    Shed(Priority),
    /// The tenant already has its full quota of requests in flight on this
    /// replica. The request was **not** admitted.
    QuotaExceeded(u32),
    /// The input tensor's shape does not match the model's expected input
    /// shape. Caught at admission so one wrong-shaped tensor can never
    /// poison co-batched neighbors. The request was **not** admitted.
    BadInput(String),
    /// An injected fault ([`crate::fault::FaultPlan`]) refused or broke the
    /// request. Only produced when a fault plan is armed — production
    /// configurations never see it. Treated as retryable by
    /// [`crate::RetryPolicy`], exactly like a real replica failure would
    /// be. The request was **not** admitted.
    Fault(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Full => write!(f, "submission queue full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "request dropped by the serving pipeline"),
            ServeError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ServeError::BadConfig(msg) => write!(f, "bad server configuration: {msg}"),
            ServeError::BadOptions(msg) => write!(f, "bad submit options: {msg}"),
            ServeError::UnknownModel(id) => write!(f, "no shard serves model {id}"),
            ServeError::Expired => write!(f, "deadline expired before evaluation"),
            ServeError::Shed(p) => write!(f, "shed at admission (priority class {p})"),
            ServeError::QuotaExceeded(t) => write!(f, "tenant {t} is at its in-flight quota"),
            ServeError::BadInput(msg) => write!(f, "bad input tensor: {msg}"),
            ServeError::Fault(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdlError> for ServeError {
    fn from(e: CdlError) -> Self {
        ServeError::Eval(e)
    }
}

/// A refused admission: why, and the request's tensor handed back so a
/// caller that retries (the TCP edge parking on [`ServeError::Full`])
/// resubmits the same allocation instead of cloning per attempt.
#[derive(Debug)]
pub(crate) struct Refused {
    /// Why the request was not admitted.
    pub(crate) error: ServeError,
    /// The request's input. A [`crate::Server`] always hands it back;
    /// `None` only from a [`crate::Router`] retry/hedge race that still
    /// shares the request with an attempt or a hedge timer.
    pub(crate) input: Option<Tensor>,
}

impl Refused {
    pub(crate) fn returning(error: ServeError, input: Tensor) -> Self {
        Refused {
            error,
            input: Some(input),
        }
    }
}

impl From<Refused> for ServeError {
    fn from(refused: Refused) -> Self {
        refused.error
    }
}
