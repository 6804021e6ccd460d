//! Servants: object implementations on the server side.

use crate::error::OrbError;
use multe_qos::GrantedQoS;

/// Per-invocation context handed to a servant.
///
/// Carries the outcome of the bilateral QoS negotiation so that an object
/// implementation can adapt its behaviour to the granted operating point —
/// e.g. the paper's motivating image server returning a lower resolution
/// under a lower QoS (Section 4.1). The operation's name is not in here:
/// [`Servant::dispatch`] receives it as its first argument, a view of the
/// request frame, so building a context copies nothing.
#[derive(Debug, Clone, Default)]
pub struct InvocationCtx {
    granted: GrantedQoS,
    one_way: bool,
}

impl InvocationCtx {
    /// Creates a context (used by the adapter).
    pub fn new(granted: GrantedQoS, one_way: bool) -> Self {
        InvocationCtx { granted, one_way }
    }

    /// The QoS granted for this invocation (best-effort when the client
    /// never called `set_qos_parameter`).
    pub fn granted(&self) -> &GrantedQoS {
        &self.granted
    }

    /// Whether the client expects no reply.
    pub fn is_one_way(&self) -> bool {
        self.one_way
    }
}

/// An object implementation.
///
/// `dispatch` is the skeleton's upcall: it receives the operation name and
/// the marshalled in-parameters and returns the marshalled results. Chic
/// generates typed skeletons on top of this; hand-written servants (and
/// the dynamic invocation interface) use it directly.
pub trait Servant: Send + Sync {
    /// Handles one invocation.
    ///
    /// # Errors
    ///
    /// [`OrbError::OperationUnknown`] for unsupported operations; any other
    /// [`OrbError`] is reported to the client as an exception.
    fn dispatch(
        &self,
        operation: &str,
        args: &[u8],
        ctx: &InvocationCtx,
    ) -> Result<Vec<u8>, OrbError>;

    /// Interface repository id (diagnostics; defaults to a generic id).
    fn repo_id(&self) -> &str {
        "IDL:multe/Object:1.0"
    }
}

/// Wraps a closure as a [`Servant`].
pub struct FnServant<F> {
    f: F,
}

impl<F> FnServant<F>
where
    F: Fn(&str, &[u8], &InvocationCtx) -> Result<Vec<u8>, OrbError> + Send + Sync,
{
    /// Creates a servant from a dispatch closure.
    pub fn new(f: F) -> Self {
        FnServant { f }
    }
}

impl<F> Servant for FnServant<F>
where
    F: Fn(&str, &[u8], &InvocationCtx) -> Result<Vec<u8>, OrbError> + Send + Sync,
{
    fn dispatch(
        &self,
        operation: &str,
        args: &[u8],
        ctx: &InvocationCtx,
    ) -> Result<Vec<u8>, OrbError> {
        (self.f)(operation, args, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_servant_dispatches() {
        let servant = FnServant::new(|op, args, _ctx| {
            if op == "double" {
                Ok(args.iter().flat_map(|&b| [b, b]).collect())
            } else {
                Err(OrbError::OperationUnknown {
                    object: "t".into(),
                    operation: op.into(),
                })
            }
        });
        let ctx = InvocationCtx::default();
        assert_eq!(servant.dispatch("double", b"ab", &ctx).unwrap(), b"aabb");
        assert!(matches!(
            servant.dispatch("nope", b"", &ctx),
            Err(OrbError::OperationUnknown { .. })
        ));
        assert!(servant.repo_id().starts_with("IDL:"));
    }

    #[test]
    fn ctx_accessors() {
        let ctx = InvocationCtx::new(GrantedQoS::best_effort(), true);
        assert!(ctx.is_one_way());
        assert!(ctx.granted().is_best_effort());
    }
}
