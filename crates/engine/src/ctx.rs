//! `ExecContext`: one bundle of execution options passed by reference.
//!
//! Callers build one [`ExecContext`] and pass `&cx` through the execution
//! entry points ([`crate::exec::execute_ctx`],
//! [`crate::maintenance::maintain_view_ctx`]), so a new cross-cutting
//! concern is a new field here, not a new parameter on every signature.

/// Execution options, passed by reference through the execution stack.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Use the vectorized columnar operators (`false` forces the
    /// row-at-a-time interpreter; both produce byte-identical results).
    pub columnar: bool,
}

impl ExecContext {
    /// The default context: columnar execution — what `execute(query, db)`
    /// implies.
    pub fn new() -> Self {
        ExecContext::columnar(true)
    }

    /// A context selecting the execution strategy.
    pub fn columnar(columnar: bool) -> Self {
        ExecContext { columnar }
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new()
    }
}
