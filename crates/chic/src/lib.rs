//! # chic — the COOL IDL compiler
//!
//! COOL generates client stubs and server skeletons from CORBA IDL with
//! its template-driven compiler **Chic**. The paper's object-layer QoS
//! extension is a change to those templates: *"These template files are
//! modified by adding the method `setQoSParameter(struct QoSParameter**
//! qp)` in the stub"* (Section 4.1). This crate reimplements Chic for an
//! IDL subset targeting Rust:
//!
//! * [`lexer`] / [`parser`] — CORBA IDL subset: modules, interfaces,
//!   operations (including `oneway`), the primitive types, `string` and
//!   `sequence<T>`.
//! * [`sema`] — semantic checks (duplicate names, `oneway` rules).
//! * [`codegen`] — emits, per interface: a Rust server-side trait, a
//!   skeleton wiring it into the `cool-orb` crate's `Servant` dispatch with CDR
//!   (un)marshalling, and a typed client stub. With
//!   [`codegen::CodegenOptions::qos`] enabled the stub additionally
//!   carries `set_qos_parameter` — exactly the paper's template change;
//!   disabled, the output matches what an unmodified Chic would produce.
//!
//! ```
//! use chic::compile;
//!
//! let idl = r#"
//!     module demo {
//!         interface Echo {
//!             string ping(in string message);
//!         };
//!     };
//! "#;
//! let rust = compile(idl, &chic::CodegenOptions { qos: true, ..Default::default() }).unwrap();
//! assert!(rust.contains("pub trait Echo"));
//! assert!(rust.contains("pub fn set_qos_parameter"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod sema;

pub use codegen::CodegenOptions;
pub use error::ChicError;

/// Compiles IDL source to Rust stub/skeleton code.
///
/// # Errors
///
/// [`ChicError`] describing the first lexical, syntactic or semantic
/// problem.
pub fn compile(idl: &str, options: &CodegenOptions) -> Result<String, ChicError> {
    let tokens = lexer::lex(idl)?;
    let spec = parser::parse(&tokens)?;
    sema::check(&spec)?;
    Ok(codegen::generate(&spec, options))
}
