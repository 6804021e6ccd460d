//! Rust code generation: stubs and skeletons.
//!
//! For every IDL interface the generator emits:
//!
//! * a **server trait** (`pub trait {Name}`) with one typed method per
//!   operation — `in`/`inout` parameters become arguments, the return
//!   value plus `out`/`inout` parameters become the (tuple) result;
//! * a **skeleton** (`{Name}Skeleton<S>`) implementing
//!   `cool_orb::Servant`: it unmarshals CDR arguments, upcalls the trait,
//!   and marshals the results;
//! * a **typed stub** (`{Name}Stub`) wrapping `cool_orb::Stub` with the
//!   same typed methods, marshalling in the opposite direction.
//!
//! With [`CodegenOptions::qos`] the stub also exposes
//! `set_qos_parameter` / `clear_qos` / `last_granted` — the template
//! modification the paper describes in Section 4.1. Without it the output
//! is what an unmodified Chic would emit, so the two variants diff exactly
//! by the QoS surface.

use crate::ast::{Direction, Interface, Module, Operation, Spec, StreamDecl, Type};
use std::fmt::Write as _;

/// Options controlling generation.
#[derive(Debug, Clone, Default)]
pub struct CodegenOptions {
    /// Generate the QoS extension (`set_qos_parameter` on stubs).
    pub qos: bool,
}

/// Generates Rust source for a checked specification.
pub fn generate(spec: &Spec, options: &CodegenOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by chic — the COOL IDL compiler. Do not edit."
    );
    let _ = writeln!(
        out,
        "// QoS extension: {}",
        if options.qos { "enabled" } else { "disabled" }
    );
    for module in &spec.modules {
        generate_module(&mut out, module, options);
    }
    out
}

fn generate_module(out: &mut String, module: &Module, options: &CodegenOptions) {
    let has_streams = module.interfaces.iter().any(|i| !i.streams.is_empty());
    let _ = writeln!(out, "/// Generated from IDL module `{}`.", module.name);
    let _ = writeln!(out, "pub mod {} {{", module.name);
    let _ = writeln!(
        out,
        "    #![allow(\n        clippy::all,\n        unused_mut,\n        unused_variables,\n        unused_imports,\n        reason = \"generated: not every IDL module uses every import and binding\"\n    )]"
    );
    let _ = writeln!(out, "    use bytes::Bytes;");
    let _ = writeln!(
        out,
        "    use cool_giop::cdr::{{ByteOrder, CdrDecoder, CdrEncoder}};"
    );
    let _ = writeln!(
        out,
        "    use cool_orb::{{InvocationCtx, OrbError, Servant, Stub}};"
    );
    if options.qos {
        let _ = writeln!(out, "    use multe_qos::{{GrantedQoS, QoSSpec}};");
    }
    if has_streams {
        let _ = writeln!(out, "    use cool_orb::{{ObjectRef, Orb}};");
        let _ = writeln!(
            out,
            "    use cool_orb::stream::{{handle_stream_open, open_stream_named, FlowHandle, StreamReceiver, StreamSource}};"
        );
        if !options.qos {
            let _ = writeln!(out, "    use multe_qos::{{GrantedQoS, QoSSpec}};");
        }
        let _ = writeln!(out, "    use multe_qos::ServerPolicy;");
        let _ = writeln!(out, "    use std::sync::Arc;");
    }
    for iface in &module.interfaces {
        generate_trait(out, iface);
        generate_skeleton(out, module, iface);
        generate_stub(out, module, iface, options);
        if !iface.streams.is_empty() {
            generate_streams(out, iface);
        }
    }
    let _ = writeln!(out, "}}");
}

/// Own plus transitively inherited operations of `iface`, base-first.
/// CORBA interface inheritance flattens into the derived skeleton and
/// stub; stream declarations are intentionally not inherited (a flow is a
/// property of the concrete object implementation).
fn resolved_operations<'a>(module: &'a Module, iface: &'a Interface) -> Vec<&'a Operation> {
    let mut ops: Vec<&'a Operation> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    fn visit<'a>(
        module: &'a Module,
        iface: &'a Interface,
        ops: &mut Vec<&'a Operation>,
        seen: &mut std::collections::HashSet<String>,
    ) {
        for base_name in &iface.bases {
            if let Some(base) = module.interfaces.iter().find(|i| &i.name == base_name) {
                visit(module, base, ops, seen);
            }
        }
        for op in &iface.operations {
            if seen.insert(op.name.clone()) {
                ops.push(op);
            }
        }
    }
    visit(module, iface, &mut ops, &mut seen);
    ops
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn stream_trait_signature(stream: &StreamDecl) -> String {
    let mut sig = format!(
        "fn {}(&self, flow: FlowHandle, granted: &GrantedQoS",
        stream.name
    );
    for p in &stream.params {
        let _ = write!(sig, ", {}: {}", p.name, p.ty.rust_name());
    }
    sig.push(')');
    sig
}

/// Generates the stream-interface surface: the `{Name}Streams` trait (the
/// stream skeleton's upcall target), a combined registration function
/// playing the stream object adapter role, and typed `open_*` client
/// functions — the paper's Section 7 extended-IDL output.
fn generate_streams(out: &mut String, iface: &Interface) {
    let name = &iface.name;
    let snake = snake_case(name);

    // --- server-side trait -------------------------------------------------
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "    /// Stream sources of interface `{name}` (extended IDL)."
    );
    let _ = writeln!(out, "    pub trait {name}Streams: Send + Sync + 'static {{");
    for stream in &iface.streams {
        let _ = writeln!(out, "        /// Produces the `{}` flow.", stream.name);
        let _ = writeln!(out, "        {};", stream_trait_signature(stream));
    }
    let _ = writeln!(out, "    }}");

    // --- per-stream StreamSource adapters -----------------------------------
    for stream in &iface.streams {
        let sname = &stream.name;
        let _ = writeln!(out);
        let _ = writeln!(out, "    struct {name}{sname}Source<T: {name}Streams> {{");
        let _ = writeln!(out, "        inner: Arc<T>,");
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "    impl<T: {name}Streams> StreamSource for {name}{sname}Source<T> {{"
        );
        let _ = writeln!(
            out,
            "        fn stream(&self, flow: FlowHandle, granted: &GrantedQoS, args: &[u8]) {{"
        );
        let _ = writeln!(
            out,
            "            let mut dec = CdrDecoder::new(args, ByteOrder::Big);"
        );
        let mut arg_names = Vec::new();
        for p in &stream.params {
            let expr = decode_expr("dec", &p.ty, 0);
            let _ = writeln!(
                out,
                "            let Ok({}): Result<{}, _> = (|| -> Result<{}, cool_giop::GiopError> {{ Ok({expr}) }})() else {{ return; }};",
                p.name,
                p.ty.rust_name(),
                p.ty.rust_name(),
            );
            arg_names.push(p.name.clone());
        }
        let mut call = format!("self.inner.{sname}(flow, granted");
        for a in &arg_names {
            let _ = write!(call, ", {a}");
        }
        call.push_str(");");
        let _ = writeln!(out, "            {call}");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}");
    }

    // --- combined registration (the stream object adapter) ------------------
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "    /// Registers a `{name}` servant together with its stream"
    );
    let _ = writeln!(out, "    /// sources under one object key.");
    let _ = writeln!(out, "    ///");
    let _ = writeln!(out, "    /// # Errors");
    let _ = writeln!(out, "    ///");
    let _ = writeln!(out, "    /// `OrbError::BadAddress` if the key is taken.");
    let _ = writeln!(
        out,
        "    pub fn register_{snake}<S: {name}, T: {name}Streams>("
    );
    let _ = writeln!(out, "        orb: &Arc<Orb>,");
    let _ = writeln!(out, "        key: &str,");
    let _ = writeln!(out, "        policy: ServerPolicy,");
    let _ = writeln!(out, "        servant: S,");
    let _ = writeln!(out, "        streams: Arc<T>,");
    let _ = writeln!(out, "    ) -> Result<(), OrbError> {{");
    let _ = writeln!(out, "        let exchange = orb.exchange().clone();");
    let _ = writeln!(out, "        let key_owned = key.to_owned();");
    let _ = writeln!(out, "        let skeleton = {name}Skeleton::new(servant);");
    for stream in &iface.streams {
        let sname = &stream.name;
        let _ = writeln!(
            out,
            "        let {sname}_source: Arc<dyn StreamSource> = Arc::new({name}{sname}Source {{ inner: streams.clone() }});"
        );
    }
    let _ = writeln!(out, "        orb.adapter().register_with_policy(");
    let _ = writeln!(out, "            key,");
    let _ = writeln!(
        out,
        "            Arc::new(cool_orb::servant::FnServant::new(move |operation, args, ctx| {{"
    );
    let _ = writeln!(out, "                match operation {{");
    for stream in &iface.streams {
        let sname = &stream.name;
        let _ = writeln!(
            out,
            "                    {sname:?} => handle_stream_open(&exchange, &key_owned, {sname}_source.clone(), ctx.granted(), args),"
        );
    }
    let _ = writeln!(
        out,
        "                    _ => skeleton.dispatch(operation, args, ctx),"
    );
    let _ = writeln!(out, "                }}");
    let _ = writeln!(out, "            }})),");
    let _ = writeln!(out, "            policy,");
    let _ = writeln!(out, "        )");
    let _ = writeln!(out, "    }}");

    // --- typed client open functions ----------------------------------------
    for stream in &iface.streams {
        let sname = &stream.name;
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "    /// Opens the `{sname}` flow of a `{name}` object with the"
        );
        let _ = writeln!(out, "    /// given flow QoS.");
        let _ = writeln!(out, "    ///");
        let _ = writeln!(out, "    /// # Errors");
        let _ = writeln!(out, "    ///");
        let _ = writeln!(out, "    /// The server's QoS NACK or connection failures.");
        let mut sig = format!(
            "    pub fn open_{snake}_{sname}(orb: &Arc<Orb>, reference: &ObjectRef, qos: QoSSpec"
        );
        for p in &stream.params {
            let _ = write!(sig, ", {}: {}", p.name, p.ty.rust_name());
        }
        let _ = writeln!(out, "{sig}) -> Result<StreamReceiver, OrbError> {{");
        let _ = writeln!(
            out,
            "        let mut enc = CdrEncoder::new(ByteOrder::Big);"
        );
        for p in &stream.params {
            emit_encode(out, "        ", "enc", &p.name, &p.ty, 0);
        }
        let _ = writeln!(
            out,
            "        open_stream_named(orb, reference, {sname:?}, Bytes::from(enc.into_bytes()), qos)"
        );
        let _ = writeln!(out, "    }}");
    }
}

/// The trait method result type: return value then out/inout params.
fn result_types(op: &Operation) -> Vec<Type> {
    let mut types = Vec::new();
    if let Some(ret) = &op.returns {
        types.push(ret.clone());
    }
    for p in &op.params {
        if matches!(p.direction, Direction::Out | Direction::InOut) {
            types.push(p.ty.clone());
        }
    }
    types
}

fn result_type_name(op: &Operation) -> String {
    let types = result_types(op);
    match types.len() {
        0 => "()".into(),
        1 => types[0].rust_name(),
        _ => {
            let names: Vec<String> = types.iter().map(Type::rust_name).collect();
            format!("({})", names.join(", "))
        }
    }
}

/// Arguments of the trait/stub method: in + inout params.
fn input_params(op: &Operation) -> Vec<(&str, &Type)> {
    op.params
        .iter()
        .filter(|p| matches!(p.direction, Direction::In | Direction::InOut))
        .map(|p| (p.name.as_str(), &p.ty))
        .collect()
}

fn method_signature(op: &Operation) -> String {
    let mut sig = format!("fn {}(&self", op.name);
    for (name, ty) in input_params(op) {
        let _ = write!(sig, ", {}: {}", name, ty.rust_name());
    }
    let _ = write!(
        sig,
        ") -> Result<{}, OrbError>",
        if op.oneway {
            "()".to_string()
        } else {
            result_type_name(op)
        }
    );
    sig
}

fn generate_trait(out: &mut String, iface: &Interface) {
    let _ = writeln!(out);
    let _ = writeln!(out, "    /// Server-side interface `{}`.", iface.name);
    let supertraits = if iface.bases.is_empty() {
        String::new()
    } else {
        format!("{} + ", iface.bases.join(" + "))
    };
    let _ = writeln!(
        out,
        "    pub trait {}: {supertraits}Send + Sync + 'static {{",
        iface.name
    );
    for op in &iface.operations {
        let _ = writeln!(out, "        /// IDL operation `{}`.", op.name);
        if !op.raises.is_empty() {
            let _ = writeln!(out, "        ///");
            let _ = writeln!(out, "        /// May raise: {}.", op.raises.join(", "));
        }
        let _ = writeln!(out, "        {};", method_signature(op));
    }
    let _ = writeln!(out, "    }}");
}

/// Emits statements encoding `expr` of type `ty` into encoder `enc`.
fn emit_encode(out: &mut String, indent: &str, enc: &str, expr: &str, ty: &Type, depth: usize) {
    match ty {
        Type::Sequence(inner) if **inner == Type::Octet => {
            let _ = writeln!(out, "{indent}{enc}.put_octet_seq(&{expr});");
        }
        Type::Sequence(inner) => {
            let var = format!("item{depth}");
            let _ = writeln!(out, "{indent}{enc}.put_u32({expr}.len() as u32);");
            let _ = writeln!(out, "{indent}for {var} in &{expr} {{");
            // Inner elements are behind a reference; clone scalars cheaply.
            emit_encode(
                out,
                &format!("{indent}    "),
                enc,
                &format!("(*{var}).clone()"),
                inner,
                depth + 1,
            );
            let _ = writeln!(out, "{indent}}}");
        }
        Type::String => {
            let _ = writeln!(out, "{indent}{enc}.put_string(&{expr});");
        }
        other => match other.cdr_put() {
            Some(method) => {
                let _ = writeln!(out, "{indent}{enc}.{method}({expr});");
            }
            None => {
                // A type the emitter cannot encode must fail the build of
                // the *generated* code, loudly, not panic the generator.
                let _ = writeln!(
                    out,
                    "{indent}compile_error!(\"chic: no CDR encoding for this IDL type\");"
                );
            }
        },
    }
}

/// Emits an expression decoding a value of type `ty` from decoder `dec`.
fn decode_expr(dec: &str, ty: &Type, depth: usize) -> String {
    match ty {
        Type::Sequence(inner) if **inner == Type::Octet => format!("{dec}.get_octet_seq()?"),
        Type::Sequence(inner) => {
            let n = format!("n{depth}");
            let v = format!("v{depth}");
            let inner_expr = decode_expr(dec, inner, depth + 1);
            format!(
                "{{ let {n} = {dec}.get_u32()? as usize; let mut {v} = Vec::with_capacity({n}.min(4096)); for _ in 0..{n} {{ {v}.push({inner_expr}); }} {v} }}"
            )
        }
        other => match other.cdr_get() {
            Some(method) => format!("{dec}.{method}()?"),
            None => "compile_error!(\"chic: no CDR decoding for this IDL type\")".to_string(),
        },
    }
}

fn generate_skeleton(out: &mut String, module: &Module, iface: &Interface) {
    let name = &iface.name;
    let all_ops = resolved_operations(module, iface);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "    /// Skeleton adapting a [`{name}`] servant to ORB dispatch."
    );
    let _ = writeln!(out, "    pub struct {name}Skeleton<S: {name}> {{");
    let _ = writeln!(out, "        servant: S,");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out);
    let _ = writeln!(out, "    impl<S: {name}> {name}Skeleton<S> {{");
    let _ = writeln!(out, "        /// Wraps a servant implementation.");
    let _ = writeln!(out, "        pub fn new(servant: S) -> Self {{");
    let _ = writeln!(out, "            {name}Skeleton {{ servant }}");
    let _ = writeln!(out, "        }}");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out);
    let _ = writeln!(out, "    impl<S: {name}> Servant for {name}Skeleton<S> {{");
    let _ = writeln!(
        out,
        "        fn dispatch(&self, operation: &str, args: &[u8], _ctx: &InvocationCtx) -> Result<Vec<u8>, OrbError> {{"
    );
    let _ = writeln!(out, "            match operation {{");
    for op in &all_ops {
        let _ = writeln!(out, "                {:?} => {{", op.name);
        let _ = writeln!(
            out,
            "                    let mut dec = CdrDecoder::new(args, ByteOrder::Big);"
        );
        let inputs = input_params(op);
        for (pname, pty) in &inputs {
            let expr = decode_expr("dec", pty, 0);
            let _ = writeln!(
                out,
                "                    let {pname}: {} = {expr};",
                pty.rust_name()
            );
        }
        let args_list: Vec<&str> = inputs.iter().map(|(n, _)| *n).collect();
        let _ = writeln!(
            out,
            "                    let result = self.servant.{}({})?;",
            op.name,
            args_list.join(", ")
        );
        if op.oneway {
            let _ = writeln!(out, "                    let _ = result;");
            let _ = writeln!(out, "                    Ok(Vec::new())");
        } else {
            let _ = writeln!(
                out,
                "                    let mut enc = CdrEncoder::new(ByteOrder::Big);"
            );
            let result_types = result_types(op);
            match result_types.len() {
                0 => {
                    let _ = writeln!(out, "                    let _ = result;");
                }
                1 => {
                    emit_encode(
                        out,
                        "                    ",
                        "enc",
                        "result",
                        &result_types[0],
                        0,
                    );
                }
                n => {
                    for (i, ty) in result_types.iter().enumerate().take(n) {
                        emit_encode(
                            out,
                            "                    ",
                            "enc",
                            &format!("result.{i}"),
                            ty,
                            0,
                        );
                    }
                }
            }
            let _ = writeln!(out, "                    Ok(enc.into_bytes().to_vec())");
        }
        let _ = writeln!(out, "                }}");
    }
    let _ = writeln!(
        out,
        "                other => Err(OrbError::OperationUnknown {{"
    );
    let _ = writeln!(out, "                    object: {:?}.into(),", iface.name);
    let _ = writeln!(out, "                    operation: other.into(),");
    let _ = writeln!(out, "                }}),");
    let _ = writeln!(out, "            }}");
    let _ = writeln!(out, "        }}");
    let _ = writeln!(out);
    let _ = writeln!(out, "        fn repo_id(&self) -> &str {{");
    let _ = writeln!(
        out,
        "            \"IDL:{}/{}:1.0\"",
        module.name, iface.name
    );
    let _ = writeln!(out, "        }}");
    let _ = writeln!(out, "    }}");
}

fn generate_stub(out: &mut String, module: &Module, iface: &Interface, options: &CodegenOptions) {
    let name = &iface.name;
    let all_ops = resolved_operations(module, iface);
    let _ = writeln!(out);
    let _ = writeln!(out, "    /// Typed client stub for interface `{name}`.");
    let _ = writeln!(out, "    pub struct {name}Stub {{");
    let _ = writeln!(out, "        stub: Stub,");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out);
    let _ = writeln!(out, "    impl {name}Stub {{");
    let _ = writeln!(
        out,
        "        /// Wraps an ORB stub bound to a `{name}` object."
    );
    let _ = writeln!(out, "        pub fn new(stub: Stub) -> Self {{");
    let _ = writeln!(out, "            {name}Stub {{ stub }}");
    let _ = writeln!(out, "        }}");
    if options.qos {
        let _ = writeln!(out);
        let _ = writeln!(out, "        /// Specifies QoS for subsequent invocations");
        let _ = writeln!(out, "        /// (the paper's `setQoSParameter`).");
        let _ = writeln!(out, "        ///");
        let _ = writeln!(out, "        /// # Errors");
        let _ = writeln!(out, "        ///");
        let _ = writeln!(
            out,
            "        /// `OrbError::QosNotSupported` if the spec is invalid"
        );
        let _ = writeln!(
            out,
            "        /// or the transport rejects the requirements."
        );
        let _ = writeln!(
            out,
            "        pub fn set_qos_parameter(&self, spec: QoSSpec) -> Result<(), OrbError> {{"
        );
        let _ = writeln!(out, "            self.stub.set_qos_parameter(spec)");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "        /// Clears the QoS specification (standard GIOP)."
        );
        let _ = writeln!(out, "        ///");
        let _ = writeln!(out, "        /// # Errors");
        let _ = writeln!(out, "        ///");
        let _ = writeln!(out, "        /// Transport reconfiguration failures.");
        let _ = writeln!(
            out,
            "        pub fn clear_qos(&self) -> Result<(), OrbError> {{"
        );
        let _ = writeln!(out, "            self.stub.clear_qos()");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "        /// QoS granted on the most recent invocation."
        );
        let _ = writeln!(
            out,
            "        pub fn last_granted(&self) -> Option<GrantedQoS> {{"
        );
        let _ = writeln!(out, "            self.stub.last_granted()");
        let _ = writeln!(out, "        }}");
    }
    for op in &all_ops {
        let _ = writeln!(out);
        let _ = writeln!(out, "        /// Invokes `{}`.", op.name);
        let _ = writeln!(out, "        ///");
        let _ = writeln!(out, "        /// # Errors");
        let _ = writeln!(out, "        ///");
        let _ = writeln!(
            out,
            "        /// Server exceptions, QoS NACKs, transport failures."
        );
        let _ = writeln!(out, "        pub {} {{", method_signature(op));
        let _ = writeln!(
            out,
            "            let mut enc = CdrEncoder::new(ByteOrder::Big);"
        );
        for (pname, pty) in input_params(op) {
            emit_encode(out, "            ", "enc", pname, pty, 0);
        }
        let _ = writeln!(out, "            let args = Bytes::from(enc.into_bytes());");
        if op.oneway {
            let _ = writeln!(
                out,
                "            self.stub.invoke_oneway({:?}, args)",
                op.name
            );
        } else {
            let _ = writeln!(
                out,
                "            let reply = self.stub.invoke({:?}, args)?;",
                op.name
            );
            let result_types = result_types(op);
            if result_types.is_empty() {
                let _ = writeln!(out, "            let _ = reply;");
                let _ = writeln!(out, "            Ok(())");
            } else {
                let _ = writeln!(
                    out,
                    "            let mut dec = CdrDecoder::new(&reply, ByteOrder::Big);"
                );
                let mut elements = Vec::new();
                for (i, ty) in result_types.iter().enumerate() {
                    let var = format!("r{i}");
                    let expr = decode_expr("dec", ty, 0);
                    let _ = writeln!(out, "            let {var}: {} = {expr};", ty.rust_name());
                    elements.push(var);
                }
                if elements.len() == 1 {
                    let _ = writeln!(out, "            Ok({})", elements[0]);
                } else {
                    let _ = writeln!(out, "            Ok(({}))", elements.join(", "));
                }
            }
        }
        let _ = writeln!(out, "        }}");
    }
    let _ = writeln!(out, "    }}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn gen(src: &str, qos: bool) -> String {
        let spec = parse(&lex(src).unwrap()).unwrap();
        crate::sema::check(&spec).unwrap();
        generate(&spec, &CodegenOptions { qos })
    }

    const SAMPLE: &str = r#"
        module media {
            interface ImageServer {
                sequence<octet> get_image(in string name, in unsigned long resolution);
                oneway void log(in string message);
                void size(in string name, out long width, out long height);
            };
        };
    "#;

    #[test]
    fn generates_trait_skeleton_and_stub() {
        let code = gen(SAMPLE, false);
        assert!(code.contains("pub trait ImageServer"));
        assert!(code.contains("pub struct ImageServerSkeleton"));
        assert!(code.contains("pub struct ImageServerStub"));
        assert!(code.contains(
            "fn get_image(&self, name: String, resolution: u32) -> Result<Vec<u8>, OrbError>"
        ));
        assert!(code.contains("IDL:media/ImageServer:1.0"));
    }

    #[test]
    fn out_params_become_tuple_results() {
        let code = gen(SAMPLE, false);
        assert!(
            code.contains("fn size(&self, name: String) -> Result<(i32, i32), OrbError>"),
            "missing tuple signature in:\n{code}"
        );
    }

    #[test]
    fn qos_flag_controls_set_qos_parameter() {
        let with = gen(SAMPLE, true);
        let without = gen(SAMPLE, false);
        assert!(with.contains("pub fn set_qos_parameter"));
        assert!(with.contains("pub fn clear_qos"));
        assert!(with.contains("pub fn last_granted"));
        assert!(!without.contains("set_qos_parameter"));
        // The QoS surface is the *only* semantic difference, mirroring the
        // paper's minimal template change.
        assert!(without.contains("pub trait ImageServer"));
    }

    #[test]
    fn oneway_maps_to_invoke_oneway() {
        let code = gen(SAMPLE, false);
        assert!(code.contains("invoke_oneway(\"log\""));
    }

    #[test]
    fn sequences_round_trip_through_octet_fastpath() {
        let code = gen(SAMPLE, false);
        assert!(code.contains("get_octet_seq"));
    }

    #[test]
    fn stream_declarations_generate_full_surface() {
        let code = gen(
            r#"
            module av {
                interface Camera {
                    unsigned long frame_count();
                    stream video(in string source, in unsigned long fps);
                };
            };
            "#,
            true,
        );
        assert!(
            code.contains("pub trait CameraStreams"),
            "streams trait:\n{code}"
        );
        assert!(code.contains(
            "fn video(&self, flow: FlowHandle, granted: &GrantedQoS, source: String, fps: u32)"
        ));
        assert!(code.contains("pub fn register_camera<S: Camera, T: CameraStreams>"));
        assert!(code.contains("pub fn open_camera_video"));
        assert!(code.contains("open_stream_named(orb, reference, \"video\""));
        // The regular operation still generates normally.
        assert!(code.contains("fn frame_count(&self) -> Result<u32, OrbError>"));
    }

    #[test]
    fn interfaces_without_streams_emit_no_stream_surface() {
        let code = gen(SAMPLE, true);
        assert!(!code.contains("Streams"));
        assert!(!code.contains("open_stream_named"));
    }

    #[test]
    fn inheritance_flattens_into_derived_skeleton_and_stub() {
        let code = gen(
            r#"
            module shop {
                interface Base {
                    long ping();
                };
                interface Mid : Base {
                    string name();
                };
                interface Leaf : Mid {
                    void act(in long x);
                };
            };
            "#,
            false,
        );
        assert!(code.contains("pub trait Mid: Base + Send + Sync + 'static"));
        assert!(code.contains("pub trait Leaf: Mid + Send + Sync + 'static"));
        // The Leaf skeleton dispatches inherited operations too.
        let leaf_skeleton = code
            .split("impl<S: Leaf> Servant for LeafSkeleton<S>")
            .nth(1)
            .unwrap();
        assert!(leaf_skeleton.contains("\"ping\""));
        assert!(leaf_skeleton.contains("\"name\""));
        assert!(leaf_skeleton.contains("\"act\""));
        // The Leaf stub exposes the whole flattened surface.
        let leaf_stub = code.split("pub struct LeafStub").nth(1).unwrap();
        assert!(leaf_stub.contains("pub fn ping"));
        assert!(leaf_stub.contains("pub fn name"));
        assert!(leaf_stub.contains("pub fn act"));
    }

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake_case("Camera"), "camera");
        assert_eq!(snake_case("ImageServer"), "image_server");
        assert_eq!(snake_case("HTTPThing"), "h_t_t_p_thing");
    }

    #[test]
    fn nested_sequences_generate_loops() {
        let code = gen(
            "module m { interface I { sequence<sequence<long>> grid(); }; };",
            false,
        );
        assert!(code.contains("Vec<Vec<i32>>"));
        assert!(code.contains("get_u32()? as usize"));
    }
}
