//! Runs the chic IDL compiler over `idl/*.idl` at build time, proving the
//! generated stubs/skeletons compile and run (see `tests/chic_generated.rs`
//! and `examples/media_server.rs`).

#![allow(
    clippy::expect_used,
    reason = "a build script reports failure by panicking; cargo prints the message"
)]

use std::path::Path;

fn main() {
    println!("cargo:rerun-if-changed=idl/media.idl");
    let out_dir = std::env::var("OUT_DIR").expect("OUT_DIR set by cargo");
    let idl = std::fs::read_to_string("idl/media.idl").expect("read idl/media.idl");

    let qos = chic::compile(&idl, &chic::CodegenOptions { qos: true }).expect("compile media.idl");
    std::fs::write(Path::new(&out_dir).join("media_qos.rs"), qos).expect("write generated code");

    let plain =
        chic::compile(&idl, &chic::CodegenOptions { qos: false }).expect("compile media.idl");
    std::fs::write(Path::new(&out_dir).join("media_plain.rs"), plain)
        .expect("write generated code");
}
