//! The end-to-end binary: default allocator, no tracing compiled in the
//! way of a rep.

fn main() -> std::process::ExitCode {
    stackbench::cli::main(std::time::Instant::now())
}
