//! The traced binary: the same program with the counting allocator
//! installed. `stackbench` runs it for the traced pass only.

#[global_allocator]
static ALLOC: stackbench::alloc::CountingAlloc = stackbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    stackbench::cli::main(std::time::Instant::now())
}
