//! The traced benchmark binary: the same traffic plus layer probes, with
//! allocations counted (`--trace 1`).

#[global_allocator]
static GLOBAL: pns_perfbench::sys::CountingAlloc = pns_perfbench::sys::CountingAlloc;

fn main() {
    std::process::exit(pns_perfbench::cli::main(true));
}
