//! The untraced benchmark binary: end-to-end metrics (`--trace 0`).

fn main() {
    std::process::exit(pns_perfbench::cli::main(false));
}
