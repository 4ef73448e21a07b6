//! The `flashoverlap` command-line tool.

fn main() {
    flashoverlap_cli::main_with_env_args();
}
