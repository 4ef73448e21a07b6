//! Workspace-root entry point: forwards to the `flashoverlap` CLI so
//! `cargo run --release -- <command>` works from the repository root.

fn main() {
    flashoverlap_cli::main_with_env_args();
}
