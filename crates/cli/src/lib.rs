//! Command-line interface library: argument parsing and command
//! execution for the `flashoverlap` binary.
//!
//! The parser is deliberately hand-rolled (the workspace keeps its
//! dependency set minimal); commands map one-to-one onto the library's
//! public workflow:
//!
//! ```text
//! flashoverlap tune    -m 4096 -n 8192 -k 16384 --gpus 4 --platform rtx4090
//! flashoverlap run     -m 4096 -n 8192 -k 16384 --primitive reducescatter
//! flashoverlap compare -m 4096 -n 8192 -k 16384 --gpus 8
//! flashoverlap timeline -m 4096 -n 8192 -k 8192 --partition 1,2,3,4
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

pub mod args;
pub mod commands;

pub use args::{Cli, CliError, Command, PlanCommand};

/// Parses arguments and executes the selected command, returning the
/// text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a usage hint on malformed input, and a
/// plain message when execution fails.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let cli = Cli::parse(argv)?;
    commands::execute(&cli)
}

/// The body of both `flashoverlap` binaries: runs the process arguments
/// and prints the report. On an error it prints the message and, where
/// it helps, [`args::USAGE`] to stderr, then exits 0 for a bare help request
/// and 1 otherwise.
pub fn main_with_env_args() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("error: {e}");
            }
            if e.show_usage {
                eprint!("{}", args::USAGE);
            }
            std::process::exit(if e.message.is_empty() { 0 } else { 1 });
        }
    }
}
