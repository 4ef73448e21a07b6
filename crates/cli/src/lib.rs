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
