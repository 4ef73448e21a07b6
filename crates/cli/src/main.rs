//! The `flashoverlap` command-line tool.

#![cfg_attr(not(test), warn(clippy::expect_used))]

use flashoverlap_cli::args::USAGE;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match flashoverlap_cli::run(&argv) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("error: {e}");
            }
            if e.show_usage {
                eprint!("{USAGE}");
            }
            std::process::exit(if e.message.is_empty() { 0 } else { 1 });
        }
    }
}
