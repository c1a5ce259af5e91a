//! `triad` — command-line front end. All logic lives in the library crate
//! (`triad_cli`) where it is unit-tested; this wrapper only handles process
//! boundaries.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match triad_cli::Cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match triad_cli::run(&cli) {
        Ok(lines) => {
            // A reader that closed the pipe early (`triad lint | head -3`)
            // wants no more output, which is not an error.
            if let Err(e) = print_lines(&lines) {
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn print_lines(lines: &[String]) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for l in lines {
        writeln!(out, "{l}")?;
    }
    out.flush()
}
