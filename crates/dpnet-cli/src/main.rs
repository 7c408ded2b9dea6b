//! `dpnet` — the command-line face of the library: generate synthetic
//! traces, convert between formats, inspect them owner-side, and run
//! privacy-budgeted analyses.

mod args;
mod commands;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate_cmd(&parsed),
        "convert" => commands::convert_cmd(&parsed),
        "inspect" => commands::inspect_cmd(&parsed),
        "analyze" => commands::analyze_cmd(&parsed),
        "classify" => commands::classify_cmd(&parsed),
        "audit" => commands::audit_cmd(&parsed),
        "serve" => commands::serve_cmd(&parsed),
        "loadtest" => commands::loadtest_cmd(&parsed),
        "profile" => commands::profile_cmd(&parsed),
        "explain" => commands::explain_cmd(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", commands::usage());
            return;
        }
        other => Err(format!(
            "unknown command '{other}'\n\n{}",
            commands::usage()
        )),
    };
    match result {
        // Reports may already end in a newline (text fixtures such as
        // `bench-reports/EXPLAIN_*.txt` are stdout byte for byte): print
        // exactly one.
        Ok(report) => println!("{}", report.trim_end_matches('\n')),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
