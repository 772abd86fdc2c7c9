//! `fudj` — the interactive SQL shell.
//!
//! ```text
//! cargo run -p fudj-cli --release -- --workers 4 --sample 2000
//! ```
//!
//! Flags: `--workers N` (cluster size, default 4), `--sample [N]` (preload
//! the synthetic datasets and register the paper's joins).

use fudj_cli::{Repl, ReplCommand};
use std::io::{BufRead, Write};

fn main() {
    let mut workers = 4usize;
    let mut sample: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" | "-w" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs a number"));
            }
            "--sample" => {
                sample = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or(2_000));
            }
            "--help" | "-h" => {
                println!("{}", fudj_cli::repl::help(None));
                return;
            }
            other => die(&format!("unknown flag {other}; try --help")),
        }
    }

    let mut repl = Repl::new(workers);
    println!("FUDJ shell — {workers}-worker cluster. \\help for help, \\q to quit.");
    if let Some(n) = sample {
        match repl.load_sample(n) {
            Ok(()) => println!("loaded sample datasets (~{n} records each); try \\d"),
            Err(e) => eprintln!("sample load failed: {e}"),
        }
    }

    let stdin = std::io::stdin();
    let mut prompt_continuation = false;
    loop {
        print!(
            "{}",
            if prompt_continuation {
                "   ...> "
            } else {
                "fudj> "
            }
        );
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match repl.feed(line.trim_end_matches(['\n', '\r'])) {
            ReplCommand::Incomplete => prompt_continuation = true,
            ReplCommand::Statement(sql) => {
                prompt_continuation = false;
                print!("{}", repl.run_statement(&sql));
            }
            ReplCommand::Meta(cmd, args) => {
                if matches!(cmd.as_str(), "q" | "quit" | "exit") {
                    break;
                }
                print!("{}", repl.run_meta(&cmd, &args));
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
