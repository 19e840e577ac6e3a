//! The `dmm` command-line tool. See [`dmm_cli`] for the subcommands.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dmm_cli::Invocation::parse(&args).and_then(|inv| dmm_cli::run(&inv)) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("dmm: {e}");
            std::process::exit(1);
        }
    }
}
