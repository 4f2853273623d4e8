//! `cdb-benchmark`: see `README.md` and `--help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cdb_benchmark::cli::USAGE);
        return;
    }
    match cdb_benchmark::cli::parse_args(&args) {
        Ok(parsed) => std::process::exit(cdb_benchmark::cli::run(&parsed)),
        Err(why) => {
            eprintln!("{why}\n{}", cdb_benchmark::cli::USAGE);
            std::process::exit(2);
        }
    }
}
