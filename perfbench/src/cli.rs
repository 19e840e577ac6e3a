//! Strict command-line parsing: every argument is required, validated and
//! used exactly once; anything else is an error (exit code 2).

pub const USAGE: &str = "usage: dmm-perfbench --workload <sweep-drr|design-cases|replay-panel> \
                         --seed <u64> --seconds <1..=3600> --trace <0|1>\n       \
                         dmm-perfbench --make-reference <sweep-drr|replay-panel>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepDrr,
    DesignCases,
    ReplayPanel,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepDrr,
        Workload::DesignCases,
        Workload::ReplayPanel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepDrr => "sweep-drr",
            Workload::DesignCases => "design-cases",
            Workload::ReplayPanel => "replay-panel",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug)]
pub enum Command {
    Run(Args),
    MakeReference(Workload),
}

pub fn parse(argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let argv: Vec<String> = argv.collect();
    match argv.as_slice() {
        [flag, w] if flag == "--make-reference" => {
            return match w.as_str() {
                "sweep-drr" => Ok(Command::MakeReference(Workload::SweepDrr)),
                "replay-panel" => Ok(Command::MakeReference(Workload::ReplayPanel)),
                _ => Err(format!("no stored reference for {w:?}")),
            }
        }
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (flag, None),
        };
        let value = match inline {
            Some(v) => v,
            None => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
        };
        let slot_taken = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                seed = Some(parse_u64("--seed", &value)?);
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let s = parse_u64("--seconds", &value)?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=3600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// Digits only: no sign, no whitespace, no fallback to a default.
fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "{flag} must be a non-negative integer, got {value:?}"
        ));
    }
    value
        .parse()
        .map_err(|_| format!("{flag} is out of range: {value:?}"))
}
