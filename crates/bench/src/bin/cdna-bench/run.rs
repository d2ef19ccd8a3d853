//! `cdna-bench run` — explore any configuration from the command line.
//!
//! ```sh
//! cargo run --release -p cdna-bench -- run cdna 8 tx
//! cargo run --release -p cdna-bench -- run xen-intel 24 rx --nics 2 --json
//! cargo run --release -p cdna-bench -- run cdna-noprot 1 tx --seed 7
//! cargo run --release -p cdna-bench -- run --trace /tmp/t.json --metrics
//! ```
//!
//! The three positionals default to `cdna 1 tx` when omitted. A run needs
//! at least one guest, NIC and connection per guest; a CDNA run at most
//! one guest per assignable hardware context.
//!
//! IO models: `native`, `xen-intel`, `xen-ricenic`, `cdna`, `cdna-iommu`,
//! `cdna-noprot`.
//!
//! `--trace <path>` writes the run as Chrome `trace_event` JSON — open
//! it at <https://ui.perfetto.dev> or `chrome://tracing`. `--metrics`
//! appends the full per-domain counter table to the report. `--shadow`
//! attaches the `cdna-check` DMA shadow checker (audit results appear
//! in the `global/check/*` counters and as a `shadow_audit` trace
//! instant).

use cdna_core::{DmaPolicy, CTX_COUNT};
use cdna_system::{run_instrumented, Direction, Instrumentation, IoModel, NicKind, TestbedConfig};

/// Ring capacity for `--trace`: large enough to hold the whole
/// measurement window of a quick run; older events fall off first.
const TRACE_CAPACITY: usize = 1 << 20;

/// Flag synopsis for the usage text.
pub const FLAGS: &str = "[native|xen-intel|xen-ricenic|cdna|cdna-iommu|cdna-noprot] \
                         [guests] [tx|rx] [--nics N] [--seed S] [--conns C] [--json] \
                         [--trace PATH] [--metrics] [--shadow]";

fn parse_io(name: &str) -> Option<IoModel> {
    Some(match name {
        "native" => IoModel::Native {
            nic: NicKind::Intel,
        },
        "xen-intel" => IoModel::XenBridged {
            nic: NicKind::Intel,
        },
        "xen-ricenic" => IoModel::XenBridged {
            nic: NicKind::RiceNic,
        },
        "cdna" => IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
        "cdna-iommu" => IoModel::Cdna {
            policy: DmaPolicy::Iommu,
        },
        "cdna-noprot" => IoModel::Cdna {
            policy: DmaPolicy::Unprotected,
        },
        _ => return None,
    })
}

/// Runs one configuration and prints its report.
pub fn main(args: &[String], _jobs: usize) -> Result<(), String> {
    // Positionals (all optional, defaulting to `cdna 1 tx`) come before
    // the first `--flag`.
    let n_pos = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    if n_pos > 3 {
        return Err("too many positional arguments".to_string());
    }
    let positional = &args[..n_pos];

    let io = match positional.first() {
        Some(name) => parse_io(name).ok_or_else(|| format!("unknown io model `{name}`"))?,
        None => IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
    };
    let guests: u16 = match positional.get(1) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("guest count expects a number, got `{v}`"))?,
        None => 1,
    };
    let direction = match positional.get(2).map(String::as_str) {
        Some("tx") | None => Direction::Transmit,
        Some("rx") => Direction::Receive,
        Some(other) => return Err(format!("unknown direction `{other}`")),
    };

    let mut cfg = TestbedConfig::new(io, guests, direction);
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut flags = args[n_pos..].iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--nics" => cfg.nics = crate::flag_value(flag, flags.next())?,
            "--seed" => cfg.seed = crate::flag_value(flag, flags.next())?,
            "--conns" => cfg.conns_per_guest = crate::flag_value(flag, flags.next())?,
            "--trace" => trace_path = Some(crate::flag_value(flag, flags.next())?),
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--shadow" => cfg.shadow_check = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    check(&cfg)?;

    let instr = Instrumentation {
        trace_capacity: trace_path.as_ref().map(|_| TRACE_CAPACITY),
        collect_metrics: metrics,
    };
    let artifacts = run_instrumented(cfg, instr);
    if json {
        println!("{}", artifacts.report.to_json());
    } else {
        println!("{}", artifacts.report);
    }
    if let (Some(path), Some(trace)) = (&trace_path, &artifacts.chrome_trace) {
        std::fs::write(path, trace).unwrap_or_else(|e| {
            eprintln!("cannot write trace to `{path}`: {e}");
            std::process::exit(1);
        });
        eprintln!("trace written to {path} (open at https://ui.perfetto.dev)");
    }
    Ok(())
}

/// Rejects a configuration the testbed cannot build, before it runs.
fn check(cfg: &TestbedConfig) -> Result<(), String> {
    // Each CDNA guest takes one hardware context per NIC; context 0 is
    // the hypervisor's.
    let max_guests = match cfg.io_model {
        IoModel::Cdna { .. } => CTX_COUNT - 1,
        IoModel::Native { .. } | IoModel::XenBridged { .. } => usize::from(u16::MAX),
    };
    if cfg.guests == 0 || usize::from(cfg.guests) > max_guests {
        Err(format!(
            "guest count must be 1..={max_guests} for {}, got {}",
            cfg.io_model.label(),
            cfg.guests
        ))
    } else if cfg.nics == 0 {
        Err("`--nics` must be at least 1".to_string())
    } else if cfg.conns_per_guest == 0 {
        Err("`--conns` must be at least 1".to_string())
    } else {
        Ok(())
    }
}
