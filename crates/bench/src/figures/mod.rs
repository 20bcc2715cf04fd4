//! The subcommands of the `figures` binary, one module each: a `run`
//! function and `FLAGS`, exactly the flags that `run` reads.

use crate::{Args, Output};

/// One subcommand: its name on the command line, the flags it reads
/// and the function that runs it.
#[derive(Debug)]
pub struct Command {
    /// The subcommand's name, which is also its module's.
    pub name: &'static str,
    /// Every flag the subcommand reads; [`Args`] rejects any other.
    pub flags: &'static [&'static str],
    /// Runs the subcommand on its parsed flags.
    pub run: fn(&Args) -> Output,
}

macro_rules! commands {
    ($($module:ident),* $(,)?) => {
        $(pub mod $module;)*

        /// Every subcommand, by name.
        pub const COMMANDS: &[Command] = &[$(Command {
            name: stringify!($module),
            flags: $module::FLAGS,
            run: $module::run,
        }),*];
    };
}

commands!(
    fig1_tman_failure,
    fig6_7_quality,
    fig8_9_snapshots,
    table2_reshaping,
    fig10a_scaling,
    fig10b_split,
    ablation,
    ext_routing_recovery,
    substrate_matrix,
    fig_loss_latency,
    fig_traffic,
    fig_traffic_scale,
    fig_tcp_loopback,
    diff,
);

/// Picks the subcommand `argv[0]` names and parses the rest against
/// its flags.
///
/// # Panics
///
/// With the list of subcommands when `argv` names none, and as
/// [`Args::parse`] on its flags.
pub fn parse(argv: &[String]) -> (&'static Command, Args) {
    let names = || {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        format!(
            "usage: figures <command> [--flag value]...\ncommands: {}",
            names.join(" ")
        )
    };
    let name = argv.first().unwrap_or_else(|| panic!("{}", names()));
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown command {name:?}\n{}", names()));
    (command, Args::parse(command.flags, &argv[1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect(name)
    }

    #[test]
    fn figures_reject_the_flags_they_do_not_read() {
        for (name, flag) in [
            // Table II and Fig. 10a sweep K themselves.
            ("table2_reshaping", "k"),
            ("fig10a_scaling", "k"),
            // The saturation ladder sets its own rates and runs once.
            ("fig_traffic_scale", "traffic-rate"),
            ("fig_traffic_scale", "runs"),
            // Only the loss sweep scripts a partition.
            ("ablation", "partition-rounds"),
            // The engine-internals figures run on the engine only.
            ("fig6_7_quality", "substrate"),
        ] {
            let value = if flag == "substrate" { "engine" } else { "3" };
            let err = Args::try_parse(command(name).flags, &[format!("--{flag}"), value.into()])
                .expect_err(name);
            assert!(
                err.starts_with(&format!("unknown flag --{flag}\naccepted flags")),
                "{name} --{flag}: {err}"
            );
        }
    }

    #[test]
    fn every_subcommand_has_a_unique_name_and_no_repeated_flag() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|other| other.name != c.name));
            let mut flags = c.flags.to_vec();
            flags.sort_unstable();
            flags.dedup();
            assert_eq!(flags.len(), c.flags.len(), "{} repeats a flag", c.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown command \"fig2\"")]
    fn unknown_subcommands_list_the_known_ones() {
        let _ = parse(&["fig2".into()]);
    }
}
