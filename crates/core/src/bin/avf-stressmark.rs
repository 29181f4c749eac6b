//! Command-line interface to the AVF stressmark methodology.
//!
//! ```text
//! avf-stressmark search   [--rates baseline|rhc|edr] [--machine baseline|config-a]
//!                         [--population N] [--generations N] [--eval N] [--final N] [--seed N]
//!                         [--threads N | --workers host:port,... | --broker host:port
//!                         [--tenant NAME]] [--auth-key-file F]
//! avf-stressmark suite    [--rates ...] [--machine ...] [--instructions N] [--tsv]
//! avf-stressmark fig      <3|4|5|6|7|8|9|table3> [--smoke]
//! avf-stressmark bounds   [--machine ...]
//! avf-stressmark validate [--machine ...] [--injections N] [--seed N]
//!                         [--instructions N] [--threads N] [--ci-target F]
//!                         [--batch N] [--checkpoint-interval N]
//!                         [--workers host:port,host:port,...]
//!                         [--prune off|on|audit]
//! avf-stressmark serve    --listen host:port [--threads N] [--auth-key-file F]
//!                         [--metrics host:port]
//! avf-stressmark broker   --listen host:port --workers host:port,...
//!                         [--store F] [--auth-key-file F] [--metrics host:port]
//! avf-stressmark submit   --broker host:port --tenant NAME [--program P] [--detach]
//! avf-stressmark attach   --broker host:port --tenant NAME --id N
//! ```
//!
//! Flags are strict: an unrecognized `--flag` is an error (with a
//! "did you mean" hint), never silently ignored.

use std::process::ExitCode;

use avf_ace::FaultRates;
use avf_broker::{Broker, BrokerClient, BrokerOptions, BrokeredBackend, CampaignSpec, SubmitError};
use avf_ga::GaParams;
use avf_inject::{CampaignBackend, CampaignConfig, FaultModel, LocalBackend, PruneMode};
use avf_isa::Program;
use avf_service::{serve, spawn_metrics, AuthKey, RemoteBackend, ServeOptions};
use avf_sim::MachineConfig;
use avf_stressmark::cli::{bool_flag, value_flag, Args, FlagSpec};
use avf_stressmark::{
    fig3, fig4, fig5, fig6, fig7, fig8, fig9, generate_stressmark, injection_vs_ace_on,
    instantaneous_qs_bound, instantaneous_qs_bound_general, raw_sum_core, run_suite, table3,
    ExperimentConfig, Fitness, KnobSettings, SearchBackend, SearchConfig,
};

const SEARCH_FLAGS: &[FlagSpec] = &[
    value_flag("rates"),
    value_flag("machine"),
    value_flag("population"),
    value_flag("generations"),
    value_flag("eval"),
    value_flag("final"),
    value_flag("seed"),
    value_flag("threads"),
    value_flag("workers"),
    value_flag("broker"),
    value_flag("tenant"),
    value_flag("auth-key-file"),
];

const SUITE_FLAGS: &[FlagSpec] = &[
    value_flag("rates"),
    value_flag("machine"),
    value_flag("instructions"),
    bool_flag("tsv"),
];

const FIG_FLAGS: &[FlagSpec] = &[bool_flag("smoke")];

const BOUNDS_FLAGS: &[FlagSpec] = &[value_flag("machine")];

const VALIDATE_FLAGS: &[FlagSpec] = &[
    value_flag("machine"),
    value_flag("injections"),
    value_flag("seed"),
    value_flag("instructions"),
    value_flag("threads"),
    value_flag("ci-target"),
    value_flag("batch"),
    value_flag("checkpoint-interval"),
    value_flag("workers"),
    value_flag("fault-model"),
    value_flag("prune"),
    value_flag("broker"),
    value_flag("tenant"),
    value_flag("auth-key-file"),
];

const SERVE_FLAGS: &[FlagSpec] = &[
    value_flag("listen"),
    value_flag("threads"),
    value_flag("die-mid-batch"),
    value_flag("auth-key-file"),
    value_flag("metrics"),
];

const BROKER_FLAGS: &[FlagSpec] = &[
    value_flag("listen"),
    value_flag("workers"),
    value_flag("store"),
    value_flag("auth-key-file"),
    value_flag("metrics"),
    value_flag("max-running"),
    value_flag("per-tenant-pending"),
    value_flag("max-pending"),
    value_flag("quantum"),
];

const SUBMIT_FLAGS: &[FlagSpec] = &[
    value_flag("broker"),
    value_flag("tenant"),
    value_flag("auth-key-file"),
    value_flag("program"),
    value_flag("machine"),
    value_flag("injections"),
    value_flag("seed"),
    value_flag("instructions"),
    value_flag("ci-target"),
    value_flag("batch"),
    value_flag("checkpoint-interval"),
    value_flag("fault-model"),
    value_flag("prune"),
    bool_flag("detach"),
];

const ATTACH_FLAGS: &[FlagSpec] = &[
    value_flag("broker"),
    value_flag("tenant"),
    value_flag("auth-key-file"),
    value_flag("id"),
];

fn rates_of(args: &Args) -> Result<FaultRates, String> {
    match args.flag("rates").unwrap_or("baseline") {
        "baseline" => Ok(FaultRates::baseline()),
        "rhc" => Ok(FaultRates::rhc()),
        "edr" => Ok(FaultRates::edr()),
        other => Err(format!(
            "unknown fault-rate table `{other}` (baseline|rhc|edr)"
        )),
    }
}

fn machine_of(args: &Args) -> Result<MachineConfig, String> {
    match args.flag("machine").unwrap_or("baseline") {
        "baseline" => Ok(MachineConfig::baseline()),
        "config-a" => Ok(MachineConfig::config_a()),
        other => Err(format!("unknown machine `{other}` (baseline|config-a)")),
    }
}

/// Loads the shared frame-authentication key named by
/// `--auth-key-file`, if the flag is present.
fn auth_key_of(args: &Args) -> Result<Option<AuthKey>, String> {
    match args.flag("auth-key-file") {
        None => Ok(None),
        Some(path) => AuthKey::load(std::path::Path::new(path)).map(Some),
    }
}

/// The tenant name for broker-facing commands: `--tenant`, falling
/// back to the login user so ad-hoc runs still get a stable lane.
fn tenant_of(args: &Args) -> String {
    args.flag("tenant")
        .map(str::to_owned)
        .unwrap_or_else(|| std::env::var("USER").unwrap_or_else(|_| "default".to_owned()))
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let rates = rates_of(args)?;
    let machine = machine_of(args)?;
    let mut config = SearchConfig::quick(machine, Fitness::overall(rates.clone()));
    config.ga = GaParams {
        population: args.parse_u64("population", 16).map_err(|e| e.0)? as usize,
        generations: args.parse_u64("generations", 24).map_err(|e| e.0)? as usize,
        seed: args
            .parse_u64("seed", GaParams::quick().seed)
            .map_err(|e| e.0)?,
        ..GaParams::quick()
    };
    config.eval_instructions = args.parse_u64("eval", 120_000).map_err(|e| e.0)?;
    config.final_instructions = args.parse_u64("final", 2_000_000).map_err(|e| e.0)?;

    let auth = auth_key_of(args)?;
    config.backend = if let Some(broker) = args.flag("broker") {
        if args.has("workers") {
            return Err(
                "--broker and --workers are mutually exclusive; the broker owns the \
                 worker fleet, pass --workers to the `broker` process instead"
                    .to_owned(),
            );
        }
        if args.has("threads") {
            return Err(
                "--threads selects local worker threads and has no effect with \
                 --broker; set --threads on each `serve` process instead"
                    .to_owned(),
            );
        }
        let tenant = tenant_of(args);
        eprintln!("evaluating generations through broker {broker} as tenant `{tenant}`...");
        SearchBackend::Broker {
            addr: broker.to_owned(),
            tenant,
            auth,
        }
    } else if let Some(list) = args.flag("workers") {
        if args.has("threads") {
            // Accepting the flag but letting it do nothing would be
            // the exact silent-no-effect failure the strict parser
            // exists to prevent.
            return Err(
                "--threads selects local worker threads and has no effect with \
                 --workers; set --threads on each `serve` process instead"
                    .to_owned(),
            );
        }
        let addrs: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_owned)
            .collect();
        if addrs.is_empty() {
            return Err("--workers expects a comma-separated list of host:port".to_owned());
        }
        eprintln!(
            "evaluating generations on {} remote worker(s)...",
            addrs.len()
        );
        SearchBackend::Workers { addrs, auth }
    } else {
        if auth.is_some() {
            return Err(
                "--auth-key-file authenticates worker/broker connections and has no \
                 effect on a local search; pass --workers or --broker"
                    .to_owned(),
            );
        }
        SearchBackend::Local {
            threads: args.parse_u64("threads", 0).map_err(|e| e.0)? as usize,
        }
    };

    eprintln!(
        "searching ({} rates, {} x {} GA)...",
        rates.name(),
        config.ga.population,
        config.ga.generations
    );
    let outcome =
        generate_stressmark(&config).map_err(|e| format!("search backend failed: {e}"))?;
    println!("knob settings:");
    print!("{}", KnobSettings::of(&outcome));
    let ser = outcome.result.report.ser(&rates);
    print!("{ser}");
    println!(
        "dead fraction: {:.4}",
        outcome.result.report.deadness().dead_fraction()
    );
    for g in &outcome.ga.history {
        println!(
            "gen\t{}\t{:.5}\t{:.5}{}",
            g.generation,
            g.mean,
            g.best,
            if g.cataclysm { "\tcataclysm" } else { "" }
        );
    }
    Ok(())
}

fn cmd_suite(args: &Args) -> Result<(), String> {
    let rates = rates_of(args)?;
    let machine = machine_of(args)?;
    let instructions = args.parse_u64("instructions", 2_000_000).map_err(|e| e.0)?;
    let runs = run_suite(&machine, &avf_workloads::all(), instructions, 0);
    if args.has("tsv") {
        println!("name\tqs\tqs_rf\tdl1_dtlb\tl2\tipc");
        for (w, r) in &runs {
            let ser = r.report.ser(&rates);
            println!(
                "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.3}",
                w.name(),
                ser.qs(),
                ser.qs_rf(),
                ser.dl1_dtlb(),
                ser.l2(),
                r.stats.ipc()
            );
        }
    } else {
        println!(
            "{:<18} {:>8} {:>8} {:>10} {:>8} {:>6}",
            "program", "QS", "QS+RF", "DL1+DTLB", "L2", "IPC"
        );
        for (w, r) in &runs {
            let ser = r.report.ser(&rates);
            println!(
                "{:<18} {:>8.3} {:>8.3} {:>10.3} {:>8.3} {:>6.2}",
                w.name(),
                ser.qs(),
                ser.qs_rf(),
                ser.dl1_dtlb(),
                ser.l2(),
                r.stats.ipc()
            );
        }
    }
    Ok(())
}

fn cmd_fig(args: &Args) -> Result<(), String> {
    let which = args
        .positional()
        .first()
        .ok_or("fig requires an argument: 3|4|5|6|7|8|9|table3")?;
    let cfg = if args.has("smoke") {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::standard()
    };
    match which.as_str() {
        "3" => println!("{}", fig3(&cfg)),
        "4" => println!("{}", fig4(&cfg)),
        "5" => println!("{}", fig5(&cfg)),
        "6" => {
            for t in fig6(&cfg) {
                println!("{t}");
            }
        }
        "7" => {
            for t in fig7(&cfg) {
                println!("{t}");
            }
        }
        "8" => println!("{}", fig8(&cfg)),
        "9" => println!("{}", fig9(&cfg)),
        "table3" => println!("{}", table3(&cfg)),
        other => return Err(format!("unknown figure `{other}`")),
    }
    Ok(())
}

fn cmd_bounds(args: &Args) -> Result<(), String> {
    let machine = machine_of(args)?;
    let sizes = machine.structure_sizes();
    println!(
        "closed-form core bounds for `{}` (units/bit):",
        machine.name
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "rates", "raw sum", "inst (QS)", "inst gen."
    );
    for rates in [FaultRates::baseline(), FaultRates::rhc(), FaultRates::edr()] {
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.3}",
            rates.name(),
            raw_sum_core(&sizes, &rates),
            instantaneous_qs_bound(&sizes, &rates),
            instantaneous_qs_bound_general(&sizes, &rates),
        );
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let machine = machine_of(args)?;
    let fault_model = {
        let spelled = args.flag("fault-model").unwrap_or("replay");
        FaultModel::parse(spelled)
            .ok_or_else(|| format!("unknown fault model `{spelled}` (trap|replay)"))?
    };
    let prune = {
        let spelled = args.flag("prune").unwrap_or("off");
        PruneMode::parse(spelled)
            .ok_or_else(|| format!("unknown prune mode `{spelled}` (off|on|audit)"))?
    };
    let config = CampaignConfig {
        injections: args.parse_u64("injections", 1000).map_err(|e| e.0)?,
        seed: args.parse_u64("seed", 42).map_err(|e| e.0)?,
        threads: args.parse_u64("threads", 0).map_err(|e| e.0)? as usize,
        instr_budget: args.parse_u64("instructions", 30_000).map_err(|e| e.0)?,
        ci_target: args.parse_f64_opt("ci-target").map_err(|e| e.0)?,
        batch_size: args.parse_u64("batch", 128).map_err(|e| e.0)?.max(1),
        checkpoint_interval: args.parse_u64("checkpoint-interval", 0).map_err(|e| e.0)?,
        fault_model,
        prune,
        ..CampaignConfig::default()
    };
    match config.ci_target {
        Some(target) => eprintln!(
            "cross-validating ACE AVF by adaptive statistical fault injection \
             (CI target ±{target}, cap {} injections/program, {} fault model, seed {})...",
            config.injections, config.fault_model, config.seed
        ),
        None => eprintln!(
            "cross-validating ACE AVF by statistical fault injection \
             ({} injections/program, {} fault model, seed {})...",
            config.injections, config.fault_model, config.seed
        ),
    }
    let auth = auth_key_of(args)?;
    let validation = if let Some(broker) = args.flag("broker") {
        if args.has("workers") {
            return Err(
                "--broker and --workers are mutually exclusive; the broker owns the \
                 worker fleet, pass --workers to the `broker` process instead"
                    .to_owned(),
            );
        }
        if args.has("threads") {
            return Err(
                "--threads selects local worker threads and has no effect with \
                 --broker; set --threads on each `serve` process instead"
                    .to_owned(),
            );
        }
        let tenant = tenant_of(args);
        eprintln!("dispatching campaigns through broker {broker} as tenant `{tenant}`...");
        let backend = BrokeredBackend::connect(broker, &tenant, auth)
            .map_err(|e| format!("cannot reach broker `{broker}`: {e}"))?;
        injection_vs_ace_on(&machine, &config, &backend)
    } else {
        match args.flag("workers") {
            None => injection_vs_ace_on(&machine, &config, &LocalBackend::new(config.threads)),
            Some(list) => {
                if args.has("threads") {
                    // Accepting the flag but letting it do nothing would be
                    // the exact silent-no-effect failure the strict parser
                    // exists to prevent.
                    return Err(
                        "--threads selects local worker threads and has no effect with \
                     --workers; set --threads on each `serve` process instead"
                            .to_owned(),
                    );
                }
                let addrs: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_owned)
                    .collect();
                if addrs.is_empty() {
                    return Err("--workers expects a comma-separated list of host:port".to_owned());
                }
                eprintln!(
                    "dispatching campaigns to {} remote worker(s)...",
                    addrs.len()
                );
                let backend = match auth {
                    Some(key) => RemoteBackend::with_auth(addrs, key),
                    None => RemoteBackend::new(addrs),
                };
                injection_vs_ace_on(&machine, &config, &backend)
            }
        }
    }
    .map_err(|e| format!("campaign backend failed: {e}"))?;
    print!("{validation}");
    if validation.all_consistent() {
        Ok(())
    } else {
        Err("injection measured more vulnerability than the ACE analysis claims".to_owned())
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let listen = args
        .flag("listen")
        .ok_or("serve requires --listen host:port")?;
    let threads = args.parse_u64("threads", 0).map_err(|e| e.0)? as usize;
    let die_mid_batch = match args.flag("die-mid-batch") {
        None => None,
        Some(_) => Some(args.parse_u64("die-mid-batch", 0).map_err(|e| e.0)?),
    };
    if let Some(n) = die_mid_batch {
        eprintln!(
            "serve: FAULT INJECTION ARMED — every connection aborts midway through \
             its batch {n} (resilience testing only)"
        );
    }
    let auth = auth_key_of(args)?;
    if auth.is_some() {
        eprintln!("serve: frame authentication required on every connection");
    }
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot listen on `{listen}`: {e}"))?;
    eprintln!(
        "campaign service listening on {} ({} worker thread(s) per session)",
        listener
            .local_addr()
            .map_or_else(|_| listen.to_owned(), |a| a.to_string()),
        LocalBackend::new(threads).workers()
    );
    let opts = ServeOptions {
        threads,
        die_mid_batch,
        auth,
        ..ServeOptions::default()
    };
    if let Some(metrics) = args.flag("metrics") {
        let stats = opts.stats.clone();
        let (cache, eval_cache) = (opts.cache.clone(), opts.eval_cache.clone());
        let bound = spawn_metrics(metrics, move || stats.render(&cache, &eval_cache))
            .map_err(|e| format!("cannot serve metrics on `{metrics}`: {e}"))?;
        eprintln!("metrics endpoint on http://{bound}/metrics");
    }
    serve(listener, &opts).map_err(|e| format!("accept loop failed: {e}"))
}

fn cmd_broker(args: &Args) -> Result<(), String> {
    let listen = args
        .flag("listen")
        .ok_or("broker requires --listen host:port")?;
    let workers: Vec<String> = args
        .flag("workers")
        .ok_or("broker requires --workers host:port,host:port,...")?
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(str::to_owned)
        .collect();
    if workers.is_empty() {
        return Err("--workers expects a comma-separated list of host:port".to_owned());
    }
    let defaults = BrokerOptions::default();
    let opts = BrokerOptions {
        workers,
        auth: auth_key_of(args)?,
        max_running: args
            .parse_u64("max-running", defaults.max_running as u64)
            .map_err(|e| e.0)? as usize,
        per_tenant_pending: args
            .parse_u64("per-tenant-pending", defaults.per_tenant_pending as u64)
            .map_err(|e| e.0)? as usize,
        max_pending: args
            .parse_u64("max-pending", defaults.max_pending as u64)
            .map_err(|e| e.0)? as usize,
        quantum: args
            .parse_u64("quantum", defaults.quantum)
            .map_err(|e| e.0)?,
        store_path: args
            .flag("store")
            .map_or(defaults.store_path, std::path::PathBuf::from),
    };
    if opts.auth.is_some() {
        eprintln!("broker: frame authentication required on every driver connection");
    }
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot listen on `{listen}`: {e}"))?;
    eprintln!(
        "campaign broker listening on {} fronting {} worker(s), log at {}",
        listener
            .local_addr()
            .map_or_else(|_| listen.to_owned(), |a| a.to_string()),
        opts.workers.len(),
        opts.store_path.display()
    );
    let broker = Broker::start(opts).map_err(|e| format!("cannot start broker: {e}"))?;
    if let Some(metrics) = args.flag("metrics") {
        let bound = spawn_metrics(metrics, broker.metrics_renderer())
            .map_err(|e| format!("cannot serve metrics on `{metrics}`: {e}"))?;
        eprintln!("metrics endpoint on http://{bound}/metrics");
    }
    broker
        .listen(listener)
        .map_err(|e| format!("accept loop failed: {e}"))
}

/// Builds the spec a `submit` run ships to the broker: the shared
/// campaign knobs plus a program picked by name.
fn spec_of(args: &Args) -> Result<CampaignSpec, String> {
    let machine = machine_of(args)?;
    let fault_model = {
        let spelled = args.flag("fault-model").unwrap_or("replay");
        FaultModel::parse(spelled)
            .ok_or_else(|| format!("unknown fault model `{spelled}` (trap|replay)"))?
    };
    let prune = {
        let spelled = args.flag("prune").unwrap_or("off");
        PruneMode::parse(spelled)
            .ok_or_else(|| format!("unknown prune mode `{spelled}` (off|on|audit)"))?
    };
    let program: Program = match args.flag("program").unwrap_or("stressmark") {
        "stressmark" => {
            avf_codegen::generate(
                &avf_codegen::Knobs::paper_baseline(),
                &avf_stressmark::target_params(&machine),
            )
            .program
        }
        name => avf_workloads::by_name(name)
            .ok_or_else(|| format!("unknown program `{name}` (stressmark or a suite workload)"))?
            .build(),
    };
    let config = CampaignConfig {
        injections: args.parse_u64("injections", 1000).map_err(|e| e.0)?,
        seed: args.parse_u64("seed", 42).map_err(|e| e.0)?,
        instr_budget: args.parse_u64("instructions", 30_000).map_err(|e| e.0)?,
        ci_target: args.parse_f64_opt("ci-target").map_err(|e| e.0)?,
        batch_size: args.parse_u64("batch", 128).map_err(|e| e.0)?.max(1),
        checkpoint_interval: args.parse_u64("checkpoint-interval", 0).map_err(|e| e.0)?,
        fault_model,
        prune,
        ..CampaignConfig::default()
    };
    Ok(CampaignSpec::from_config(machine, program, &config))
}

fn wait_and_print(client: &mut BrokerClient, id: u64) -> Result<(), String> {
    let report = client
        .wait_with(id, |phase, trials_done| {
            eprintln!("campaign {id}: {phase}, {trials_done} trial(s) dispatched");
        })
        .map_err(|e| match e {
            SubmitError::Rejected { reason, detail } => {
                format!("campaign {id} rejected ({reason}): {detail}")
            }
            SubmitError::Backend(e) => format!("campaign {id} failed: {e}"),
        })?;
    print!("{report}");
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let broker = args
        .flag("broker")
        .ok_or("submit requires --broker host:port")?;
    let spec = spec_of(args)?;
    let tenant = tenant_of(args);
    let mut client = BrokerClient::connect(broker, &tenant, auth_key_of(args)?)
        .map_err(|e| format!("cannot reach broker `{broker}`: {e}"))?;
    let id = client.submit(&spec).map_err(|e| match e {
        SubmitError::Rejected { reason, detail } => format!("rejected ({reason}): {detail}"),
        SubmitError::Backend(e) => format!("submit failed: {e}"),
    })?;
    if args.has("detach") {
        // The id is the durable handle: print it alone on stdout so
        // scripts can capture it and `attach` later.
        println!("{id}");
        return Ok(());
    }
    eprintln!("campaign {id} accepted (tenant `{tenant}`); waiting...");
    wait_and_print(&mut client, id)
}

fn cmd_attach(args: &Args) -> Result<(), String> {
    let broker = args
        .flag("broker")
        .ok_or("attach requires --broker host:port")?;
    let id = args.parse_u64("id", u64::MAX).map_err(|e| e.0)?;
    if id == u64::MAX {
        return Err("attach requires --id N (as printed by `submit --detach`)".to_owned());
    }
    let tenant = tenant_of(args);
    let mut client = BrokerClient::connect(broker, &tenant, auth_key_of(args)?)
        .map_err(|e| format!("cannot reach broker `{broker}`: {e}"))?;
    client
        .attach(id)
        .map_err(|e| format!("attach failed: {e}"))?;
    wait_and_print(&mut client, id)
}

const USAGE: &str = "\
usage: avf-stressmark <command> [options]

commands:
  search    generate a stressmark via the GA (options: --rates, --machine,
            --population, --generations, --eval, --final, --seed;
            evaluation backends: --threads N scores generations on a
            local thread pool [default, 0 = all cores], --workers
            host:port,... fans each generation out to `serve` processes
            — workers code-generate and simulate candidates from their
            genomes, memoize scores in a genome-keyed cache, and a
            worker's unacknowledged individuals re-dispatch to
            survivors if it dies mid-generation; --broker host:port
            [--tenant NAME] routes generations through the campaign
            broker under fair scheduling; --auth-key-file F
            authenticates worker/broker frames; results are
            bit-identical across all backends at a fixed --seed)
  suite     run the 33-program proxy suite (options: --rates, --machine,
            --instructions, --tsv)
  fig       regenerate a paper figure: fig <3|4|5|6|7|8|9|table3> [--smoke]
  bounds    print the closed-form worst-case bounds
  validate  cross-validate ACE AVF with parallel statistical fault
            injection on the stressmark + 3 workload profiles (options:
            --machine, --injections, --seed, --instructions, --threads;
            adaptive sequential sampling: --ci-target <half-width in
            (0, 0.5)> stops each campaign once every structure's 95% CI
            is that tight, --injections then caps the trials, --batch
            sets the per-batch size, --checkpoint-interval the
            golden-run checkpoint spacing in cycles; distributed
            execution: --workers host:port,... fans trial batches out
            to `serve` processes instead of local threads, re-dispatching
            a worker's trials to survivors if its connection dies
            mid-batch; each worker runs the golden pass itself, in
            parallel, and the driver cross-checks their digests;
            --fault-model replay|trap picks how ROB/IQ/LQ/SQ
            control/tag flips resolve — the micro-op
            replay oracle [default: corrupted entries re-decode and
            re-execute, outcomes classified architecturally] or the
            coarse control-corruption-is-DUE trap model; --prune
            off|on|audit gates the pre-campaign masked-site classifier —
            `on` skips provably-masked (structure, bit, cycle) strata
            and credits them as exact zeros in a stratified estimator,
            `audit` additionally injects into a deterministic sample of
            pruned sites and hard-fails on any non-masked outcome)
  serve     run a long-lived campaign worker: accepts (program, machine,
            budget, checkpoint interval) jobs over TCP, runs each job's
            golden pass itself unless its bounded LRU cache already
            holds it, and streams per-trial outcomes back (options:
            --listen host:port, --threads; --auth-key-file F requires a
            valid frame tag on every connection; --metrics host:port
            serves plaintext session/cache counters over HTTP;
            --die-mid-batch N aborts each connection midway through
            batch N — resilience testing only)
  broker    run the multi-tenant campaign broker fronting a `serve`
            fleet: admits specs under per-tenant quotas, schedules them
            deficit-round-robin, journals every acceptance and outcome
            to an append-only log so campaigns survive driver and
            broker restarts, and relays interactive `validate --broker`
            sessions (options: --listen host:port, --workers
            host:port,..., --store F, --auth-key-file F, --metrics
            host:port, --max-running, --per-tenant-pending,
            --max-pending, --quantum)
  submit    queue one campaign on a broker and wait for its report
            (options: --broker host:port, --tenant NAME,
            --auth-key-file F, --program stressmark|<suite workload>,
            plus the validate campaign knobs: --machine, --injections,
            --seed, --instructions, --ci-target, --batch,
            --checkpoint-interval, --fault-model, --prune; --detach
            prints the campaign id and exits immediately)
  attach    re-attach to a queued, running, or finished campaign by id
            and print its report (options: --broker host:port,
            --tenant NAME, --auth-key-file F, --id N)

validate also accepts --broker host:port [--tenant NAME] to route its
campaigns through a broker instead of --workers or local threads.

flags are strict: unknown --flags are errors, not ignored.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let spec: &[FlagSpec] = match command {
        "search" => SEARCH_FLAGS,
        "suite" => SUITE_FLAGS,
        "fig" => FIG_FLAGS,
        "bounds" => BOUNDS_FLAGS,
        "validate" => VALIDATE_FLAGS,
        "serve" => SERVE_FLAGS,
        "broker" => BROKER_FLAGS,
        "submit" => SUBMIT_FLAGS,
        "attach" => ATTACH_FLAGS,
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match Args::parse(&argv[1..], spec) {
        Err(e) => Err(e.to_string()),
        Ok(args) => match command {
            "search" => cmd_search(&args),
            "suite" => cmd_suite(&args),
            "fig" => cmd_fig(&args),
            "bounds" => cmd_bounds(&args),
            "validate" => cmd_validate(&args),
            "serve" => cmd_serve(&args),
            "broker" => cmd_broker(&args),
            "submit" => cmd_submit(&args),
            "attach" => cmd_attach(&args),
            _ => unreachable!("command validated above"),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn worker_typo_suggests_workers() {
        // The motivating regression: `search --worker host:1234` must
        // not silently fall back to a local search.
        let err = Args::parse(&argv(&["--worker", "host:1234"]), SEARCH_FLAGS).unwrap_err();
        assert!(err.0.contains("unknown flag `--worker`"), "{err}");
        assert!(err.0.contains("did you mean `--workers`"), "{err}");
    }

    #[test]
    fn workers_and_threads_conflict_is_a_hard_error() {
        let args = Args::parse(
            &argv(&["--workers", "host:1234", "--threads", "4"]),
            SEARCH_FLAGS,
        )
        .unwrap();
        let err = cmd_search(&args).unwrap_err();
        assert!(
            err.contains("--threads selects local worker threads"),
            "{err}"
        );
    }

    #[test]
    fn broker_and_workers_conflict_is_a_hard_error() {
        let args = Args::parse(
            &argv(&["--broker", "host:1", "--workers", "host:2"]),
            SEARCH_FLAGS,
        )
        .unwrap();
        let err = cmd_search(&args).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }
}
