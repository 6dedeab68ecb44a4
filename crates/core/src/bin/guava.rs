//! `guava` — command-line inspection of GUAVA/MultiClass artifacts, plus
//! the `serve` loop driving a live warehouse [`Engine`].
//!
//! The analysts the paper targets work with *artifacts* — g-trees,
//! classifiers, study schemas, studies — not with code. The artifact
//! commands render those from a saved [`ArtifactBundle`] JSON file;
//! `serve` runs the warehouse-as-a-service engine (DESIGN.md §16) over a
//! line protocol on stdin/stdout.
//!
//! The CLI is a structured subcommand table: `guava help` lists every
//! command, `guava help <command>` (or a wrong arity) prints that
//! command's usage. Exit codes are distinct: `0` success, `1` runtime
//! error (bad bundle, unknown node, engine error), `2` usage error
//! (unknown command, wrong arguments).

use guava::artifacts::ArtifactBundle;
use guava::clinical::prelude::*;
use guava::clinical::{classifiers, contributors};
use guava::prelude::Target;
use guava::relational::algebra::{AggFunc, Aggregate, JoinKind, Plan};
use guava::relational::delta::Change;
use guava::relational::explain::explain_plan;
use guava::relational::expr::Expr;
use guava::relational::prelude::{DataType, Table, Value};
use guava::warehouse::service::{Engine, EngineConfig, Session, Subscription};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// One subcommand: name, argument signature, one-line description, the
/// arity window, and the handler. The table *is* the CLI surface —
/// `help`, usage errors, and dispatch all render from it.
struct Command {
    name: &'static str,
    args: &'static str,
    about: &'static str,
    min_args: usize,
    max_args: usize,
    run: fn(&[String]) -> CmdResult,
}

impl Command {
    fn usage(&self) -> String {
        format!("usage: guava {} {}", self.name, self.args)
            .trim_end()
            .to_owned()
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "demo",
        args: "[bundle.json]",
        about: "write a demo bundle (CORI simulation)",
        min_args: 0,
        max_args: 1,
        run: |a| cmd_demo(a.first().map(String::as_str).unwrap_or("guava_bundle.json")),
    },
    Command {
        name: "summary",
        args: "<bundle.json>",
        about: "inventory of the bundle",
        min_args: 1,
        max_args: 1,
        run: |a| with_bundle(a, |b, _| cmd_summary(b)),
    },
    Command {
        name: "gtree",
        args: "<bundle.json> <contributor>",
        about: "render a contributor's g-tree",
        min_args: 2,
        max_args: 2,
        run: |a| with_bundle(a, |b, rest| cmd_gtree(b, &rest[0])),
    },
    Command {
        name: "node",
        args: "<bundle.json> <node>",
        about: "Figure-3 context detail for one node",
        min_args: 2,
        max_args: 2,
        run: |a| with_bundle(a, |b, rest| cmd_node(b, &rest[0])),
    },
    Command {
        name: "classifiers",
        args: "<bundle.json> [contributor]",
        about: "list classifiers, optionally for one contributor",
        min_args: 1,
        max_args: 2,
        run: |a| {
            with_bundle(a, |b, rest| {
                cmd_classifiers(b, rest.first().map(String::as_str))
            })
        },
    },
    Command {
        name: "studies",
        args: "<bundle.json>",
        about: "archived studies and their decisions",
        min_args: 1,
        max_args: 1,
        run: |a| with_bundle(a, |b, _| cmd_studies(b)),
    },
    Command {
        name: "xml",
        args: "<bundle.json> <contributor>",
        about: "g-tree as XML (paper storage format)",
        min_args: 2,
        max_args: 2,
        run: |a| with_bundle(a, |b, rest| cmd_xml(b, &rest[0])),
    },
    Command {
        name: "explain",
        args: "<query> [--analyze]",
        about: "operator tree of a serve query (--analyze: actual rows, scan layouts)",
        min_args: 1,
        max_args: 2,
        run: |a| cmd_explain(&a[0], a.get(1).map(String::as_str)),
    },
    Command {
        name: "serve",
        args: "[rows]",
        about: "run the warehouse service over a line protocol on stdin",
        min_args: 0,
        max_args: 1,
        run: |a| cmd_serve(a.first().map(String::as_str)),
    },
    Command {
        name: "help",
        args: "[command]",
        about: "list commands, or show one command's usage",
        min_args: 0,
        max_args: 1,
        run: |a| cmd_help(a.first().map(String::as_str)),
    },
];

fn find_command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn print_command_list(out: &mut dyn Write) {
    let _ = writeln!(out, "usage: guava <command> [args]\n\ncommands:");
    for c in COMMANDS {
        let sig = format!("{} {}", c.name, c.args);
        let _ = writeln!(out, "  {:<36} {}", sig.trim_end(), c.about);
    }
    let _ = writeln!(out, "\nexit codes: 0 ok, 1 runtime error, 2 usage error");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.first().map(String::as_str) {
        None | Some("-h") | Some("--help") => {
            print_command_list(&mut std::io::stderr());
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(name) => name,
    };
    let Some(cmd) = find_command(name) else {
        eprintln!("guava: unknown command `{name}`\n");
        print_command_list(&mut std::io::stderr());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    if rest.len() < cmd.min_args || rest.len() > cmd.max_args {
        eprintln!("{}", cmd.usage());
        return ExitCode::from(2);
    }
    match (cmd.run)(rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_help(name: Option<&str>) -> CmdResult {
    match name {
        None => print_command_list(&mut std::io::stdout()),
        Some(n) => match find_command(n) {
            Some(c) => println!("{}\n  {}", c.usage(), c.about),
            None => return Err(format!("unknown command `{n}`").into()),
        },
    }
    Ok(())
}

fn with_bundle(
    args: &[String],
    f: impl FnOnce(&ArtifactBundle, &[String]) -> CmdResult,
) -> CmdResult {
    let bundle = ArtifactBundle::load(&args[0])?;
    f(&bundle, &args[1..])
}

/// Build the CORI-simulation bundle and write it — the quickest way to get
/// an artifact file to explore.
fn cmd_demo(path: &str) -> CmdResult {
    let profiles = generate(&GeneratorConfig::default().with_size(50));
    let contributors = contributors::build_all(&profiles)?;
    let studies = vec![
        study1_definition(&contributors),
        study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear),
        study2_definition(&contributors, ExSmokerMeaning::EverQuit),
    ];
    let bundle = ArtifactBundle::new(
        study_schema(),
        classifiers::cori()
            .into_iter()
            .chain(classifiers::endopro())
            .chain(classifiers::gastrolink())
            .collect(),
        studies,
        contributors::bindings(&contributors),
    );
    bundle.save(path)?;
    println!("wrote {path}");
    println!("try: guava summary {path}");
    Ok(())
}

fn cmd_summary(b: &ArtifactBundle) -> CmdResult {
    println!(
        "bundle v{} — study schema `{}`",
        b.version, b.study_schema.name
    );
    println!("\ncontributors:");
    for binding in &b.bindings {
        println!(
            "  {:<12} v{:<6} {} forms, {} attribute nodes, patterns: {}",
            binding.name(),
            binding.tree.version,
            binding.tree.forms().len(),
            binding.tree.attributes().len(),
            binding
                .stack
                .patterns
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(" + "),
        );
    }
    println!("\nstudy schema entities:");
    for e in b.study_schema.entities() {
        println!("  {} ({} attributes)", e.name, e.attributes.len());
    }
    println!("\nclassifiers: {} total", b.classifiers.len());
    println!("studies: {} archived", b.studies.len());
    Ok(())
}

fn find_binding<'a>(
    b: &'a ArtifactBundle,
    contributor: &str,
) -> Result<&'a guava::etl::compile::ContributorBinding, String> {
    b.bindings
        .iter()
        .find(|bd| bd.name() == contributor)
        .ok_or_else(|| {
            format!(
                "no contributor `{contributor}` (have: {})",
                b.bindings
                    .iter()
                    .map(|bd| bd.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn cmd_gtree(b: &ArtifactBundle, contributor: &str) -> CmdResult {
    let binding = find_binding(b, contributor)?;
    print!("{}", binding.tree.render());
    Ok(())
}

fn cmd_node(b: &ArtifactBundle, node: &str) -> CmdResult {
    for binding in &b.bindings {
        if let Ok(n) = binding.tree.node(node) {
            println!("(contributor `{}`)", binding.name());
            print!("{}", n.describe());
            return Ok(());
        }
    }
    Err(format!("no node `{node}` in any contributor's g-tree").into())
}

fn cmd_classifiers(b: &ArtifactBundle, contributor: Option<&str>) -> CmdResult {
    for c in &b.classifiers {
        if let Some(only) = contributor {
            if c.contributor != only {
                continue;
            }
        }
        let kind = match &c.target {
            Target::Domain { .. } => "domain",
            Target::Entity { .. } => "entity",
            Target::Cleaner { .. } => "cleaner",
        };
        println!(
            "{:<34} [{:<10}] {:<7} -> {}",
            c.name, c.contributor, kind, c.target
        );
        if !c.note.is_empty() {
            println!("    \"{}\"", c.note);
        }
        for r in &c.rules {
            println!("    {} <- {}", r.output, r.guard);
        }
    }
    Ok(())
}

fn cmd_studies(b: &ArtifactBundle) -> CmdResult {
    for s in &b.studies {
        println!(
            "study `{}` over `{}` (primary: {})",
            s.name, s.study_schema, s.primary_entity
        );
        println!("  question: {}", s.question);
        for col in &s.columns {
            println!("  column: {col}");
        }
        for sel in &s.selections {
            println!(
                "  {}: entities {:?}, domains {:?}{}",
                sel.contributor,
                sel.entity_classifiers,
                sel.domain_classifiers,
                if sel.cleaning_classifiers.is_empty() {
                    String::new()
                } else {
                    format!(", cleaning {:?}", sel.cleaning_classifiers)
                }
            );
        }
        if let Some(f) = &s.filter {
            println!("  filter: {f}");
        }
        println!();
    }
    Ok(())
}

fn cmd_xml(b: &ArtifactBundle, contributor: &str) -> CmdResult {
    let binding = find_binding(b, contributor)?;
    print!("{}", binding.tree.to_xml());
    Ok(())
}

// ---------------------------------------------------------------------------
// `guava serve` — the warehouse service over a line protocol.
// ---------------------------------------------------------------------------

/// Build the serve fixture: a toy clinic contributor (one `Procedure`
/// form with a packs-per-day numeric and a surgery checkbox), `rows`
/// seeded procedure rows, and the Smoking classifiers — the same shape
/// the warehouse test suites exercise, small enough to drive by hand.
fn serve_engine(rows: usize) -> Result<Engine, Box<dyn std::error::Error>> {
    use guava::forms::control::Control;
    use guava::forms::form::{FormDef, ReportingTool};
    use guava::gtree::tree::GTree;
    use guava::multiclass::prelude::{
        AttributeDef, Classifier, Domain, DomainSpec, EntityDef, StudySchema,
    };

    let tool = ReportingTool::new(
        "clinic",
        "1.0",
        vec![FormDef::new(
            "Procedure",
            "Procedure",
            vec![
                Control::numeric("PacksPerDay", "Packs per day", DataType::Int),
                Control::check_box("SurgeryPerformed", "Surgery?"),
            ],
        )],
    );
    let tree = GTree::derive(&tool)?;
    let schema = StudySchema::new(
        "serve",
        EntityDef::new("Procedure").with_attribute(AttributeDef::new(
            "Smoking",
            vec![
                Domain::categorical("class", "classes", &["None", "Light", "Heavy"]),
                Domain::new(
                    "packs",
                    "packs/day",
                    DomainSpec::Integer {
                        min: Some(0),
                        max: None,
                    },
                ),
            ],
        )),
    );
    let bind = |name: &str, target: Target, rules: &[&str]| {
        Classifier::parse_rules(name, "clinic", "", target, rules)?.bind(&tree, &schema)
    };
    let entity = bind(
        "All",
        Target::Entity {
            entity: "Procedure".into(),
        },
        &["Procedure <- Procedure"],
    )?;
    let dom = |d: &str| Target::Domain {
        entity: "Procedure".into(),
        attribute: "Smoking".into(),
        domain: d.into(),
    };
    let smoking = bind(
        "Smoking_class",
        dom("class"),
        &[
            "'None' <- PacksPerDay = 0",
            "'Light' <- PacksPerDay < 2",
            "'Heavy' <- PacksPerDay >= 2",
        ],
    )?;
    let packs = bind(
        "Smoking_packs",
        dom("packs"),
        &["PacksPerDay <- PacksPerDay IS ANSWERED"],
    )?;
    let naive = Table::from_rows(
        tool.forms[0].naive_schema(),
        (0..rows as i64)
            .map(|i| {
                vec![
                    Value::Int(i + 1),
                    Value::Int(i % 4),
                    Value::Bool(i % 3 == 0),
                ]
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(Engine::build(
        "clinic",
        naive,
        &entity,
        &[&smoking, &packs],
        EngineConfig::default(),
    )?)
}

/// The named standing queries `serve` exposes — a fixed menu instead of
/// a plan parser, matching how the engine is driven in-process.
fn serve_queries() -> Vec<(&'static str, Plan)> {
    vec![
        ("all", Plan::scan("Procedure")),
        (
            "surgery",
            Plan::scan("Procedure").select(Expr::col("SurgeryPerformed").eq(Expr::lit(true))),
        ),
        (
            "heavy",
            Plan::scan("Procedure").select(Expr::col("PacksPerDay").ge(Expr::lit(2i64))),
        ),
        (
            "by_surgery",
            Plan::scan("Procedure").aggregate(
                &["SurgeryPerformed"],
                vec![
                    Aggregate {
                        func: AggFunc::CountAll,
                        alias: "n".into(),
                    },
                    Aggregate {
                        func: AggFunc::Sum("PacksPerDay".into()),
                        alias: "packs".into(),
                    },
                ],
            ),
        ),
        ("study", Plan::scan("clinic__All")),
        (
            // Inner join of the naïve form against the materialized study
            // table (`explain study_packs` shows the join's build side).
            "study_packs",
            Plan::scan("Procedure")
                .join(
                    Plan::scan("clinic__All"),
                    vec![("instance_id", "instance_id")],
                    JoinKind::Inner,
                )
                .select(Expr::col("PacksPerDay").ge(Expr::lit(2i64))),
        ),
    ]
}

/// `explain <query> [--analyze]`: print the operator tree the executor
/// runs for one of the `serve` menu queries against the demo engine —
/// the query as `Snapshot::optimize` prepares it, which is what
/// `Executor::execute` compiles.
/// `--analyze` additionally evaluates every subtree and appends its
/// actual row count, and each scan leaf's physical table layout (chunks,
/// sealed spans, imaged columns, dead rows under seals, small tail chunks).
fn cmd_explain(query: &str, flag: Option<&str>) -> CmdResult {
    let analyze = match flag {
        None => false,
        Some("--analyze") => true,
        Some(other) => return Err(format!("unknown flag `{other}` (expected --analyze)").into()),
    };
    let engine = serve_engine(12)?;
    let queries = serve_queries();
    let Some((_, plan)) = queries.iter().find(|(n, _)| *n == query) else {
        let names: Vec<&str> = queries.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown query `{query}` (one of: {})", names.join(", ")).into());
    };
    let snap = engine.snapshot();
    print!(
        "{}",
        explain_plan(&snap.optimize(plan), snap.database(), analyze)?
    );
    Ok(())
}

fn fmt_rows(t: &Table) -> Vec<String> {
    t.iter_rows()
        .map(|r| {
            r.iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect()
}

fn parse_packs(s: &str) -> Result<Value, String> {
    if s.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("bad packs value `{s}` (integer or null)"))
}

/// One `serve` client state: the engine, one session, and the live
/// subscriptions keyed by the id the protocol prints.
struct ServeState {
    engine: Engine,
    session: Session,
    subs: BTreeMap<u64, (String, Subscription)>,
    next_sub: u64,
}

impl ServeState {
    fn new(engine: Engine) -> ServeState {
        let session = engine.session();
        ServeState {
            engine,
            session,
            subs: BTreeMap::new(),
            next_sub: 0,
        }
    }

    /// Drain every subscription and print one delta line per event —
    /// the push half of the protocol, run after each mutation.
    fn drain(&mut self, out: &mut dyn Write) -> CmdResult {
        for (id, (name, sub)) in self.subs.iter_mut() {
            loop {
                match sub.try_next() {
                    Ok(Some(event)) => {
                        let what = match &event.change {
                            Ok(Change::Unchanged) => "unchanged".to_owned(),
                            Ok(Change::Patch(p)) => {
                                format!("-{} +{}", p.rows_deleted(), p.rows_inserted())
                            }
                            Ok(Change::Full(rows)) => format!("full ({} rows)", rows.len()),
                            Err(_) => unreachable!("errors returned via Err"),
                        };
                        writeln!(
                            out,
                            "sub {id} {name} @ gen {}: {what} -> {} rows",
                            event.generation,
                            sub.table().len()
                        )?;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        writeln!(out, "sub {id} {name}: error: {e}")?;
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

const SERVE_HELP: &str = "commands:
  queries                      list the named standing queries
  query <name>                 run a named query on the session's snapshot
  subscribe <name>             register a live subscription
  rows <sub-id>                print a subscription's mirrored rows
  insert <id> <packs> <0|1>    insert a procedure row (packs may be `null`)
  amend <id> <packs>           update a procedure's packs-per-day
  retire <id>                  delete a procedure row
  pin | unpin                  pin the session to its current generation
  gen                          print the session and engine generations
  verify                       check every mirror against a re-query
  help                         this text
  quit                         exit";

/// The `serve` line protocol, factored over generic I/O so tests drive
/// it in-process. Every mutation installs one generation and immediately
/// prints each subscription's pushed delta.
fn serve_loop(input: &mut dyn BufRead, out: &mut dyn Write, engine: Engine) -> CmdResult {
    let queries = serve_queries();
    let mut st = ServeState::new(engine);
    writeln!(
        out,
        "serve: warehouse `clinic` @ gen {} ({} naive rows); `help` lists commands",
        st.engine.generation(),
        st.session.snapshot().store().naive_form.len()
    )?;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(()); // EOF
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let result = match words.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => return Ok(()),
            ["help"] => {
                writeln!(out, "{SERVE_HELP}")?;
                Ok(())
            }
            ["queries"] => {
                for (name, _) in &queries {
                    writeln!(out, "{name}")?;
                }
                Ok(())
            }
            ["query", name] => match queries.iter().find(|(n, _)| n == name) {
                None => Err(format!("unknown query `{name}` (see `queries`)").into()),
                Some((_, plan)) => {
                    st.session
                        .query(plan)
                        .map_err(Into::into)
                        .and_then(|t| -> CmdResult {
                            for r in fmt_rows(&t) {
                                writeln!(out, "{r}")?;
                            }
                            writeln!(out, "({} rows @ gen {})", t.len(), st.session.generation())?;
                            Ok(())
                        })
                }
            },
            ["subscribe", name] => {
                match queries.iter().find(|(n, _)| n == name) {
                    None => Err(format!("unknown query `{name}` (see `queries`)").into()),
                    Some((n, plan)) => st.session.subscribe(plan).map_err(Into::into).and_then(
                        |sub| -> CmdResult {
                            st.next_sub += 1;
                            writeln!(
                                out,
                                "sub {} = {n} ({} rows @ gen {})",
                                st.next_sub,
                                sub.table().len(),
                                sub.generation()
                            )?;
                            st.subs.insert(st.next_sub, ((*n).to_owned(), sub));
                            Ok(())
                        },
                    ),
                }
            }
            ["rows", id] => (|| -> CmdResult {
                let id: u64 = id.parse().map_err(|_| format!("bad sub id `{id}`"))?;
                let (name, sub) = st.subs.get(&id).ok_or(format!("no sub {id}"))?;
                for r in fmt_rows(&sub.table()) {
                    writeln!(out, "{r}")?;
                }
                writeln!(
                    out,
                    "({name}: {} rows @ gen {})",
                    sub.table().len(),
                    sub.generation()
                )?;
                Ok(())
            })(),
            ["insert", id, packs, surgery] => (|| -> CmdResult {
                let row = vec![
                    Value::Int(id.parse::<i64>().map_err(|_| format!("bad id `{id}`"))?),
                    parse_packs(packs)?,
                    Value::Bool(*surgery == "1"),
                ];
                let (_, generation) = st
                    .engine
                    .update(|cat| cat.insert("clinic", "Procedure", row))?;
                writeln!(out, "gen {generation}")?;
                st.drain(out)
            })(),
            ["amend", id, packs] => (|| -> CmdResult {
                let key = Value::Int(id.parse::<i64>().map_err(|_| format!("bad id `{id}`"))?);
                let packs = parse_packs(packs)?;
                let (n, generation) = st.engine.update(|cat| {
                    cat.update_where(
                        "clinic",
                        "Procedure",
                        |r| r[0] == key,
                        |r| r[1] = packs.clone(),
                    )
                })?;
                writeln!(out, "gen {generation} ({n} amended)")?;
                st.drain(out)
            })(),
            ["retire", id] => (|| -> CmdResult {
                let key = Value::Int(id.parse::<i64>().map_err(|_| format!("bad id `{id}`"))?);
                let (n, generation) = st
                    .engine
                    .update(|cat| cat.delete_where("clinic", "Procedure", |r| r[0] == key))?;
                writeln!(out, "gen {generation} ({n} retired)")?;
                st.drain(out)
            })(),
            ["pin"] => {
                let snap = st.session.pin();
                writeln!(out, "pinned @ gen {}", snap.generation())?;
                Ok(())
            }
            ["unpin"] => {
                st.session.unpin();
                writeln!(out, "unpinned (now @ gen {})", st.session.generation())?;
                Ok(())
            }
            ["gen"] => {
                writeln!(
                    out,
                    "session @ gen {}{}, engine @ gen {}",
                    st.session.generation(),
                    if st.session.is_pinned() {
                        " (pinned)"
                    } else {
                        ""
                    },
                    st.engine.generation()
                )?;
                Ok(())
            }
            ["verify"] => (|| -> CmdResult {
                // The byte-identity contract, checked live: each mirror
                // must equal re-running its plan on the engine's current
                // snapshot.
                let fresh = st.engine.session();
                for (id, (name, sub)) in &st.subs {
                    let plan = &queries.iter().find(|(n, _)| n == name).unwrap().1;
                    let oracle = fresh.query(plan)?;
                    if oracle != sub.table() {
                        return Err(format!(
                            "sub {id} {name}: mirror ({} rows) != re-query ({} rows)",
                            sub.table().len(),
                            oracle.len()
                        )
                        .into());
                    }
                }
                writeln!(out, "verify ok ({} subs)", st.subs.len())?;
                Ok(())
            })(),
            _ => Err(format!("unknown command `{}` (try `help`)", line.trim()).into()),
        };
        if let Err(e) = result {
            writeln!(out, "error: {e}")?;
        }
    }
}

fn cmd_serve(rows: Option<&str>) -> CmdResult {
    let rows = match rows {
        None => 6,
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| format!("bad row count `{s}`"))?,
    };
    let engine = serve_engine(rows)?;
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    serve_loop(&mut stdin.lock(), &mut out, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use guava::relational::optimize::prepare;

    fn run(script: &str) -> String {
        let engine = serve_engine(6).unwrap();
        let mut input = std::io::Cursor::new(script.as_bytes().to_vec());
        let mut out: Vec<u8> = Vec::new();
        serve_loop(&mut input, &mut out, engine).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn command_table_is_well_formed() {
        for c in COMMANDS {
            assert!(c.min_args <= c.max_args, "{}: inverted arity", c.name);
            assert!(!c.about.is_empty(), "{}: missing about", c.name);
        }
        // Names are unique (dispatch would silently shadow otherwise).
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len());
        assert!(find_command("serve").is_some());
        assert!(find_command("bogus").is_none());
    }

    #[test]
    fn explain_study_packs_prints_the_rule_optimized_tree() {
        let engine = serve_engine(12).unwrap();
        let snap = engine.snapshot();
        let db = snap.database();
        let queries = serve_queries();
        let (_, plan) = queries.iter().find(|(n, _)| *n == "study_packs").unwrap();
        let chosen = snap.optimize(plan);
        // Both sides of the join are read whole: nothing to prune or fuse.
        assert_eq!(chosen, *plan);

        // The executed tree, pre-order: Select over the join of two scans.
        let Plan::Select { input: join, .. } = &chosen else {
            panic!("{chosen:?}")
        };
        let Plan::Join { left, right, .. } = &**join else {
            panic!("{chosen:?}")
        };
        let nodes = [&chosen, &**join, &**left, &**right];
        let heads = [
            "Select (PacksPerDay >= 2)",
            "  HashJoin on instance_id = instance_id  [probe: key of clinic__All]",
            "    Scan Procedure",
            "    Scan clinic__All",
        ];

        let plain = explain_plan(&chosen, db, false).unwrap();
        assert_eq!(
            plain.lines().collect::<Vec<_>>(),
            heads,
            "no estimate fields"
        );

        let analyzed = explain_plan(&chosen, db, true).unwrap();
        assert_eq!(analyzed.lines().count(), nodes.len(), "{analyzed}");
        for ((line, head), node) in analyzed.lines().zip(heads).zip(nodes) {
            let rows = node.eval_materialized(db).unwrap().len();
            let want = format!("{head}  [actual rows={rows}]");
            assert!(line.starts_with(&want), "{line}");
            assert_eq!(line.contains("[layout: "), matches!(node, Plan::Scan(_)));
        }

        // A failing plan fails the analyze with the query's own error;
        // plain explain never evaluates, so it still prints.
        let bad = chosen.select(Expr::col("NoSuchColumn").eq(Expr::lit(1i64)));
        assert_eq!(
            explain_plan(&bad, db, true).unwrap_err(),
            bad.eval_materialized(db).unwrap_err()
        );
        assert!(explain_plan(&bad, db, false).is_ok());
    }

    #[test]
    fn explain_prints_the_clinical_extracts_as_they_run() {
        use guava::etl::compile::compile;
        let profiles = generate(&GeneratorConfig::default().with_size(25));
        let contributors = build_all(&profiles).unwrap();
        let catalog = physical_catalog(&contributors);
        let study = study2_definition(&contributors, ExSmokerMeaning::QuitWithinYear);
        let compiled = compile(
            &study,
            &study_schema(),
            &registry(),
            &bindings(&contributors),
        )
        .unwrap();
        let explained = |component: &str| {
            let stage = &compiled.workflow.stages[0];
            let comp = stage.components.iter().find(|c| c.name == component);
            let comp = comp.unwrap();
            let db = catalog.database(&comp.source_db).unwrap();
            explain_plan(&prepare(&comp.plan, db).unwrap(), db, false).unwrap()
        };
        // EndoPro: the audit filter's windows reach the pivot as they are,
        // and the three-level tower above it is one row build.
        assert_eq!(
            explained("extract:endopro__Procedure").lines().collect::<Vec<_>>(),
            [
                "Project [instance_id, smoker_status, quit_months_ago, ae_hypoxia_transient, ae_hypoxia_prolonged]",
                "  Rename → exam_report (0 columns)",
                "    Rename (1 columns)",
                "      Pivot [15 attrs]",
                "        Rename → eav_records (0 columns)",
                "          Select (is_void = 0)",
                "            Scan eav_records",
            ]
        );
        // GastroLink: the alcohol lookup nobody reads is gone, and the
        // discriminator filter sits on the scan, where lane masks run it.
        assert_eq!(
            explained("extract:gastrolink__Procedure")
                .lines()
                .collect::<Vec<_>>(),
            [
                "Project [instance_id, tobacco, quit_months, c_hypoxia_t, c_hypoxia_p]",
                "  Rename → visit (0 columns)",
                "    Select (rec_type = 'visit')",
                "      Scan gl_master",
            ]
        );
    }

    #[test]
    fn serve_loop_push_and_verify() {
        let out = run(
            "subscribe all\nsubscribe heavy\nsubscribe by_surgery\nsubscribe study\n\
                       insert 7 3 1\namend 1 2\nretire 2\nverify\ngen\nquit\n",
        );
        // Every mutation bumped the generation and pushed deltas.
        assert!(out.contains("gen 1"), "{out}");
        assert!(out.contains("gen 2 (1 amended)"), "{out}");
        assert!(out.contains("gen 3 (1 retired)"), "{out}");
        assert!(out.contains("sub 1 all @ gen 1"), "{out}");
        // The live byte-identity check passed with all four mirrors.
        assert!(out.contains("verify ok (4 subs)"), "{out}");
        assert!(out.contains("engine @ gen 3"), "{out}");
    }

    #[test]
    fn serve_loop_pinned_session_and_errors() {
        let out = run("pin\ninsert 9 1 0\nquery all\ngen\nunpin\nquery all\n\
                       query nope\nrows 99\nquit\n");
        // The pinned query still sees 6 rows at gen 0 after the insert...
        assert!(out.contains("(6 rows @ gen 0)"), "{out}");
        assert!(
            out.contains("session @ gen 0 (pinned), engine @ gen 1"),
            "{out}"
        );
        // ...and the unpinned query advances to 7 rows at gen 1.
        assert!(out.contains("(7 rows @ gen 1)"), "{out}");
        // Protocol errors are reported inline, not fatal.
        assert!(out.contains("error: unknown query `nope`"), "{out}");
        assert!(out.contains("error: no sub 99"), "{out}");
    }

    #[test]
    fn serve_rejects_duplicate_key_but_keeps_serving() {
        let out = run("subscribe all\ninsert 1 0 0\ninsert 8 0 0\nverify\nquit\n");
        // Row id 1 exists in the seed — the insert fails atomically...
        assert!(out.contains("error:"), "{out}");
        // ...then a valid insert still lands as generation 1 and the
        // mirror still matches a re-query.
        assert!(out.contains("gen 1"), "{out}");
        assert!(out.contains("verify ok (1 subs)"), "{out}");
    }
}
