//! `serve`: a session host under a closed loop of four clients.
//!
//! Set-up converges one session per client and snapshots it. Each pass
//! restores the sessions into a fresh [`SessionHost`] and runs
//! [`SERVE_TICKS`] ticks: every client keeps exactly one command
//! outstanding (submitted before the tick, answered by it), and every
//! [`SERVE_MIGRATE_EVERY`] ticks one session migrates — snapshot,
//! retire, restore, admit. Latency is measured from submit to the end
//! of the answering tick.

use crate::cpus::Rotation;
use crate::gen::{
    self, Planned, SERVE_DISPLACE_SHARE, SERVE_EPSILON_SHARE, SERVE_MIGRATE_EVERY, SERVE_N,
    SERVE_QUERY_SAMPLES, SERVE_SESSIONS, SERVE_TICKS,
};
use crate::layers::{self, Layers};
use crate::report::{self, Failure, Tally};
use crate::{repeat_for, Args, EndToEnd, PassTiming};
use laacad::{Session, SessionBuilder};
use laacad_coverage::evaluate_coverage;
use laacad_geom::Point;
use laacad_scenario::{build_scenario, ScenarioSpec};
use laacad_serve::{Command, HostConfig, QueuePolicy, Response, SessionHost};
use laacad_wsn::NodeId;
use std::time::Instant;

/// Round limit for converging a session during set-up.
const SETUP_ROUND_LIMIT: usize = 400;

/// Converged sessions, as snapshots.
struct Setup {
    snapshots: Vec<Vec<u8>>,
}

/// Builds and converges one session; returns its snapshot.
fn converge_session(seed: u64) -> Result<Vec<u8>, (Failure, String)> {
    let mut spec = ScenarioSpec::uniform("bench-serve", SERVE_N, 1);
    spec.laacad.epsilon = Some(SERVE_EPSILON_SHARE * gen::expected_range(SERVE_N, 1));
    spec.laacad.max_rounds = SETUP_ROUND_LIMIT;
    let (mut session, _) =
        build_scenario(&spec, seed).map_err(|e| (Failure::RunError, e.to_string()))?;
    while !session.is_converged() && session.rounds_executed() < SETUP_ROUND_LIMIT {
        session.step();
    }
    if !session.is_converged() {
        return Err((
            Failure::NotConverged,
            format!("serve session {seed} did not converge in set-up"),
        ));
    }
    session.finalize();
    Ok(session.snapshot())
}

/// Converges every session, `nproc` at a time; `setup_s` samples are
/// the per-session times.
fn set_up(seed: u64, times: &mut Vec<f64>, tally: &mut Tally) -> Setup {
    let seeds = gen::serve_session_seeds(seed);
    let results = laacad_exec::parallel_map(seeds, |s| {
        let start = Instant::now();
        let r = converge_session(s);
        (r, layers::secs(start))
    });
    let mut snapshots = Vec::new();
    for (r, t) in results {
        times.push(t);
        match r {
            Ok(bytes) => snapshots.push(bytes),
            Err(e) => tally.record(Err(e)),
        }
    }
    Setup { snapshots }
}

/// What a pass did to the sessions, in order, for the serial replay.
#[derive(Debug, Clone)]
enum Event {
    Migrate(usize),
    Command(usize, Command),
}

/// One host pass.
struct Pass {
    wall: f64,
    latencies: Vec<f64>,
    steps: u64,
    unicast: u64,
    /// Final snapshot of every client's session.
    finals: Vec<Vec<u8>>,
    /// Final `R*` of every client's session.
    radii: Vec<f64>,
    events: Vec<Vec<Event>>,
}

/// The nodes nearest `(x, y)`, each moved a quarter of the transmission
/// range toward the region centre (or onto it, when closer).
fn disturbance(session: &Session, x: f64, y: f64) -> Vec<(NodeId, Point)> {
    let net = session.network();
    let positions = net.positions();
    let count = ((positions.len() as f64 * SERVE_DISPLACE_SHARE).ceil() as usize).max(1);
    let mut order: Vec<(f64, usize)> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| (((p.x - x).powi(2) + (p.y - y).powi(2)), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let step = session.config().gamma / 4.0;
    let centre = Point::new(0.5, 0.5);
    order
        .iter()
        .take(count)
        .map(|&(_, i)| {
            let p = positions[i];
            let (dx, dy) = (centre.x - p.x, centre.y - p.y);
            let d = (dx * dx + dy * dy).sqrt();
            let target = if d <= step {
                centre
            } else {
                Point::new(p.x + dx * step / d, p.y + dy * step / d)
            };
            (NodeId(i), target)
        })
        .collect()
}

fn command_for(planned: Planned, session: &Session) -> Command {
    match planned {
        Planned::Step => Command::Step,
        Planned::Query => Command::QueryCoverage {
            samples: SERVE_QUERY_SAMPLES,
        },
        Planned::Snapshot => Command::Snapshot,
        Planned::Displace { x, y } => Command::Displace(disturbance(session, x, y)),
    }
}

/// Runs one pass on a fresh host with `threads` fan-out workers; with
/// `traced`, every session carries a recorder and each host call is
/// timed into it.
fn host_pass(
    setup: &Setup,
    plan: &[Vec<Planned>],
    threads: usize,
    tally: &mut Tally,
    mut traced: Option<&mut Layers>,
) -> Pass {
    let mut host = SessionHost::new(HostConfig {
        queue_capacity: 1,
        policy: QueuePolicy::Reject,
        tick_budget: 1,
        threads,
    });
    let mut ids = Vec::new();
    for bytes in &setup.snapshots {
        let mut session = match SessionBuilder::restore(bytes) {
            Ok(s) => s,
            Err(e) => {
                tally.record(Err((Failure::Restore, e.to_string())));
                continue;
            }
        };
        if traced.is_some() {
            session.set_recorder(layers::recorder());
        }
        let start = Instant::now();
        ids.push(host.admit(session));
        if let Some(l) = traced.as_deref_mut() {
            l.admit_s += layers::secs(start);
        }
    }
    let clients = ids.len();
    let mut latencies = Vec::with_capacity(plan.len() * clients);
    let mut events = Vec::with_capacity(plan.len());
    let (mut steps, mut unicast) = (0u64, 0u64);
    let mut submitted = vec![None; clients];
    let start = Instant::now();
    for (t, row) in plan.iter().enumerate() {
        let mut tick_events = Vec::new();
        if t > 0 && t % SERVE_MIGRATE_EVERY == 0 && clients > 0 {
            let slot = (t / SERVE_MIGRATE_EVERY - 1) % clients;
            tick_events.push(Event::Migrate(slot));
            migrate(&mut host, &mut ids[slot], tally, traced.as_deref_mut());
        }
        for (c, &planned) in row.iter().enumerate().take(clients) {
            let Some(session) = host.session(ids[c]) else {
                continue;
            };
            let command = command_for(planned, session);
            tick_events.push(Event::Command(c, command.clone()));
            submitted[c] = Some(Instant::now());
            if let Err(e) = host.submit(ids[c], command) {
                tally.record(Err((Failure::Submit, e.to_string())));
                submitted[c] = None;
            }
        }
        let tick_start = Instant::now();
        let answered = host.tick();
        let tick_end = Instant::now();
        if let Some(l) = traced.as_deref_mut() {
            l.ticks.push((tick_end - tick_start).as_secs_f64());
        }
        for (id, responses) in answered {
            let Some(c) = ids.iter().position(|&x| x == id) else {
                continue;
            };
            for response in responses {
                if let Some(at) = submitted[c].take() {
                    latencies.push((tick_end - at).as_secs_f64());
                }
                tally.record(match response {
                    Response::Failed(why) => Err((Failure::Response, why)),
                    Response::Stepped(delta) => {
                        steps += 1;
                        unicast += delta.report.messages.unicast;
                        Ok(())
                    }
                    _ => Ok(()),
                });
            }
        }
        events.push(tick_events);
    }
    let wall = layers::secs(start);
    let mut finals = Vec::with_capacity(clients);
    let mut radii = Vec::with_capacity(clients);
    for &id in &ids {
        let session = host.session(id).expect("client sessions stay admitted");
        finals.push(session.snapshot());
        radii.push(session.network().max_sensing_radius());
    }
    if let Some(l) = traced {
        let stats = host.stats();
        l.rejected += stats.rejected as f64;
        l.shed += stats.shed as f64;
        for &id in &ids {
            if let Some(mut session) = host.retire(id) {
                l.absorb(session.take_recorder());
            }
        }
    }
    Pass {
        wall,
        latencies,
        steps,
        unicast,
        finals,
        radii,
        events,
    }
}

/// Snapshot, retire, restore, admit; checks the restored session
/// re-snapshots to the same bytes.
fn migrate(
    host: &mut SessionHost,
    id: &mut laacad_serve::SessionId,
    tally: &mut Tally,
    mut traced: Option<&mut Layers>,
) {
    let Some(session) = host.session(*id) else {
        return;
    };
    let bytes = match traced.as_deref_mut() {
        Some(l) => l.time_encode(|| session.snapshot()),
        None => session.snapshot(),
    };
    let mut retired = host.retire(*id).expect("a live session retires");
    let old_recorder = retired.take_recorder();
    let restored = match traced.as_deref_mut() {
        Some(l) => l.time_decode(&bytes, SessionBuilder::restore),
        None => SessionBuilder::restore(&bytes),
    };
    let mut session = match restored {
        Ok(s) => s,
        Err(e) => {
            tally.record(Err((Failure::Restore, e.to_string())));
            retired
        }
    };
    tally.record(if session.snapshot() == bytes {
        Ok(())
    } else {
        Err((
            Failure::SnapshotMismatch,
            "restored session re-snapshots to different bytes".into(),
        ))
    });
    let start = Instant::now();
    if let Some(l) = traced {
        l.absorb(old_recorder);
        session.set_recorder(layers::recorder());
        *id = host.admit(session);
        l.admit_s += layers::secs(start);
    } else {
        *id = host.admit(session);
    }
}

fn same_finals(a: &[Vec<u8>], b: &[Vec<u8>], what: &str) -> Result<(), (Failure, String)> {
    if a == b {
        Ok(())
    } else {
        Err((
            Failure::OutputMismatch,
            format!("{what}: final session snapshots differ"),
        ))
    }
}

/// The untraced run, on [`gen::SERVE_THREADS`] host workers.
pub fn run(args: &Args, tally: &mut Tally) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let setup = set_up(args.seed, &mut e2e.setup, tally);
    let plan = gen::serve_plan(args.seed, SERVE_TICKS, SERVE_SESSIONS);
    let mut first: Option<Vec<Vec<u8>>> = None;
    let rotation = Rotation::new(gen::SERVE_THREADS == 1);
    repeat_for(args.seconds, &rotation, || {
        let pass = host_pass(&setup, &plan, gen::SERVE_THREADS, tally, None);
        match &first {
            None => {
                e2e.set_quality(
                    pass.steps as f64,
                    &pass.radii,
                    pass.unicast as f64,
                    SERVE_N * pass.radii.len(),
                );
                first = Some(pass.finals);
            }
            Some(f) => tally.record(same_finals(f, &pass.finals, "repeat pass")),
        }
        e2e.passes.push(PassTiming {
            wall: pass.wall,
            latencies: pass.latencies,
        });
    });
    e2e
}

/// The traced run: an untraced pass on all cores (the reference), one
/// on one core (speed-up), a traced pass with recorders on every
/// session, and a serial direct-call replay of the traced pass's
/// command stream.
pub fn trace(args: &Args, tally: &mut Tally) -> Layers {
    let mut layers = Layers::default();
    let mut setup_times = Vec::new();
    let setup = set_up(args.seed, &mut setup_times, tally);
    let plan = gen::serve_plan(args.seed, SERVE_TICKS, SERVE_SESSIONS);
    let threads = report::nproc();
    let reference = host_pass(&setup, &plan, threads, tally, None);
    let single = host_pass(&setup, &plan, 1, tally, None);
    tally.record(same_finals(
        &reference.finals,
        &single.finals,
        "one-thread pass",
    ));
    let traced = host_pass(&setup, &plan, threads, tally, Some(&mut layers));
    tally.record(same_finals(
        &reference.finals,
        &traced.finals,
        "traced pass",
    ));
    let (serial_s, finals) = replay(&setup, &traced.events, &mut layers, tally);
    tally.record(same_finals(&reference.finals, &finals, "serial replay"));
    layers.exec_speedup = single.wall / reference.wall;
    layers.fanout_efficiency = serial_s / (reference.wall * threads as f64);
    layers.overhead_frac = traced.wall / reference.wall - 1.0;
    layers
}

/// Replays a pass's sessions and commands by direct calls on one
/// thread, timing each call; returns the summed call time and the final
/// snapshots.
fn replay(
    setup: &Setup,
    events: &[Vec<Event>],
    layers: &mut Layers,
    tally: &mut Tally,
) -> (f64, Vec<Vec<u8>>) {
    let mut sessions: Vec<Session> = Vec::new();
    for bytes in &setup.snapshots {
        match layers.time_decode(bytes, SessionBuilder::restore) {
            Ok(s) => sessions.push(s),
            Err(e) => tally.record(Err((Failure::Restore, e.to_string()))),
        }
    }
    let start = Instant::now();
    for event in events.iter().flatten() {
        match event {
            Event::Migrate(slot) => {
                let bytes = layers.time_encode(|| sessions[*slot].snapshot());
                match layers.time_decode(&bytes, SessionBuilder::restore) {
                    Ok(s) => sessions[*slot] = s,
                    Err(e) => tally.record(Err((Failure::Restore, e.to_string()))),
                }
            }
            Event::Command(c, command) => {
                let session = &mut sessions[*c];
                match command {
                    Command::Step => {
                        layers.time_step(|| session.step());
                    }
                    Command::Displace(moves) => {
                        let t = Instant::now();
                        if let Err(e) = session.displace_nodes(moves) {
                            tally.record(Err((Failure::Response, e.to_string())));
                        }
                        layers.displace_s += layers::secs(t);
                    }
                    Command::QueryCoverage { samples } => {
                        layers.time_coverage(|| {
                            evaluate_coverage(
                                session.network(),
                                session.region(),
                                session.config().k,
                                *samples,
                            )
                        });
                    }
                    Command::Snapshot => {
                        layers.time_encode(|| session.snapshot());
                    }
                    Command::ApplyEvent(_) => unreachable!("the plan issues no events"),
                }
            }
        }
    }
    let serial_s = layers::secs(start);
    let finals = sessions.iter().map(Session::snapshot).collect();
    (serial_s, finals)
}
