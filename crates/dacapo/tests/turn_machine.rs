//! The receive turn, explored: every sequence of events two callers, the
//! connection's loop and the rest of the world (a binding, a drain, the
//! transport) can bring to [`dacapo::pool::step`], breadth first, to a
//! depth of at least eight, checked after each step for three things:
//!
//! - at most one thread reads;
//! - no lost wake: while a reply is owed to a thread that is not reading,
//!   a module is busy, a close waits to be read or a loop not handed over
//!   has had an arrival, someone reads or the loop has been nudged — and a
//!   loop that has looked reads;
//! - after the transport's end nobody parks for ever: the loop has
//!   returned or has been nudged to.
//!
//! A machine that forgets a nudge once it has consumed it — the lost nudge
//! of the first Da CaPo turn — must fail, with a trace.

use dacapo::pool::{step, Holder, Modules, TurnAction, TurnEvent, TurnState};
use std::collections::{HashMap, VecDeque};

type Step = fn(TurnState, TurnEvent) -> (TurnState, TurnAction);

/// Where a caller is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Caller {
    Idle,
    Reading,
    /// Refused the turn; it owes its reply to the loop next.
    Refused,
    /// Parked, its reply owed.
    Owing,
}

/// Who brings an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Actor {
    Caller(usize),
    Loop,
    /// A drain, or a sender behind a stalled module.
    Drain,
    /// A binding, a deferred reply's entry, the transport.
    World,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct World {
    turn: TurnState,
    callers: [Caller; 2],
    /// What the loop thread was told: it reads.
    loop_reads: bool,
    /// A deferred reply is owed.
    deferred: bool,
    /// A drain waits.
    stalled: bool,
}

/// The transport and the stack the connection runs on.
#[derive(Debug, Clone, Copy)]
struct Setup {
    /// The stack has modules, which may hold deferred state.
    modules: bool,
    /// The transport reports its first arrival (loopback, netsim).
    arrivals: bool,
}

impl Setup {
    fn all() -> [Setup; 4] {
        [(false, false), (false, true), (true, false), (true, true)]
            .map(|(modules, arrivals)| Setup { modules, arrivals })
    }

    fn seen(self) -> &'static [Modules] {
        if self.modules {
            &[Modules::Idle, Modules::Busy]
        } else {
            &[Modules::None]
        }
    }

    fn start(self) -> World {
        let mut turn = TurnState::start();
        if !self.arrivals {
            turn = step(turn, TurnEvent::Arrival).0;
        }
        World {
            turn,
            callers: [Caller::Idle; 2],
            loop_reads: false,
            deferred: false,
            stalled: false,
        }
    }
}

/// Every event that can come next, and who brings it.
fn enabled(setup: Setup, w: &World) -> Vec<(Actor, TurnEvent)> {
    use TurnEvent::*;
    let mut next = Vec::new();
    for (i, caller) in w.callers.iter().enumerate() {
        let who = Actor::Caller(i);
        match caller {
            Caller::Idle => next.push((who, Want)),
            Caller::Refused => next.push((who, Owe)),
            Caller::Owing => next.push((who, Paid)),
            Caller::Reading => {
                next.extend(setup.seen().iter().map(|&seen| (who, Released(seen))));
                next.push((who, End));
            }
        }
    }
    if w.loop_reads {
        next.extend(setup.seen().iter().map(|&seen| (Actor::Loop, Frame(seen))));
        next.push((Actor::Loop, End));
    } else if !w.turn.gone && (w.turn.nudged || w.turn.seen != Modules::None) {
        // Nudged, or at the recheck of a loop that saw modules.
        next.extend(setup.seen().iter().map(|&seen| (Actor::Loop, Look(seen))));
    }
    let world = |on: bool, event| (on, (Actor::World, event));
    next.extend(
        [
            world(!w.turn.handed_over, HandOver),
            world(setup.arrivals && !w.turn.arrived, Arrival),
            world(!w.turn.closed, Close),
            world(!w.deferred, Owe),
            world(w.deferred, Paid),
            (!w.stalled, (Actor::Drain, Owe)),
            (w.stalled, (Actor::Drain, Unstall)),
        ]
        .into_iter()
        .filter_map(|(on, e)| on.then_some(e)),
    );
    next
}

/// `event` applied to `w` by `machine`, and what its bringer does next.
fn advance(machine: Step, w: World, who: Actor, event: TurnEvent) -> World {
    let (turn, action) = machine(w.turn, event);
    let mut next = World { turn, ..w };
    match who {
        Actor::Caller(i) => {
            next.callers[i] = match (w.callers[i], action) {
                (Caller::Idle, TurnAction::Read) => Caller::Reading,
                (Caller::Idle, _) => Caller::Refused,
                (Caller::Refused, _) => Caller::Owing,
                (Caller::Owing | Caller::Reading, _) => Caller::Idle,
            }
        }
        Actor::Loop => next.loop_reads = action == TurnAction::Read,
        Actor::Drain => next.stalled = !w.stalled,
        Actor::World => {
            if matches!(event, TurnEvent::Owe | TurnEvent::Paid) {
                next.deferred = !w.deferred;
            }
        }
    }
    next
}

/// What is wrong with `w`, reached by `event`, if anything.
fn violation(w: &World, event: TurnEvent) -> Option<&'static str> {
    let t = &w.turn;
    let callers = w.callers.iter().filter(|c| **c == Caller::Reading).count();
    let readers = callers + usize::from(w.loop_reads);
    let holder = match (callers, w.loop_reads) {
        (0, false) => Holder::Nobody,
        (_, false) => Holder::Caller,
        _ => Holder::Loop,
    };
    if readers > 1 || holder != t.holder {
        return Some("more than one thread reads, or not the one the state names");
    }
    let owed = t.owed > 0 || t.seen == Modules::Busy || t.closed || (!t.handed_over && t.arrived);
    if !t.ended && owed && t.holder == Holder::Nobody && !t.nudged {
        return Some("a lost wake: the loop is wanted, nobody reads and it sleeps");
    }
    // A nudge is a promise to look: a loop that has looked, wanted and
    // with the turn free, reads.
    if matches!(event, TurnEvent::Look(_)) && !t.ended && owed && t.holder == Holder::Nobody {
        return Some("a wasted wake: the loop looked, is wanted and does not read");
    }
    if t.ended && !t.gone && !t.nudged {
        return Some("the transport has ended and the loop sleeps for good");
    }
    None
}

/// A counterexample: the setup, what went wrong and the events that got
/// there.
#[derive(Debug)]
struct Trace {
    setup: Setup,
    broke: &'static str,
    events: Vec<(Actor, TurnEvent)>,
}

/// Breadth first over every world `machine` reaches from each setup's
/// start within `depth` events; what was reached, and the deepest layer
/// that found a new world, or the shortest trace to a violation.
fn explore(machine: Step, depth: usize) -> Result<(usize, usize), Trace> {
    let mut reached = 0;
    let mut deepest = 0;
    for setup in Setup::all() {
        let start = setup.start();
        let mut parent: HashMap<World, Option<(World, Actor, TurnEvent)>> =
            HashMap::from([(start, None)]);
        let mut layer = VecDeque::from([start]);
        for level in 1..=depth {
            let mut next_layer = VecDeque::new();
            for w in layer {
                for (who, event) in enabled(setup, &w) {
                    let next = advance(machine, w, who, event);
                    if parent.contains_key(&next) {
                        continue;
                    }
                    parent.insert(next, Some((w, who, event)));
                    if let Some(broke) = violation(&next, event) {
                        let mut events = Vec::new();
                        let mut at = next;
                        while let Some(Some((before, who, event))) = parent.get(&at) {
                            events.push((*who, *event));
                            at = *before;
                        }
                        events.reverse();
                        return Err(Trace {
                            setup,
                            broke,
                            events,
                        });
                    }
                    deepest = deepest.max(level);
                    next_layer.push_back(next);
                }
            }
            layer = next_layer;
        }
        reached += parent.len();
    }
    Ok((reached, deepest))
}

/// The lost nudge: a loop that consumes its nudge forgets it and parks
/// again, without looking at what it was woken for.
fn forgets_a_consumed_nudge(s: TurnState, e: TurnEvent) -> (TurnState, TurnAction) {
    let (next, action) = step(s, e);
    if s.nudged && !next.nudged {
        return (TurnState { nudged: false, ..s }, TurnAction::Nothing);
    }
    (next, action)
}

const DEPTH: usize = 24;

#[test]
fn every_schedule_to_depth_eight_and_beyond_keeps_the_turn_safe_and_awake() {
    let (reached, deepest) = explore(step, DEPTH).unwrap_or_else(|t| panic!("{t:#?}"));
    // Past the deepest layer no event reaches a new world: every sequence
    // of any length has been checked, not only those of `DEPTH` events.
    assert!(
        (8..DEPTH).contains(&deepest),
        "the last new world came at depth {deepest}"
    );
    assert!(reached > 1_000, "only {reached} worlds reached");
}

#[test]
fn a_machine_that_forgets_a_consumed_nudge_yields_a_counterexample() {
    let Trace {
        setup,
        broke,
        events,
    } = explore(forgets_a_consumed_nudge, DEPTH).expect_err("the lost nudge went unnoticed");
    let looked = events
        .iter()
        .any(|(who, e)| *who == Actor::Loop && matches!(e, TurnEvent::Look(_)));
    assert!(
        broke.contains("lost wake") && looked,
        "{setup:?}: {broke} after {events:?}"
    );
}
