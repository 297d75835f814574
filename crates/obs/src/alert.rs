//! Declarative alerting over the [`crate::tsdb`] store.
//!
//! Every rule is a [`crate::query`] expression, evaluated once per tick
//! against the time-series store: the condition holds when the result is a
//! non-empty vector or a non-zero scalar. Thresholds (`lag{field="max"} >
//! 600`), absences (`absent_over_time(samples_total[2])`), and SRE-style
//! **dual-window burn rates** over error-budget SLOs (the fast- and
//! slow-window burn conjoined with `and`) are all written in that one
//! language — see [`query_pack`].
//!
//! Every rule runs a four-state machine:
//!
//! ```text
//! inactive ──cond──▶ pending ──held `for_ticks`──▶ firing
//!    ▲                  │cond clears                  │cond clears
//!    └──hold elapses── resolved ◀─────────────────────┘
//! ```
//!
//! Two invariants the property tests pin: **no path reaches `firing`
//! without passing `pending`** (even `for_ticks == 0` emits the
//! `pending` transition on the same tick), and a `resolved` alert
//! **re-fires through `pending` again**, never directly.
//!
//! Transitions mirror to the structured event log (`alert` target) and to
//! `commgraph_alert_transitions_total{rule,state}`; the current firing
//! count is `commgraph_alert_firing_entries`; evaluation cost is
//! `commgraph_alert_eval_seconds`.
//!
//! SLO burn rates are published separately, as `slo:<name>:burn<window>`
//! recording rules ([`slo_rules`]) that `/slo` serves; the engine itself
//! knows nothing of SLOs.
//!
//! Determinism: evaluation consumes only store contents and the logical
//! tick. Rules over deterministic series (record counts, watermarks, roll
//! lag) therefore produce bit-identical transition sequences across runs —
//! the contract `tests/alerting.rs` asserts over real HTTP.

use crate::query::{Expr, ParseError, RecordingRule};
use crate::tsdb::Tsdb;
use crate::{Counter, Gauge, Histogram, Level, Obs};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Transitions retained for `/alerts` history, oldest dropped first.
const HISTORY_CAP: usize = 1024;

/// Lifecycle state of one alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Expression false, nothing pending.
    Inactive,
    /// Expression true, but not yet held for the rule's `for_ticks`.
    Pending,
    /// Expression held true long enough; the alert is active.
    Firing,
    /// Expression cleared after firing; decays to inactive after a hold.
    Resolved,
}

impl AlertState {
    /// Stable lowercase name (JSON output and metric label values).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One declarative alert rule: a named query expression plus its hold and
/// severity.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Unique rule name (label value on transition metrics).
    pub name: String,
    /// The source expression (kept for display).
    pub src: String,
    /// The parsed expression evaluated each tick.
    pub expr: Expr,
    /// Consecutive-tick hold in `pending` before firing. `0` fires on the
    /// same tick the condition turns true — still via `pending`.
    pub for_ticks: u64,
    /// Severity tag carried into events and JSON (`page`, `ticket`, ...).
    pub severity: String,
}

impl AlertRule {
    /// A rule on a query-engine expression, with severity `page` and no
    /// pending hold.
    pub fn query(name: &str, src: &str) -> Result<Self, ParseError> {
        Ok(AlertRule {
            name: name.to_string(),
            src: src.to_string(),
            expr: crate::query::parse(src)?,
            for_ticks: 0,
            severity: "page".to_string(),
        })
    }

    /// Override the pending hold (builder style).
    pub fn with_for_ticks(mut self, for_ticks: u64) -> Self {
        self.for_ticks = for_ticks;
        self
    }

    /// Override the severity tag (builder style).
    pub fn with_severity(mut self, severity: &str) -> Self {
        self.severity = severity.to_string();
        self
    }
}

/// One state-machine transition, as mirrored to the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Tick the transition happened on.
    pub tick: u64,
    /// Rule name.
    pub rule: String,
    /// State left.
    pub from: AlertState,
    /// State entered.
    pub to: AlertState,
    /// The first value of the expression result at this evaluation (the
    /// scalar, or the first sample of a non-empty vector).
    pub value: Option<f64>,
}

/// Point-in-time status of one rule (what `/alerts` serves).
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Severity tag.
    pub severity: String,
    /// Current state.
    pub state: AlertState,
    /// Tick the current state was entered (0 before any transition).
    pub since_tick: u64,
    /// First value of the expression result at the last evaluation.
    pub value: Option<f64>,
}

#[derive(Debug)]
struct RuleState {
    state: AlertState,
    since_tick: u64,
    pending_since: u64,
    value: Option<f64>,
}

#[derive(Debug)]
struct EngineInner {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    history: VecDeque<Transition>,
    last_tick: u64,
}

/// Evaluates a rule set against a [`Tsdb`] once per tick. Interior-mutable:
/// share it as `Arc<AlertEngine>` between the tick driver and the
/// introspection server.
#[derive(Debug)]
pub struct AlertEngine {
    inner: Mutex<EngineInner>,
    obs: Obs,
    firing_gauge: Gauge,
    eval_seconds: Histogram,
    /// Ticks a resolved alert lingers before decaying to inactive.
    resolved_hold: u64,
}

impl AlertEngine {
    /// An empty engine reporting through `obs` (transition counters, firing
    /// gauge, eval histogram, event log).
    pub fn new(obs: Obs) -> AlertEngine {
        let firing_gauge = obs.gauge(
            "commgraph_alert_firing_entries",
            "Alert rules currently in the firing state.",
            &[],
        );
        let eval_seconds = obs.histogram(
            "commgraph_alert_eval_seconds",
            "Wall-clock seconds per alert-rule evaluation pass.",
            &[],
        );
        AlertEngine {
            inner: Mutex::new(EngineInner {
                rules: Vec::new(),
                states: Vec::new(),
                history: VecDeque::new(),
                last_tick: 0,
            }),
            obs,
            firing_gauge,
            eval_seconds,
            resolved_hold: 1,
        }
    }

    /// Install one rule. Its transition counters are registered eagerly (at
    /// zero) so one scrape shows the family even before any transition.
    pub fn add_rule(&self, rule: AlertRule) {
        for state in
            [AlertState::Inactive, AlertState::Pending, AlertState::Firing, AlertState::Resolved]
        {
            self.transition_counter(&rule.name, state);
        }
        let mut inner = self.lock();
        inner.rules.push(rule);
        inner.states.push(RuleState {
            state: AlertState::Inactive,
            since_tick: 0,
            pending_since: 0,
            value: None,
        });
    }

    /// Install a whole rule pack.
    pub fn add_rules(&self, rules: impl IntoIterator<Item = AlertRule>) {
        for rule in rules {
            self.add_rule(rule);
        }
    }

    /// Installed rule count.
    pub fn rule_count(&self) -> usize {
        self.lock().rules.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn transition_counter(&self, rule: &str, state: AlertState) -> Counter {
        self.obs.counter(
            "commgraph_alert_transitions_total",
            "Alert state-machine transitions, by rule and entered state.",
            &[("rule", rule), ("state", state.as_str())],
        )
    }

    /// Evaluate every rule at `tick` against `store`, returning the
    /// transitions this pass produced (in rule-installation order). An
    /// expression that fails to evaluate reads as false. Each transition is
    /// mirrored to the event log and counted on
    /// `commgraph_alert_transitions_total`.
    pub fn evaluate(&self, tick: u64, store: &Tsdb) -> Vec<Transition> {
        // lint:allow(clock-hygiene) self-timing of the evaluate pass; rule state depends only on the injected tick
        let t0 = std::time::Instant::now();
        let mut transitions = Vec::new();
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.last_tick = tick;
        for (rule, rs) in inner.rules.iter().zip(inner.states.iter_mut()) {
            let (cond, value) = match crate::query::eval(store, &rule.expr, tick) {
                Ok(v) => (v.is_truthy(), v.first_value()),
                Err(_) => (false, None),
            };
            rs.value = value;
            let mut go = |rs: &mut RuleState, to: AlertState| {
                let from = rs.state;
                rs.state = to;
                rs.since_tick = tick;
                transitions.push(Transition { tick, rule: rule.name.clone(), from, to, value });
            };
            if cond {
                match rs.state {
                    AlertState::Inactive | AlertState::Resolved => {
                        go(rs, AlertState::Pending);
                        rs.pending_since = tick;
                        if rule.for_ticks == 0 {
                            go(rs, AlertState::Firing);
                        }
                    }
                    AlertState::Pending => {
                        if tick.saturating_sub(rs.pending_since) >= rule.for_ticks {
                            go(rs, AlertState::Firing);
                        }
                    }
                    AlertState::Firing => {}
                }
            } else {
                match rs.state {
                    AlertState::Pending => go(rs, AlertState::Inactive),
                    AlertState::Firing => go(rs, AlertState::Resolved),
                    AlertState::Resolved => {
                        if tick.saturating_sub(rs.since_tick) >= self.resolved_hold {
                            go(rs, AlertState::Inactive);
                        }
                    }
                    AlertState::Inactive => {}
                }
            }
        }
        let firing = inner.states.iter().filter(|s| s.state == AlertState::Firing).count();
        for t in &transitions {
            if inner.history.len() >= HISTORY_CAP {
                inner.history.pop_front();
            }
            inner.history.push_back(t.clone());
        }
        drop(guard);
        for t in &transitions {
            self.transition_counter(&t.rule, t.to).inc();
            let level = if t.to == AlertState::Firing { Level::Warn } else { Level::Info };
            self.obs.event(
                level,
                "alert",
                &format!("alert {} {} -> {}", t.rule, t.from.as_str(), t.to.as_str()),
                &[
                    ("tick", t.tick.to_string()),
                    ("value", t.value.map_or_else(|| "none".to_string(), |v| v.to_string())),
                ],
            );
        }
        self.firing_gauge.set(firing as f64);
        self.eval_seconds.record(t0.elapsed().as_secs_f64());
        transitions
    }

    /// Current status of every rule, in installation order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        let inner = self.lock();
        inner
            .rules
            .iter()
            .zip(inner.states.iter())
            .map(|(rule, rs)| AlertStatus {
                rule: rule.name.clone(),
                severity: rule.severity.clone(),
                state: rs.state,
                since_tick: rs.since_tick,
                value: rs.value,
            })
            .collect()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> Vec<AlertStatus> {
        self.statuses().into_iter().filter(|s| s.state == AlertState::Firing).collect()
    }

    /// The retained transition history, oldest first.
    pub fn history(&self) -> Vec<Transition> {
        self.lock().history.iter().cloned().collect()
    }

    /// The `/alerts` document: current statuses plus the transition
    /// history, keyed entirely by logical ticks (no wall-clock timestamps),
    /// so deterministic runs serve bit-identical bytes.
    pub fn alerts_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"tick\":");
        out.push_str(&inner.last_tick.to_string());
        out.push_str(",\"alerts\":[");
        for (i, (rule, rs)) in inner.rules.iter().zip(inner.states.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            out.push_str(&crate::export::json_str(&rule.name));
            out.push_str(",\"severity\":");
            out.push_str(&crate::export::json_str(&rule.severity));
            out.push_str(",\"state\":\"");
            out.push_str(rs.state.as_str());
            out.push_str("\",\"since_tick\":");
            out.push_str(&rs.since_tick.to_string());
            out.push_str(",\"value\":");
            out.push_str(&rs.value.map_or_else(|| "null".to_string(), crate::export::json_f64));
            out.push('}');
        }
        out.push_str("],\"transitions\":[");
        for (i, t) in inner.history.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tick\":");
            out.push_str(&t.tick.to_string());
            out.push_str(",\"rule\":");
            out.push_str(&crate::export::json_str(&t.rule));
            out.push_str(",\"from\":\"");
            out.push_str(t.from.as_str());
            out.push_str("\",\"to\":\"");
            out.push_str(t.to.as_str());
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

/// The burn rate over the last `w` ticks of an error-budget SLO with a
/// fixed expected event rate per tick: the fraction of the budget consumed
/// per unit of budget, `(max(Δbad, 0) / (rate · min(w, max(tick, 1)))) /
/// budget` — 1.0 is exactly on budget.
fn burn_per_tick(bad: &str, rate: f64, budget: f64, w: u64) -> String {
    format!("clamp_min(increase({bad}[{w}]), 0) / ({rate} * min({w}, max(tick(), 1))) / {budget}")
}

/// A dual-window burn condition for a fixed-per-tick denominator: the burn
/// exceeds `factor` over **both** the fast window `f` (detection speed) and
/// the slow window `s` (rejects blips). The budget is embedded
/// pre-computed (`1 - objective` in f64).
fn burn_per_tick_expr(bad: &str, rate: f64, budget: f64, factor: f64, f: u64, s: u64) -> String {
    let win = |w: u64| format!("({} > {factor})", burn_per_tick(bad, rate, budget, w));
    format!("{} and {}", win(f), win(s))
}

/// A dual-window burn condition for a cumulative-total denominator. The
/// extra `increase(total) > 0` conjunct makes "no traffic" read as zero
/// burn, which a bare division would turn into ±∞.
fn burn_series_expr(bad: &str, total: &str, budget: f64, factor: f64, f: u64, s: u64) -> String {
    let win = |w: u64| {
        format!(
            "(clamp_min(increase({bad}[{w}]), 0) / increase({total}[{w}]) / {budget} > {factor} \
             and increase({total}[{w}]) > 0)"
        )
    };
    format!("{} and {}", win(f), win(s))
}

/// Bad-event counter of the freshness SLO (late records).
const FRESHNESS_BAD: &str = "commgraph_pipeline_late_records_total";
/// Freshness SLO objective: 99 % of the expected records arrive on time.
const FRESHNESS_OBJECTIVE: f64 = 0.99;
/// Fast and slow burn windows, in ticks, of every burn rule.
const BURN_WINDOWS: (u64, u64) = (2, 8);

/// The default streaming-health alert pack, sized by the expected record
/// rate per tick (one tick = one rolled window under the deterministic-tick
/// contract). Every condition is a [`crate::query`] expression:
///
/// * `window_roll_lag_high` — pipeline roll lag max above 600 s for 2 ticks.
/// * `late_records_burn` — dual-window burn over a 99 % freshness SLO
///   (late records vs `expected_records_per_tick`).
/// * `dedup_drops_burn` — dual-window burn over the engine's dedup-drop
///   budget (drops vs offered records; objective 0.2 tolerates the routine
///   multi-vantage duplication).
/// * `incremental_savings_stalled` — no warm-window savings sample for 4
///   ticks while the pipeline runs incrementally (severity `ticket`).
/// * `tsdb_scrape_stalled` — the scraper itself stopped appending
///   (severity `ticket`).
///
/// `tests/alerting.rs` pins the pack's transition sequence on a real
/// workload against a golden recorded from the retired hard-coded
/// evaluator. Returns `Err` only if a template expression fails to parse,
/// which the unit tests rule out.
pub fn query_pack(expected_records_per_tick: f64) -> Result<Vec<AlertRule>, ParseError> {
    let rate = expected_records_per_tick.max(1.0);
    let (fast, slow) = BURN_WINDOWS;
    Ok(vec![
        AlertRule::query(
            "window_roll_lag_high",
            "commgraph_window_roll_lag_seconds{source=\"pipeline\",field=\"max\"} > 600",
        )?
        .with_for_ticks(2),
        AlertRule::query(
            "late_records_burn",
            &burn_per_tick_expr(FRESHNESS_BAD, rate, 1.0 - FRESHNESS_OBJECTIVE, 1.0, fast, slow),
        )?,
        AlertRule::query(
            "dedup_drops_burn",
            &burn_series_expr(
                "commgraph_engine_dropped_records_total",
                "commgraph_engine_records_in_total",
                1.0 - 0.2,
                1.0,
                fast,
                slow,
            ),
        )?,
        AlertRule::query(
            "incremental_savings_stalled",
            "absent_over_time(commgraph_incremental_savings_seconds{field=\"count\"}[4])",
        )?
        .with_severity("ticket"),
        AlertRule::query(
            "tsdb_scrape_stalled",
            "absent_over_time(commgraph_tsdb_samples_total[2])",
        )?
        .with_severity("ticket"),
    ])
}

/// Recording rules publishing the freshness-SLO burn that
/// [`query_pack`]'s `late_records_burn` alerts on, over its fast and slow
/// windows, as `slo:freshness:burn2` and `slo:freshness:burn8` — the
/// `slo:<name>:burn<window>` series `/slo` serves. Install them with
/// [`crate::tsdb::Scraper::add_recording_rules`].
pub fn slo_rules(expected_records_per_tick: f64) -> Result<Vec<RecordingRule>, ParseError> {
    let rate = expected_records_per_tick.max(1.0);
    let (fast, slow) = BURN_WINDOWS;
    [fast, slow]
        .into_iter()
        .map(|w| {
            RecordingRule::new(
                &format!("slo:freshness:burn{w}"),
                &burn_per_tick(FRESHNESS_BAD, rate, 1.0 - FRESHNESS_OBJECTIVE, w),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::SeriesKey;
    use crate::Registry;
    use std::sync::Arc;

    fn store_with(points: &[(u64, f64)]) -> Tsdb {
        let db = Tsdb::default();
        for (t, v) in points {
            db.append(SeriesKey::value("sig_total", &[]), *t, *v);
        }
        db
    }

    fn rule(name: &str, src: &str, for_ticks: u64) -> AlertRule {
        AlertRule::query(name, src).expect("test expression parses").with_for_ticks(for_ticks)
    }

    fn seq(engine: &AlertEngine, db: &Tsdb, ticks: std::ops::RangeInclusive<u64>) -> Vec<String> {
        let mut out = Vec::new();
        for tick in ticks {
            for t in engine.evaluate(tick, db) {
                out.push(format!("{}:{}->{}", t.tick, t.from.as_str(), t.to.as_str()));
            }
        }
        out
    }

    #[test]
    fn threshold_lifecycle_passes_through_every_state() {
        let db = store_with(&[(1, 0.0), (2, 9.0), (3, 9.0), (4, 9.0), (5, 0.0), (6, 0.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("hot", "sig_total > 5", 1));
        let trace = seq(&engine, &db, 1..=7);
        assert_eq!(
            trace,
            vec![
                "2:inactive->pending",
                "3:pending->firing",
                "5:firing->resolved",
                "6:resolved->inactive",
            ],
        );
    }

    #[test]
    fn zero_hold_still_passes_through_pending_on_the_same_tick() {
        let db = store_with(&[(1, 9.0), (2, 0.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("instant", "sig_total > 5", 0));
        let trace = seq(&engine, &db, 1..=1);
        assert_eq!(trace, vec!["1:inactive->pending", "1:pending->firing"]);
    }

    #[test]
    fn resolved_alerts_refire_through_pending() {
        let db = store_with(&[(1, 9.0), (2, 0.0), (3, 9.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("flappy", "sig_total > 5", 0));
        let trace = seq(&engine, &db, 1..=3);
        assert_eq!(
            trace,
            vec![
                "1:inactive->pending",
                "1:pending->firing",
                "2:firing->resolved",
                "3:resolved->pending",
                "3:pending->firing",
            ],
        );
    }

    #[test]
    fn pending_clears_without_firing_on_a_blip() {
        let db = store_with(&[(1, 9.0), (2, 0.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("blip", "sig_total > 5", 3));
        let trace = seq(&engine, &db, 1..=2);
        assert_eq!(trace, vec!["1:inactive->pending", "2:pending->inactive"]);
    }

    #[test]
    fn absence_fires_on_missing_and_stale_series() {
        let db = Tsdb::default();
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("gone", "absent_over_time(sig_total[2])", 0));
        let t = engine.evaluate(1, &db);
        assert_eq!(t.last().map(|t| t.to), Some(AlertState::Firing), "missing series is absent");

        db.append(SeriesKey::value("sig_total", &[]), 2, 1.0);
        let t = engine.evaluate(2, &db);
        assert_eq!(t.last().map(|t| t.to), Some(AlertState::Resolved), "fresh sample resolves");
        // Ticks 3..=4 are within tolerance; tick 5 is 3 ticks stale.
        assert!(engine.evaluate(4, &db).iter().all(|t| t.to != AlertState::Pending));
        let t = engine.evaluate(5, &db);
        assert!(t.iter().any(|t| t.to == AlertState::Firing), "stale series re-fires: {t:?}");
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        // Bad counter burns 30 of a 100-per-tick budget in ticks 4..6 —
        // fast window 2 burns 3.0, slow window 5 burns 1.2 (the numbers
        // themselves are pinned in `query::tests`).
        let db = Tsdb::default();
        for (t, v) in [(1u64, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 30.0), (6, 60.0)] {
            db.append(SeriesKey::value("bad_total", &[]), t, v);
        }
        let burn = |factor: f64| burn_per_tick_expr("bad_total", 100.0, 1.0 - 0.9, factor, 2, 5);

        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("burn", &burn(1.3), 0));
        assert!(engine.evaluate(6, &db).is_empty(), "slow window 1.2 < factor 1.3 rejects");

        let engine2 = AlertEngine::new(Obs::noop());
        engine2.add_rule(rule("burn", &burn(1.1), 0));
        let t = engine2.evaluate(6, &db);
        assert!(t.iter().any(|t| t.to == AlertState::Firing), "both windows above 1.1: {t:?}");
        let fast = t[0].value.expect("firing burn carries its fast-window value");
        assert!((fast - 3.0).abs() < 1e-12, "{fast}");
    }

    #[test]
    fn transitions_mirror_to_metrics_and_events() {
        let registry = Arc::new(Registry::new());
        let o = Obs::new(registry.clone());
        let db = store_with(&[(1, 9.0)]);
        let engine = AlertEngine::new(o);
        engine.add_rule(rule("hot", "sig_total > 5", 0));
        engine.evaluate(1, &db);
        let pending = registry
            .counter(
                "commgraph_alert_transitions_total",
                "",
                &[("rule", "hot"), ("state", "pending")],
            )
            .get();
        let firing = registry
            .counter(
                "commgraph_alert_transitions_total",
                "",
                &[("rule", "hot"), ("state", "firing")],
            )
            .get();
        assert_eq!((pending, firing), (1, 1));
        assert_eq!(registry.gauge("commgraph_alert_firing_entries", "", &[]).get(), 1.0);
        assert!(registry.histogram("commgraph_alert_eval_seconds", "", &[]).count() >= 1);
        let events = registry.events();
        assert!(
            events.iter().any(|e| e.target == "alert"
                && e.level == Level::Warn
                && e.message.contains("pending -> firing")),
            "{events:?}"
        );
    }

    #[test]
    fn alerts_json_is_tick_keyed() {
        let db = store_with(&[(1, 9.0)]);
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rule(rule("hot", "sig_total > 5", 0));
        engine.evaluate(1, &db);
        let json = engine.alerts_json();
        assert!(json.starts_with("{\"tick\":1,\"alerts\":["), "{json}");
        assert!(
            json.contains("\"rule\":\"hot\",\"severity\":\"page\",\"state\":\"firing\""),
            "{json}"
        );
        assert!(
            json.contains("{\"tick\":1,\"rule\":\"hot\",\"from\":\"inactive\",\"to\":\"pending\"}"),
            "{json}"
        );
    }

    #[test]
    fn query_pack_installs_and_evaluates_clean_on_an_empty_store() {
        let pack = query_pack(1000.0).expect("pack templates parse");
        let shape: Vec<(&str, u64, &str)> =
            pack.iter().map(|r| (r.name.as_str(), r.for_ticks, r.severity.as_str())).collect();
        assert_eq!(
            shape,
            vec![
                ("window_roll_lag_high", 2, "page"),
                ("late_records_burn", 0, "page"),
                ("dedup_drops_burn", 0, "page"),
                ("incremental_savings_stalled", 0, "ticket"),
                ("tsdb_scrape_stalled", 0, "ticket"),
            ]
        );
        let engine = AlertEngine::new(Obs::noop());
        engine.add_rules(pack);
        assert_eq!(engine.rule_count(), 5);
        let db = Tsdb::default();
        // Absence rules fire on a silent store; that is their contract.
        let transitions = engine.evaluate(1, &db);
        assert!(transitions.iter().all(|t| t.rule.ends_with("_stalled")), "{transitions:?}");
        assert_eq!(transitions.len(), 4, "both absence rules pend and fire on tick 1");
    }

    #[test]
    fn slo_rules_record_the_burn_the_pack_alerts_on() {
        let db = Tsdb::default();
        for (t, v) in [(1u64, 0.0), (2, 0.0), (3, 10.0), (4, 30.0)] {
            db.append(SeriesKey::value(FRESHNESS_BAD, &[]), t, v);
        }
        let rules = slo_rules(1000.0).expect("slo templates parse");
        let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        assert_eq!(names, vec!["slo:freshness:burn2", "slo:freshness:burn8"]);
        for r in &rules {
            assert_eq!(r.record(&db, 4), Ok(1));
        }
        // Fast window: Δbad = 30 over 2 × 1000 expected → 0.015 / 0.01.
        let fast = crate::query::eval(&db, &crate::query::parse("slo:freshness:burn2").unwrap(), 4);
        let fast = fast.unwrap().first_value().unwrap();
        assert!((fast - 1.5).abs() < 1e-9, "{fast}");
    }
}
