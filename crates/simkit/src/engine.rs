//! The discrete-event engine: builds the task DAG and executes it over the
//! registered links and resources.

use crate::error::SimError;
use crate::task::{
    ComputeSpec, DelaySpec, FlowSpec, LinkId, PhaseId, ResourceId, Task, TaskId, TaskKind,
};
use crate::timeline::{TaskRecord, Timeline};
use crate::TIME_EPS;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct Link {
    #[allow(dead_code)]
    name: String,
    bandwidth: f64,
}

#[derive(Debug, Clone)]
struct Resource {
    #[allow(dead_code)]
    name: String,
    rate: f64,
}

/// State of one task during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Waiting for dependencies.
    Pending,
    /// Dependencies satisfied; waiting in a resource queue (compute only).
    Queued,
    /// Currently progressing.
    Active,
    /// Finished.
    Done,
}

/// A discrete-event simulation: links, resources, phases and a task DAG.
///
/// Malformed graphs — non-positive link bandwidths, unknown dependency or
/// link or resource ids, negative work amounts — do not panic. The first
/// such error *poisons* the simulation and is returned by
/// [`Simulation::run`]; the builder methods stay infallible so that id
/// allocation remains consistent even after an error.
///
/// See the [crate-level documentation](crate) for an overview and an example.
#[derive(Debug, Default)]
pub struct Simulation {
    links: Vec<Link>,
    resources: Vec<Resource>,
    phases: Vec<String>,
    tasks: Vec<Task>,
    poison: Option<SimError>,
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    fn poison(&mut self, err: SimError) {
        if self.poison.is_none() {
            self.poison = Some(err);
        }
    }

    /// Registers a shared link with the given bandwidth in bytes per second.
    ///
    /// A non-positive or non-finite bandwidth poisons the simulation; the
    /// error is reported by [`Simulation::run`].
    pub fn add_link(&mut self, name: impl Into<String>, bandwidth: f64) -> LinkId {
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            self.poison(SimError::InvalidParameter {
                message: format!("link bandwidth must be positive and finite, got {bandwidth}"),
            });
        }
        self.links.push(Link { name: name.into(), bandwidth });
        LinkId(self.links.len() - 1)
    }

    /// Registers a serial compute resource with the given processing rate
    /// (work units per second).
    ///
    /// A non-positive or non-finite rate poisons the simulation; the error
    /// is reported by [`Simulation::run`].
    pub fn add_resource(&mut self, name: impl Into<String>, rate: f64) -> ResourceId {
        if !(rate.is_finite() && rate > 0.0) {
            self.poison(SimError::InvalidParameter {
                message: format!("resource rate must be positive and finite, got {rate}"),
            });
        }
        self.resources.push(Resource { name: name.into(), rate });
        ResourceId(self.resources.len() - 1)
    }

    /// Registers a named phase used for breakdown reporting.
    pub fn add_phase(&mut self, name: impl Into<String>) -> PhaseId {
        self.phases.push(name.into());
        PhaseId(self.phases.len() - 1)
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of links registered so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Bandwidth of a link in bytes per second.
    pub fn link_bandwidth(&self, link: LinkId) -> f64 {
        self.links[link.0].bandwidth
    }

    /// The label attached to a task, if any (useful when debugging schedules).
    pub fn task_label(&self, task: TaskId) -> Option<&str> {
        self.tasks.get(task).and_then(|t| t.label.as_deref())
    }

    /// Adds a flow task (bytes over a path of shared links).
    ///
    /// Referencing an unknown link or dependency, or a negative byte count,
    /// poisons the simulation; the error is reported by [`Simulation::run`].
    pub fn flow(&mut self, spec: FlowSpec) -> TaskId {
        if !(spec.bytes >= 0.0 && spec.bytes.is_finite()) {
            self.poison(SimError::InvalidParameter {
                message: format!("flow bytes must be non-negative, got {}", spec.bytes),
            });
        }
        for l in &spec.path {
            if l.0 >= self.links.len() {
                self.poison(SimError::UnknownId { kind: "link", index: l.0 });
            }
        }
        self.validate_deps(&spec.deps);
        self.push(Task {
            kind: TaskKind::Flow { path: spec.path, bytes: spec.bytes },
            deps: spec.deps,
            phase: spec.phase,
            label: spec.label,
        })
    }

    /// Adds a compute task (work units on a serial resource).
    ///
    /// Referencing an unknown resource or dependency, or a negative work
    /// amount, poisons the simulation; the error is reported by
    /// [`Simulation::run`].
    pub fn compute(&mut self, spec: ComputeSpec) -> TaskId {
        if !(spec.work >= 0.0 && spec.work.is_finite()) {
            self.poison(SimError::InvalidParameter {
                message: format!("compute work must be non-negative, got {}", spec.work),
            });
        }
        if spec.resource.0 >= self.resources.len() {
            self.poison(SimError::UnknownId { kind: "resource", index: spec.resource.0 });
        }
        self.validate_deps(&spec.deps);
        self.push(Task {
            kind: TaskKind::Compute { resource: spec.resource, work: spec.work },
            deps: spec.deps,
            phase: spec.phase,
            label: spec.label,
        })
    }

    /// Adds a fixed delay task.
    ///
    /// A negative delay or unknown dependency poisons the simulation; the
    /// error is reported by [`Simulation::run`].
    pub fn delay(&mut self, spec: DelaySpec) -> TaskId {
        if !(spec.seconds >= 0.0 && spec.seconds.is_finite()) {
            self.poison(SimError::InvalidParameter {
                message: format!("delay must be non-negative, got {}", spec.seconds),
            });
        }
        self.validate_deps(&spec.deps);
        self.push(Task {
            kind: TaskKind::Delay { seconds: spec.seconds },
            deps: spec.deps,
            phase: spec.phase,
            label: spec.label,
        })
    }

    /// Adds a zero-duration barrier that completes when all `deps` have completed.
    ///
    /// An unknown dependency id poisons the simulation; the error is
    /// reported by [`Simulation::run`].
    pub fn barrier(&mut self, deps: &[TaskId]) -> TaskId {
        self.validate_deps(deps);
        self.push(Task { kind: TaskKind::Barrier, deps: deps.to_vec(), phase: None, label: None })
    }

    /// Adds an extra dependency edge `dependency -> task` after both tasks
    /// have been created.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] if either id is out of range. Cycles
    /// created this way are detected when [`Simulation::run`] executes.
    pub fn add_dependency(&mut self, task: TaskId, dependency: TaskId) -> Result<(), SimError> {
        if task >= self.tasks.len() {
            return Err(SimError::UnknownId { kind: "task", index: task });
        }
        if dependency >= self.tasks.len() {
            return Err(SimError::UnknownId { kind: "task", index: dependency });
        }
        self.tasks[task].deps.push(dependency);
        Ok(())
    }

    fn validate_deps(&mut self, deps: &[TaskId]) {
        for &d in deps {
            if d >= self.tasks.len() {
                self.poison(SimError::UnknownId { kind: "task", index: d });
            }
        }
    }

    fn push(&mut self, task: Task) -> TaskId {
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    /// Executes the task DAG and returns the resulting timeline.
    ///
    /// # Errors
    ///
    /// Returns the first error recorded while building the graph (an
    /// [`SimError::InvalidParameter`] or [`SimError::UnknownId`]), or
    /// [`SimError::DependencyCycle`] if some tasks can never become ready
    /// (their dependencies form a cycle).
    pub fn run(&mut self) -> Result<Timeline, SimError> {
        if let Some(err) = &self.poison {
            return Err(err.clone());
        }
        Runner::new(self).run()
    }
}

/// Remaining-work bookkeeping for one task during execution.
#[derive(Debug, Clone)]
struct Progress {
    state: TaskState,
    remaining: f64,
    unmet_deps: usize,
    start: f64,
    finish: f64,
}

struct Runner<'a> {
    sim: &'a Simulation,
    progress: Vec<Progress>,
    dependents: Vec<Vec<TaskId>>,
    queues: Vec<VecDeque<TaskId>>,
    active_flows: Vec<TaskId>,
    active_compute: Vec<TaskId>,
    active_delays: Vec<TaskId>,
    now: f64,
    done: usize,
}

impl<'a> Runner<'a> {
    fn new(sim: &'a Simulation) -> Self {
        let n = sim.tasks.len();
        let mut dependents = vec![Vec::new(); n];
        let mut progress = Vec::with_capacity(n);
        for (id, task) in sim.tasks.iter().enumerate() {
            for &d in &task.deps {
                dependents[d].push(id);
            }
            let remaining = match &task.kind {
                TaskKind::Flow { bytes, .. } => *bytes,
                TaskKind::Compute { work, .. } => *work,
                TaskKind::Delay { seconds } => *seconds,
                TaskKind::Barrier => 0.0,
            };
            progress.push(Progress {
                state: TaskState::Pending,
                remaining,
                unmet_deps: task.deps.len(),
                start: 0.0,
                finish: 0.0,
            });
        }
        Self {
            sim,
            progress,
            dependents,
            queues: vec![VecDeque::new(); sim.resources.len()],
            active_flows: Vec::new(),
            active_compute: Vec::new(),
            active_delays: Vec::new(),
            now: 0.0,
            done: 0,
        }
    }

    fn run(mut self) -> Result<Timeline, SimError> {
        // Start every task with no dependencies.
        let mut newly_ready: VecDeque<TaskId> =
            (0..self.sim.tasks.len()).filter(|&id| self.progress[id].unmet_deps == 0).collect();
        loop {
            // Make ready tasks runnable (may complete zero-work tasks immediately).
            while let Some(id) = newly_ready.pop_front() {
                let completed = self.activate(id);
                for c in completed {
                    newly_ready.extend(self.complete(c));
                }
            }
            if self.done == self.sim.tasks.len() {
                break;
            }
            // Compute rates, find the next completion, advance time.
            let step = self.next_step();
            let Some(dt) = step else {
                // Running tasks that cannot finish are a stall; with nothing
                // running, the pending tasks wait on each other.
                let running: Vec<TaskId> =
                    [&self.active_flows, &self.active_compute, &self.active_delays]
                        .into_iter()
                        .flatten()
                        .copied()
                        .collect();
                if !running.is_empty() {
                    return Err(SimError::Stalled { running_tasks: running });
                }
                let stuck: Vec<usize> = self
                    .progress
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.state != TaskState::Done)
                    .map(|(i, _)| i)
                    .collect();
                return Err(SimError::DependencyCycle { stuck_tasks: stuck });
            };
            self.advance(dt, &mut newly_ready);
        }
        let records = self
            .progress
            .iter()
            .zip(self.sim.tasks.iter())
            .map(|(p, t)| TaskRecord { start: p.start, finish: p.finish, phase: t.phase })
            .collect();
        // Per-link flow membership, so the timeline can answer stage-level
        // occupancy queries (which flows kept a link busy, and when).
        let mut link_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); self.sim.links.len()];
        for (id, task) in self.sim.tasks.iter().enumerate() {
            if let TaskKind::Flow { path, bytes } = &task.kind {
                if *bytes > 0.0 {
                    for l in path {
                        link_tasks[l.0].push(id);
                    }
                }
            }
        }
        Ok(Timeline::new(records, self.now, self.sim.phases.clone(), link_tasks))
    }

    /// Moves a ready task into the running state. Returns tasks that complete
    /// instantly (barriers, zero-byte flows, zero-work computes).
    fn activate(&mut self, id: TaskId) -> Vec<TaskId> {
        let task = &self.sim.tasks[id];
        self.progress[id].start = self.now;
        match &task.kind {
            TaskKind::Barrier => {
                return vec![id];
            }
            TaskKind::Flow { bytes, .. } => {
                if *bytes <= 0.0 {
                    return vec![id];
                }
                self.progress[id].state = TaskState::Active;
                self.active_flows.push(id);
            }
            TaskKind::Delay { seconds } => {
                if *seconds <= 0.0 {
                    return vec![id];
                }
                self.progress[id].state = TaskState::Active;
                self.active_delays.push(id);
            }
            TaskKind::Compute { resource, work } => {
                if *work <= 0.0 {
                    return vec![id];
                }
                self.progress[id].state = TaskState::Queued;
                let q = &mut self.queues[resource.0];
                q.push_back(id);
                // Head of queue becomes active.
                if q.len() == 1 {
                    self.progress[id].state = TaskState::Active;
                    self.active_compute.push(id);
                }
            }
        }
        Vec::new()
    }

    /// Marks a task done and returns the dependents that became ready.
    fn complete(&mut self, id: TaskId) -> Vec<TaskId> {
        self.progress[id].state = TaskState::Done;
        self.progress[id].finish = self.now;
        self.done += 1;
        // If it was a compute task, promote the next task in the queue.
        if let TaskKind::Compute { resource, .. } = &self.sim.tasks[id].kind {
            let q = &mut self.queues[resource.0];
            if q.front() == Some(&id) {
                q.pop_front();
            } else {
                q.retain(|&t| t != id);
            }
            if let Some(&next) = q.front() {
                if self.progress[next].state == TaskState::Queued {
                    self.progress[next].state = TaskState::Active;
                    self.progress[next].start = self.now;
                    self.active_compute.push(next);
                }
            }
        }
        let mut ready = Vec::new();
        for &dep in &self.dependents[id] {
            let p = &mut self.progress[dep];
            p.unmet_deps -= 1;
            if p.unmet_deps == 0 {
                ready.push(dep);
            }
        }
        ready
    }

    /// Max-min fair rate allocation for the currently active flows.
    fn flow_rates(&self) -> Vec<(TaskId, f64)> {
        let mut remaining_cap: Vec<f64> = self.sim.links.iter().map(|l| l.bandwidth).collect();
        let mut link_users: Vec<Vec<usize>> = vec![Vec::new(); self.sim.links.len()];
        // Index into active_flows.
        for (fi, &task) in self.active_flows.iter().enumerate() {
            if let TaskKind::Flow { path, .. } = &self.sim.tasks[task].kind {
                for l in path {
                    link_users[l.0].push(fi);
                }
            }
        }
        let n = self.active_flows.len();
        let mut rate = vec![f64::INFINITY; n];
        let mut frozen = vec![false; n];
        let mut unfrozen_on_link: Vec<usize> = link_users.iter().map(|users| users.len()).collect();
        loop {
            // Find the bottleneck link: smallest fair share among links with unfrozen users.
            let mut best: Option<(usize, f64)> = None;
            for (li, users) in link_users.iter().enumerate() {
                if users.is_empty() || unfrozen_on_link[li] == 0 {
                    continue;
                }
                let share = remaining_cap[li] / unfrozen_on_link[li] as f64;
                if best.map_or(true, |(_, s)| share < s) {
                    best = Some((li, share));
                }
            }
            let Some((bottleneck, share)) = best else { break };
            // Freeze every unfrozen flow on that link at the fair share.
            let users: Vec<usize> =
                link_users[bottleneck].iter().copied().filter(|&fi| !frozen[fi]).collect();
            for fi in users {
                frozen[fi] = true;
                rate[fi] = share;
                // Subtract its rate from every link it crosses.
                if let TaskKind::Flow { path, .. } = &self.sim.tasks[self.active_flows[fi]].kind {
                    for l in path {
                        remaining_cap[l.0] = (remaining_cap[l.0] - share).max(0.0);
                        unfrozen_on_link[l.0] = unfrozen_on_link[l.0].saturating_sub(1);
                    }
                }
            }
        }
        self.active_flows
            .iter()
            .enumerate()
            .map(|(fi, &task)| {
                let r = if rate[fi].is_finite() { rate[fi] } else { 0.0 };
                (task, r)
            })
            .collect()
    }

    /// Returns the time until the next task completion, or `None` if no
    /// active task has a finite completion time (nothing is active, or every
    /// active task's rate or remaining work is out of range).
    fn next_step(&self) -> Option<f64> {
        let mut dt = f64::INFINITY;
        for (task, rate) in self.flow_rates() {
            if rate > 0.0 {
                dt = dt.min(self.progress[task].remaining / rate);
            }
        }
        for &task in &self.active_compute {
            if let TaskKind::Compute { resource, .. } = &self.sim.tasks[task].kind {
                let rate = self.sim.resources[resource.0].rate;
                dt = dt.min(self.progress[task].remaining / rate);
            }
        }
        for &task in &self.active_delays {
            dt = dt.min(self.progress[task].remaining);
        }
        if dt.is_finite() {
            Some(dt)
        } else {
            None
        }
    }

    /// Advances virtual time by `dt`, decrements remaining work and collects
    /// completions into `newly_ready`.
    fn advance(&mut self, dt: f64, newly_ready: &mut VecDeque<TaskId>) {
        self.now += dt;
        let rates = self.flow_rates();
        let mut completed = Vec::new();
        for (task, rate) in rates {
            let p = &mut self.progress[task];
            p.remaining -= rate * dt;
            if p.remaining <= TIME_EPS * rate.max(1.0) {
                completed.push(task);
            }
        }
        for &task in &self.active_compute.clone() {
            if let TaskKind::Compute { resource, .. } = &self.sim.tasks[task].kind {
                let rate = self.sim.resources[resource.0].rate;
                let p = &mut self.progress[task];
                p.remaining -= rate * dt;
                if p.remaining <= TIME_EPS * rate.max(1.0) {
                    completed.push(task);
                }
            }
        }
        for &task in &self.active_delays.clone() {
            let p = &mut self.progress[task];
            p.remaining -= dt;
            if p.remaining <= TIME_EPS {
                completed.push(task);
            }
        }
        for task in &completed {
            self.active_flows.retain(|t| t != task);
            self.active_compute.retain(|t| t != task);
            self.active_delays.retain(|t| t != task);
        }
        for task in completed {
            newly_ready.extend(self.complete(task));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeSpec, FlowSpec};

    #[test]
    fn max_min_fairness_respects_bottleneck_links() {
        // Two links: A (10 B/s) and B (4 B/s). Flow 1 uses A only, flow 2 uses A+B.
        // Flow 2 is bottlenecked at 4 on B, flow 1 then takes the remaining 6 on A.
        let mut sim = Simulation::new();
        let a = sim.add_link("a", 10.0);
        let b = sim.add_link("b", 4.0);
        let f1 = sim.flow(FlowSpec::new(vec![a], 60.0));
        let f2 = sim.flow(FlowSpec::new(vec![a, b], 40.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(f1) - 10.0).abs() < 1e-6, "got {}", tl.finish_time(f1));
        assert!((tl.finish_time(f2) - 10.0).abs() < 1e-6, "got {}", tl.finish_time(f2));
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", 1.0);
        let f = sim.flow(FlowSpec::new(vec![l], 0.0));
        let tl = sim.run().unwrap();
        assert_eq!(tl.finish_time(f), 0.0);
    }

    #[test]
    fn compute_queue_promotes_in_fifo_order() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("fpga", 2.0);
        let a = sim.compute(ComputeSpec::new(r, 4.0));
        let b = sim.compute(ComputeSpec::new(r, 4.0));
        let c = sim.compute(ComputeSpec::new(r, 4.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(a) - 2.0).abs() < 1e-9);
        assert!((tl.finish_time(b) - 4.0).abs() < 1e-9);
        assert!((tl.finish_time(c) - 6.0).abs() < 1e-9);
        assert!(tl.start_time(b) >= tl.finish_time(a) - 1e-9);
    }

    #[test]
    fn flows_on_disjoint_links_do_not_interfere() {
        let mut sim = Simulation::new();
        let a = sim.add_link("a", 10.0);
        let b = sim.add_link("b", 10.0);
        let f1 = sim.flow(FlowSpec::new(vec![a], 100.0));
        let f2 = sim.flow(FlowSpec::new(vec![b], 100.0));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(f1) - 10.0).abs() < 1e-9);
        assert!((tl.finish_time(f2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_bandwidth_scales_with_parallel_links_until_shared_cap() {
        // Model of the RAID0 saturation effect: N private SSD links of 3 B/s
        // all funnel through one shared link of 10 B/s.
        let total_bytes = 300.0;
        let mut finish_times = Vec::new();
        for n in 1..=6usize {
            let mut sim = Simulation::new();
            let shared = sim.add_link("pcie", 10.0);
            let mut tasks = Vec::new();
            for i in 0..n {
                let ssd = sim.add_link(format!("ssd{i}"), 3.0);
                tasks.push(sim.flow(FlowSpec::new(vec![shared, ssd], total_bytes / n as f64)));
            }
            let tl = sim.run().unwrap();
            finish_times.push(tl.makespan());
        }
        // 1 SSD: 100s, 2: 50s, 3: 33.3s, 4+: capped by shared link at 30s.
        assert!((finish_times[0] - 100.0).abs() < 1e-6);
        assert!((finish_times[1] - 50.0).abs() < 1e-6);
        assert!((finish_times[3] - 30.0).abs() < 1e-6);
        assert!((finish_times[5] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn timeline_reports_link_occupancy_from_real_flows() {
        let mut sim = Simulation::new();
        let shared = sim.add_link("shared", 10.0);
        let private = sim.add_link("private", 10.0);
        let write = sim.add_phase("write");
        let readback = sim.add_phase("readback");
        let a = sim.flow(FlowSpec::new(vec![shared], 100.0).phase(write));
        let b = sim.flow(FlowSpec::new(vec![shared, private], 100.0).after(&[a]).phase(readback));
        // Zero-byte flows finish instantly and must not pollute occupancy.
        sim.flow(FlowSpec::new(vec![shared], 0.0).phase(write));
        let tl = sim.run().unwrap();
        assert!((tl.finish_time(b) - 20.0).abs() < 1e-9);
        assert!((tl.link_busy_time(shared) - 20.0).abs() < 1e-9);
        assert!((tl.link_busy_time_in_phase(shared, write) - 10.0).abs() < 1e-9);
        assert!((tl.link_busy_time_in_phase(shared, readback) - 10.0).abs() < 1e-9);
        assert!((tl.link_busy_time(private) - 10.0).abs() < 1e-9);
        assert_eq!(tl.link_busy_time_in_phase(private, write), 0.0);
    }

    #[test]
    fn task_labels_are_retrievable() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", 1.0);
        let a = sim.flow(FlowSpec::new(vec![l], 1.0).label("grad offload"));
        let b = sim.flow(FlowSpec::new(vec![l], 1.0));
        assert_eq!(sim.task_label(a), Some("grad offload"));
        assert_eq!(sim.task_label(b), None);
        assert_eq!(sim.task_label(999), None);
    }

    #[test]
    fn add_dependency_rejects_unknown_ids() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", 1.0);
        let a = sim.compute(ComputeSpec::new(r, 1.0));
        assert!(sim.add_dependency(a, 99).is_err());
        assert!(sim.add_dependency(99, a).is_err());
        assert_eq!(sim.task_count(), 1);
        assert_eq!(sim.link_count(), 0);
    }

    #[test]
    fn zero_bandwidth_link_is_a_typed_error() {
        let mut sim = Simulation::new();
        let l = sim.add_link("bad", 0.0);
        // Id allocation stays consistent even after the error.
        sim.flow(FlowSpec::new(vec![l], 1.0));
        let err = sim.run().unwrap_err();
        match err {
            SimError::InvalidParameter { message } => {
                assert!(message.contains("bandwidth must be positive"), "got: {message}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn unknown_dependency_is_a_typed_error() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", 1.0);
        sim.flow(FlowSpec::new(vec![l], 1.0).after(&[42]));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::UnknownId { kind: "task", index: 42 });
    }

    #[test]
    fn unknown_link_in_flow_path_is_a_typed_error() {
        let mut sim = Simulation::new();
        sim.flow(FlowSpec::new(vec![LinkId(3)], 1.0));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::UnknownId { kind: "link", index: 3 });
    }

    #[test]
    fn first_poison_error_wins() {
        let mut sim = Simulation::new();
        sim.add_link("bad", f64::NAN);
        sim.flow(FlowSpec::new(vec![LinkId(9)], -1.0));
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "got {err:?}");
    }
}
