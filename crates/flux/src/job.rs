//! Jobs and job programs.
//!
//! A Flux job is *anything launchable under an allocation* — the paper
//! stresses that the power framework covers MPI apps, Charm++, Python
//! workflows, and arbitrary self-launched programs alike. The simulation
//! captures that with the [`JobProgram`] trait: a program is stepped over
//! simulated time on its allocated nodes, sets power demand on them, and
//! decides when it is finished. Application models in `fluxpm-workloads`
//! implement this trait.

use crate::tbon::Rank;
use fluxpm_hw::{NodeHardware, NodeId};
use fluxpm_sim::SimTime;

/// Job identifier (monotonically increasing per instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl JobId {
    /// Index into the registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a user submits: a name and a node count.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job / application name (for reports).
    pub name: String,
    /// Requested node count.
    pub nnodes: u32,
}

impl JobSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, nnodes: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            nnodes,
        }
    }
}

/// Job lifecycle states (a condensed version of Flux's state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for nodes.
    Pending,
    /// Allocated and executing.
    Running,
    /// Finished; resources released.
    Completed,
    /// Terminated before completion (cancelled, or its node failed).
    Failed,
}

/// Context passed to a program step: its allocated nodes and the time
/// slice to advance.
pub struct StepCtx<'a> {
    /// Current simulation instant (end of the slice).
    pub now: SimTime,
    /// Length of the slice in seconds.
    pub dt: f64,
    /// The job's allocated nodes, in allocation order.
    pub nodes: Vec<&'a mut NodeHardware>,
    /// Host CPU time (seconds) stolen from the application on each node
    /// during this slice — e.g. by the power monitor's sensor reads.
    pub lost_cpu_seconds: Vec<f64>,
}

/// Result of stepping a program.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Still running.
    Running,
    /// The program finished `leftover_seconds` before `now` (completion
    /// fell inside the slice).
    Done {
        /// Seconds between actual completion and the end of the slice.
        leftover_seconds: f64,
    },
    /// The program crashed (the paper's §V reality: "Kripke execution
    /// failed on the Tioga system"). The job transitions to
    /// [`JobState::Failed`] and its resources are reclaimed.
    Crashed {
        /// Human-readable failure reason (surfaced in the trace).
        reason: String,
    },
}

/// Anything that can run under a Flux job.
pub trait JobProgram: 'static {
    /// Application name (e.g. `"GEMM"`).
    fn app_name(&self) -> &str;

    /// Called once when the job transitions to Running. The program
    /// should set its initial power demand on the nodes.
    fn on_start(&mut self, ctx: &mut StepCtx<'_>);

    /// Advance the program by `ctx.dt` seconds.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome;
}

/// One job's full record.
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// User-submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// The program (taken out while stepping).
    pub program: Option<Box<dyn JobProgram>>,
    /// Allocated node ids (empty until Running).
    pub nodes: Vec<NodeId>,
    /// When the job was submitted.
    pub submitted_at: SimTime,
    /// When it started running.
    pub started_at: Option<SimTime>,
    /// When it completed.
    pub finished_at: Option<SimTime>,
    /// End of the last executor slice applied to this job.
    pub last_step: SimTime,
}

impl Job {
    /// Execution time in seconds, if the job has both started and ended.
    pub fn runtime_seconds(&self) -> Option<f64> {
        Some((self.finished_at? - self.started_at?).as_secs_f64())
    }

    /// Ranks corresponding to the allocated nodes (rank i runs on node i).
    pub fn ranks(&self) -> Vec<Rank> {
        self.nodes.iter().map(|n| Rank(n.0)).collect()
    }
}

/// The instance's job table.
#[derive(Default)]
pub struct JobRegistry {
    jobs: Vec<Job>,
    /// Node → running-job reverse index, rebuilt lazily by
    /// [`JobRegistry::job_on_node`]. It depends on the jobs' `state` and
    /// `nodes` only; [`JobRegistry::get_mut`] clears it (the caller may
    /// change either), the executor's take/put of a program does not. So
    /// per-node managers — which query every rank every tick — pay one
    /// O(jobs) rebuild per state or placement change instead of a full
    /// job-table scan per query.
    occupancy: std::cell::RefCell<Option<Vec<Option<JobId>>>>,
}

impl JobRegistry {
    /// Empty registry.
    pub fn new() -> JobRegistry {
        JobRegistry::default()
    }

    /// Register a new pending job and return its id.
    pub fn add(&mut self, spec: JobSpec, program: Box<dyn JobProgram>, now: SimTime) -> JobId {
        *self.occupancy.get_mut() = None;
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(Job {
            id,
            spec,
            state: JobState::Pending,
            program: Some(program),
            nodes: Vec::new(),
            submitted_at: now,
            started_at: None,
            finished_at: None,
            last_step: now,
        });
        id
    }

    /// Look up a job.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id.index())
    }

    /// Look up a job mutably.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        *self.occupancy.get_mut() = None;
        self.jobs.get_mut(id.index())
    }

    /// Take a running job's program out for one executor step, so the
    /// step can borrow the node array while it runs. `None`: no such
    /// job, not running, or no program (taken, or dropped with its
    /// nodes). Leaves the occupancy index alone.
    pub fn take_program(&mut self, id: JobId) -> Option<Box<dyn JobProgram>> {
        let job = self.jobs.get_mut(id.index())?;
        if job.state != JobState::Running {
            return None;
        }
        job.program.take()
    }

    /// Put a stepped program back and record the end of its slice; the
    /// counterpart of [`JobRegistry::take_program`].
    pub fn put_program(&mut self, id: JobId, program: Box<dyn JobProgram>, now: SimTime) {
        if let Some(job) = self.jobs.get_mut(id.index()) {
            job.program = Some(program);
            job.last_step = now;
        }
    }

    /// All jobs.
    pub fn all(&self) -> &[Job] {
        &self.jobs
    }

    /// Ids of jobs currently in `state`, in id order.
    pub fn in_state(&self, state: JobState) -> impl Iterator<Item = JobId> + '_ {
        self.jobs
            .iter()
            .filter(move |j| j.state == state)
            .map(|j| j.id)
    }

    /// Ids of running jobs.
    pub fn running(&self) -> impl Iterator<Item = JobId> + '_ {
        self.in_state(JobState::Running)
    }

    /// Ids of pending jobs in submission order (the FCFS queue).
    pub fn pending(&self) -> impl Iterator<Item = JobId> + '_ {
        self.in_state(JobState::Pending)
    }

    /// True when every job has finished (completed or failed).
    pub fn all_complete(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| matches!(j.state, JobState::Completed | JobState::Failed))
    }

    /// The running job occupying `node`, if any. Served from the lazy
    /// occupancy index; semantics match a scan in job-id order (the
    /// lowest-id running job wins a — scheduler-prevented — conflict).
    pub fn job_on_node(&self, node: NodeId) -> Option<JobId> {
        let mut occ = self.occupancy.borrow_mut();
        let index = occ.get_or_insert_with(|| {
            let width = self
                .jobs
                .iter()
                .filter(|j| j.state == JobState::Running)
                .flat_map(|j| j.nodes.iter())
                .map(|n| n.0 as usize + 1)
                .max()
                .unwrap_or(0);
            let mut index = vec![None; width];
            for j in &self.jobs {
                if j.state != JobState::Running {
                    continue;
                }
                for n in &j.nodes {
                    let slot = &mut index[n.0 as usize];
                    if slot.is_none() {
                        *slot = Some(j.id);
                    }
                }
            }
            index
        });
        index.get(node.0 as usize).copied().flatten()
    }

    /// Makespan: last completion minus first submission (paper §IV-E).
    pub fn makespan_seconds(&self) -> Option<f64> {
        let first_submit = self.jobs.iter().map(|j| j.submitted_at).min()?;
        let last_finish = self
            .jobs
            .iter()
            .map(|j| j.finished_at)
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()?;
        Some((last_finish - first_submit).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl JobProgram for Nop {
        fn app_name(&self) -> &str {
            "nop"
        }
        fn on_start(&mut self, _ctx: &mut StepCtx<'_>) {}
        fn step(&mut self, _ctx: &mut StepCtx<'_>) -> StepOutcome {
            StepOutcome::Done {
                leftover_seconds: 0.0,
            }
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut reg = JobRegistry::new();
        let id = reg.add(
            JobSpec::new("gemm", 6),
            Box::new(Nop),
            SimTime::from_secs(1),
        );
        assert_eq!(id, JobId(0));
        let j = reg.get(id).unwrap();
        assert_eq!(j.spec.nnodes, 6);
        assert_eq!(j.state, JobState::Pending);
        assert_eq!(j.submitted_at, SimTime::from_secs(1));
        assert!(reg.get(JobId(5)).is_none());
    }

    #[test]
    fn state_queries() {
        let mut reg = JobRegistry::new();
        let a = reg.add(JobSpec::new("a", 1), Box::new(Nop), SimTime::ZERO);
        let b = reg.add(JobSpec::new("b", 2), Box::new(Nop), SimTime::ZERO);
        assert_eq!(reg.pending().collect::<Vec<_>>(), vec![a, b]);
        reg.get_mut(a).unwrap().state = JobState::Running;
        reg.get_mut(a).unwrap().nodes = vec![NodeId(0)];
        assert_eq!(reg.running().collect::<Vec<_>>(), vec![a]);
        assert_eq!(reg.pending().collect::<Vec<_>>(), vec![b]);
        assert_eq!(reg.job_on_node(NodeId(0)), Some(a));
        assert_eq!(reg.job_on_node(NodeId(3)), None);
        assert!(!reg.all_complete());
    }

    #[test]
    fn stepping_a_program_keeps_the_occupancy_index() {
        let mut reg = JobRegistry::new();
        let a = reg.add(JobSpec::new("a", 1), Box::new(Nop), SimTime::ZERO);
        assert!(
            reg.take_program(a).is_none(),
            "pending jobs are not stepped"
        );
        let job = reg.get_mut(a).unwrap();
        job.state = JobState::Running;
        job.nodes = vec![NodeId(2)];
        assert_eq!(reg.job_on_node(NodeId(2)), Some(a));
        assert!(reg.occupancy.borrow().is_some(), "index built by the query");

        let program = reg.take_program(a).expect("running job has a program");
        assert!(reg.take_program(a).is_none(), "already out");
        reg.put_program(a, program, SimTime::from_secs(1));
        assert!(reg.occupancy.borrow().is_some(), "take/put left it alone");
        assert_eq!(reg.get(a).unwrap().last_step, SimTime::from_secs(1));
        assert!(reg.get(a).unwrap().program.is_some());

        reg.get_mut(a).unwrap().state = JobState::Completed;
        assert!(
            reg.occupancy.borrow().is_none(),
            "get_mut still invalidates"
        );
        assert_eq!(reg.job_on_node(NodeId(2)), None);
    }

    #[test]
    fn runtime_and_makespan() {
        let mut reg = JobRegistry::new();
        let a = reg.add(JobSpec::new("a", 1), Box::new(Nop), SimTime::from_secs(0));
        let b = reg.add(JobSpec::new("b", 1), Box::new(Nop), SimTime::from_secs(5));
        assert_eq!(reg.makespan_seconds(), None, "unfinished jobs");
        for (id, s, e) in [(a, 10, 100), (b, 20, 250)] {
            let j = reg.get_mut(id).unwrap();
            j.state = JobState::Completed;
            j.started_at = Some(SimTime::from_secs(s));
            j.finished_at = Some(SimTime::from_secs(e));
        }
        assert_eq!(reg.get(a).unwrap().runtime_seconds(), Some(90.0));
        assert_eq!(reg.makespan_seconds(), Some(250.0));
        assert!(reg.all_complete());
    }

    #[test]
    fn ranks_mirror_nodes() {
        let mut reg = JobRegistry::new();
        let a = reg.add(JobSpec::new("a", 2), Box::new(Nop), SimTime::ZERO);
        reg.get_mut(a).unwrap().nodes = vec![NodeId(4), NodeId(2)];
        assert_eq!(reg.get(a).unwrap().ranks(), vec![Rank(4), Rank(2)]);
    }
}
