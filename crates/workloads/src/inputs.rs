//! Application input parameters (paper Table I) and the task-partition
//! rule for Quicksilver and Laghos.
//!
//! These are the exact launch parameters the paper ran; the models in
//! [`crate::apps`] are calibrated against runs with these inputs, and the
//! experiment harness reports them alongside its results.

/// A 3-D task partition `(x, y, z)` for rank-decomposed applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPartition(pub u32, pub u32, pub u32);

impl TaskPartition {
    /// Total ranks covered by the partition.
    pub fn ranks(self) -> u32 {
        self.0 * self.1 * self.2
    }
}

/// The paper's task partitioning for Quicksilver and Laghos (§II-D):
/// "(2,2,1) for 4 ranks, (2,2,2) for 8, (2,2,4) for 16, (4,4,2) for 32,
/// and (4,4,4) for 64 ranks". Other rank counts have no published
/// partition and return `None`.
pub fn task_partition(ranks: u32) -> Option<TaskPartition> {
    let p = match ranks {
        4 => TaskPartition(2, 2, 1),
        8 => TaskPartition(2, 2, 2),
        16 => TaskPartition(2, 2, 4),
        32 => TaskPartition(4, 4, 2),
        64 => TaskPartition(4, 4, 4),
        _ => return None,
    };
    Some(p)
}

/// Ranks per node on each machine: one rank per GPU device (4 on Lassen,
/// 8 GCDs on Tioga) — the reason Tioga runs twice the task count at the
/// same node count (paper §IV-A).
pub fn ranks_per_node(machine: fluxpm_hw::MachineKind) -> u32 {
    match machine {
        fluxpm_hw::MachineKind::Lassen => 4,
        fluxpm_hw::MachineKind::Tioga => 8,
    }
}

/// The command-line inputs from paper Table I, by application name.
pub fn table1_input(app: &str) -> Option<&'static str> {
    Some(match app {
        "LAMMPS" => "-v nx 64 -v ny 64 -v nz 64 (strong scaling, ML-SNAP)",
        "GEMM" => "--sizefact 700 -repfact 50 (weak scaling, RajaPerf)",
        "Quicksilver" => {
            "base mesh 16, 300 particles/mesh, nsteps=40 (weak scaling, partition by ranks)"
        }
        "Laghos" => "-pt {partition} -m {mesh} -rp 2 -tf 0.6 -no-vis -pa -d cuda --max-steps 40",
        "NQueens" => "+p160, 14 queens, grainsize=1000 (Charm++)",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxpm_hw::MachineKind;

    #[test]
    fn partitions_match_paper() {
        assert_eq!(task_partition(4), Some(TaskPartition(2, 2, 1)));
        assert_eq!(task_partition(8), Some(TaskPartition(2, 2, 2)));
        assert_eq!(task_partition(16), Some(TaskPartition(2, 2, 4)));
        assert_eq!(task_partition(32), Some(TaskPartition(4, 4, 2)));
        assert_eq!(task_partition(64), Some(TaskPartition(4, 4, 4)));
        assert_eq!(task_partition(12), None);
    }

    #[test]
    fn partitions_cover_their_rank_count() {
        for ranks in [4u32, 8, 16, 32, 64] {
            assert_eq!(task_partition(ranks).unwrap().ranks(), ranks);
        }
    }

    #[test]
    fn tioga_doubles_ranks() {
        // 4 nodes: 16 ranks on Lassen, 32 on Tioga (paper Table II's
        // task-count columns).
        assert_eq!(4 * ranks_per_node(MachineKind::Lassen), 16);
        assert_eq!(4 * ranks_per_node(MachineKind::Tioga), 32);
    }

    #[test]
    fn all_paper_apps_have_inputs() {
        for app in ["LAMMPS", "GEMM", "Quicksilver", "Laghos", "NQueens"] {
            assert!(table1_input(app).is_some(), "{app}");
        }
        assert!(table1_input("HPL").is_none());
    }
}
