// L2 bad: engine code resolves an MRAM window on a PE itself instead of
// taking the cluster's windows from the view.
pub fn land(task: &mut ClusterTask, dst: usize, row: &[u8]) {
    task.view.pe_mut(0, 0).write_window(dst, row.len()).put(dst, row);
}
