// L2 good: the view resolves every PE's windows once; the engine only
// streams chunks through `put`.
pub fn land(task: &mut ClusterTask, src: usize, dst: usize, chunk: usize) {
    let (srcs, mut dsts) = task.view.windows(src..src + chunk, dst..dst + chunk);
    for (from, to) in srcs.iter().zip(&mut dsts) {
        to.put(dst, from);
    }
}
