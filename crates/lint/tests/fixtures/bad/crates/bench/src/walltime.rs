// L3a bad: a figure harness timing its own cells is a second host clock
// beside `benchmark/`.
pub fn cell_wall_ms(run: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    run();
    t0.elapsed().as_secs_f64() * 1e3
}
