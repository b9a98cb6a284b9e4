#pragma once
// Self-tests of the benchmark's own statistics (stats.hpp) and of the
// per-layer report's frame ledger. Every benchmark run executes them first;
// `framebench --self-test` runs only them.

namespace framebench {

/// Runs every self-test, printing each failure; true if all pass.
bool run_self_tests();

}  // namespace framebench
