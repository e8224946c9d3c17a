#pragma once

namespace flbench {

/// Runs the benchmark's self-tests; returns the number of failed checks
/// (each is reported on stderr).
int run_self_tests();

}  // namespace flbench
