// Host-process introspection for the benchmark and the sweep runners.
//
// qabench records peak resident set size (its peak_rss_mb metric)
// alongside time so a hot-path "optimisation" that trades memory for speed
// is visible in review. Linux-only in implementation (reads /proc); on
// other platforms the probes return 0 rather than failing, since the
// numbers are advisory, not load-bearing.
#pragma once

#include <cstdint>

namespace qa {

// Peak resident set size of this process in bytes (VmHWM), or 0 when the
// platform offers no cheap probe.
uint64_t peak_rss_bytes();

// Hardware concurrency with a sane floor: at least 1, even when the
// runtime reports unknown (0).
int host_cpu_count();

}  // namespace qa
