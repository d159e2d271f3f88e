// Fixture: cc-module violations — the backend layer reaching up into app
// (the application drives a controller; a controller never names the
// application above it) and sideways into core, plus a literal-seeded Rng
// inside a backend (seeds must arrive through CcParams). The sim include
// is a permitted downward edge and must not fire.
// Expected findings: 2 layering + 1 seed-plumbing.
#include "core/metrics.h"    // finding 1: cc -> core
#include "app/session.h"     // finding 2: cc -> app
#include "sim/scheduler.h"   // OK: cc -> sim
#include "util/rng.h"        // OK: cc -> util

namespace qa::cc {

double fixture_backend_jitter() {
  Rng rng(7);  // finding 3: literal seed instead of CcParams plumbing
  return rng.uniform();
}

}  // namespace qa::cc
