#include "app/obs_flags.h"

namespace qa::app {

ObservabilityConfig observability_flags(const Flags& flags,
                                        const std::string& out_dir) {
  ObservabilityConfig cfg;
  cfg.out_dir = out_dir;
  cfg.trace = flags.get_bool("trace", true);
  cfg.metrics = flags.get_bool("metrics", true);
  cfg.profile = flags.get_bool("profile", true);
  cfg.journeys = flags.get_bool("journeys", true);
  cfg.flightrec = flags.get_bool("flightrec", true);
  cfg.flightrec_events =
      static_cast<size_t>(flags.get_int("flightrec-events", 1024));
  return cfg;
}

const char* observability_flags_usage() {
  return "  --flightrec-events N   flight-recorder ring size (default 1024)\n"
         "  --no-trace             skip trace.json (metrics/manifest only)\n"
         "  --no-metrics           skip metrics.csv/json\n"
         "  --no-profile           skip the scheduler profiler\n"
         "  --no-journeys          skip packet-journey tracing\n"
         "  --no-flightrec         skip the crash-time flight recorder\n";
}

}  // namespace qa::app
