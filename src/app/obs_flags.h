// Shared observability flag parsing for the tools (qa_trace, qa_live):
// every tool that writes an artifact bundle accepts the same
// --no-trace/--no-metrics/--no-profile/--no-journeys/--no-flightrec
// switches and the --flightrec-events ring-size knob, parsed here once so
// the spellings cannot drift between binaries.
#pragma once

#include <string>

#include "app/observability.h"
#include "util/flags.h"

namespace qa::app {

// Reads the full observability flag set and returns a config rooted at
// `out_dir`. Flags read: --trace --metrics --profile --journeys
// --flightrec (all default-on booleans) and --flightrec-events.
ObservabilityConfig observability_flags(const Flags& flags,
                                        const std::string& out_dir);

// The usage() lines for the flags observability_flags consumes, so every
// tool's --help stays in sync with the parser.
const char* observability_flags_usage();

}  // namespace qa::app
