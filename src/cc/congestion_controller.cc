#include "cc/congestion_controller.h"

#include <stdexcept>

#include "cc/nada_source.h"
#include "cc/rap_source.h"
#include "cc/tfrc_source.h"
#include "util/check.h"

namespace qa::cc {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kRap:
      return "rap";
    case Backend::kTfrc:
      return "tfrc";
    case Backend::kNada:
      return "nada";
  }
  return "unknown";
}

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Backend b : all_backends()) names.emplace_back(to_string(b));
    return names;
  }();
  return kNames;
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {Backend::kRap, Backend::kTfrc,
                                            Backend::kNada};
  return kAll;
}

Backend parse_backend(const std::string& name) {
  for (const Backend b : all_backends()) {
    if (name == to_string(b)) return b;
  }
  std::string valid;
  for (const auto& n : backend_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  throw std::invalid_argument("unknown backend '" + name +
                              "' (valid values: " + valid + ")");
}

std::unique_ptr<CongestionController> make_controller(
    Backend backend, sim::Scheduler* sched, sim::Node* local,
    sim::NodeId peer, sim::FlowId flow, const CcParams& params) {
  switch (backend) {
    case Backend::kRap:
      return std::make_unique<RapSource>(sched, local, peer, flow, params);
    case Backend::kTfrc:
      return std::make_unique<TfrcSource>(sched, local, peer, flow, params);
    case Backend::kNada:
      return std::make_unique<NadaSource>(sched, local, peer, flow, params);
  }
  QA_CHECK(false);
  return nullptr;
}

}  // namespace qa::cc
