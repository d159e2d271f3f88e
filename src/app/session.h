// Session: one quality-adaptive streaming pair (server host -> client host)
// wired onto an existing network. Owns nothing network-side; the Network
// owns the agents, the session owns the app objects.
//
// Construction is deliberately allocation-light so churning scenarios (the
// server farm's hundreds of arrivals per run) can build sessions on the
// hot path: the server and client live inline in the Session (no per-object
// heap nodes), and a SessionConfig can carry a shared LayeredVideo
// prototype so per-session construction does not re-allocate the stream
// description. The farm keeps Sessions in reusable slots
// (std::optional<Session> emplace/reset), so a departed session's storage
// is recycled in place. qabench's farm_churn500 workload times build and
// teardown as part of every rep (cpu_s, setup_s).
#pragma once

#include <memory>

#include "app/video_client.h"
#include "app/video_server.h"
#include "cc/cc_sink.h"
#include "cc/congestion_controller.h"
#include "sim/network.h"

namespace qa::app {

struct SessionConfig {
  core::AdapterConfig adapter;
  // Which congestion-control law drives the stream. The rest of the stack
  // (server, adapter, client, sink) is backend-agnostic.
  cc::Backend backend = cc::Backend::kRap;
  cc::CcParams rap;  // shared by every backend (historic field name)
  VideoServerOptions server;
  int stream_layers = 8;
  Rate layer_rate = Rate::kilobytes_per_sec(10);
  bool keep_client_packet_log = false;
  // Shared stream prototype: when set, every session built from this config
  // reuses it (one allocation for the whole farm) instead of constructing a
  // fresh LayeredVideo from stream_layers/layer_rate. Must be linear and
  // must outlive the sessions (shared ownership makes that automatic).
  std::shared_ptr<const core::LayeredVideo> video;
};

// A server on `server_host` streaming to `client_host` over the configured
// congestion-control backend (RAP by default).
// Not movable: the server/client members are wired into the transport
// agents by pointer. Place Sessions in stable storage (stack, std::optional
// slot, std::list) — never in a reallocating vector.
class Session {
 public:
  Session(sim::Network& net, sim::Node* server_host, sim::Node* client_host,
          const SessionConfig& cfg);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  // Detaches from the transport agents (which the Network keeps alive) so a
  // departed session's storage can be reused while late packets drain.
  ~Session();

  // Ends the session: stops the source and detaches the client from the
  // sink. Idempotent; the destructor calls it as a backstop. After stop()
  // the server/client objects remain readable (final metrics collection).
  void stop();
  bool stopped() const { return stopped_; }

  VideoServer& server() { return server_; }
  VideoClient& client() { return client_; }
  // The session's congestion controller (whatever backend the config
  // chose), as the backend-agnostic interface.
  cc::CongestionController& controller() { return *controller_; }
  cc::CcSink& sink() { return *sink_; }
  sim::FlowId flow_id() const { return flow_; }

 private:
  sim::FlowId flow_;
  cc::CongestionController* controller_;  // owned by the network
  cc::CcSink* sink_;                      // owned by the network
  VideoServer server_;
  VideoClient client_;
  bool stopped_ = false;
};

}  // namespace qa::app
