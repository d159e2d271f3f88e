// Chrome trace-event exporter: turns simulator trace points into a JSON
// file loadable by Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Format: the "JSON array" flavour of the trace-event spec, written one
// event per line so the file doubles as JSONL for ad-hoc grepping. Event
// phases used:
//
//   B/E  span begin/end — scheduler handler execution (the pair shares one
//        sim-time ts; measured wall-clock cost rides in args)
//   i    instant — backoffs, layer adds/drops, rebuffer transitions
//   C    counter track — transmission rate, receiver buffer, queue depth
//   M    metadata — human-readable track names
//
// Timestamps are *simulated* time: ts is sim nanoseconds expressed in the
// spec's microsecond unit (fractional, so nanosecond precision survives).
// Tracks (tid) separate subsystems into viewer lanes; all events share one
// process (pid 1).
//
// Args are typed (Arg: integer, double, bool or string) and formatted by
// the writer itself, straight into its output buffer: an event costs no
// heap allocation, whatever its args.
//
// Output goes through one fixed buffer of kBufferBytes, written to the file
// in whole chunks as it fills and once more at close(). A process killed
// mid-run therefore loses at most the last unflushed chunk; the flight
// recorder's crash dump covers that tail.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "util/time.h"

namespace qa {

class ChromeTraceWriter {
 public:
  // One member of an event's "args" object. Integers and doubles print as
  // json_number() does, bools as true/false, strings quoted (json_quote).
  // Keys and string values are views: an Arg lives only as long as the
  // call it is passed to. Unsigned values must be cast: with no overload
  // for them the call is ambiguous, so none converts silently.
  struct Arg {
    enum class Kind : uint8_t { kInt, kDouble, kBool, kString };

    Arg(std::string_view k, int v) : key(k), kind(Kind::kInt), i(v) {}
    Arg(std::string_view k, int64_t v) : key(k), kind(Kind::kInt), i(v) {}
    Arg(std::string_view k, double v) : key(k), kind(Kind::kDouble), d(v) {}
    Arg(std::string_view k, bool v) : key(k), kind(Kind::kBool), b(v) {}
    // const char* gets its own overload so a string literal is never taken
    // for a bool (the pointer-to-bool conversion would otherwise win).
    Arg(std::string_view k, const char* v)
        : key(k), kind(Kind::kString), s(v) {}
    Arg(std::string_view k, std::string_view v)
        : key(k), kind(Kind::kString), s(v) {}

    // The value as a JSON token, for sinks that keep their own strings.
    std::string json() const;

    std::string_view key;
    Kind kind;
    int64_t i = 0;
    double d = 0;
    bool b = false;
    std::string_view s;
  };
  using Args = std::initializer_list<Arg>;

  // Viewer lanes, one per subsystem.
  static constexpr int kSchedulerTrack = 1;
  static constexpr int kTransportTrack = 2;
  static constexpr int kAdapterTrack = 3;
  static constexpr int kClientTrack = 4;
  static constexpr int kLinkTrack = 5;
  // Farm-level control plane: admission verdicts, shed-ladder rung.
  static constexpr int kFarmTrack = 6;
  // SLO alert open/close instants (util/slo.h burn-rate engine).
  static constexpr int kSloTrack = 7;
  // Per-video-layer journey lanes: layer k renders on track
  // kJourneyTrackBase + k (named lazily on the layer's first span).
  static constexpr int kJourneyTrackBase = 16;

  // Size of the output buffer, and of every write but the last.
  static constexpr size_t kBufferBytes = 32 * 1024;

  // Opens `path` for writing; throws std::runtime_error on failure.
  explicit ChromeTraceWriter(const std::string& path);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  // Destruction closes the file (finalizing the JSON array) if close()
  // was not called explicitly. A write failure found then is logged, not
  // thrown: call close() to see it as an exception.
  ~ChromeTraceWriter();

  // Labels `track` in the viewer ("M" thread_name metadata).
  void name_track(int track, std::string_view name);

  // Span over a handler execution. Both halves usually carry the same sim
  // time (handlers are instantaneous in sim time); the measured wall cost
  // goes in `args` on the begin event.
  void span_begin(TimePoint t, int track, std::string_view name,
                  Args args = {});
  void span_end(TimePoint t, int track);

  // Point-in-time marker with optional detail args.
  void instant(TimePoint t, int track, std::string_view name, Args args = {});

  // Counter-track sample: `name` is the track, `series` the line within it.
  void counter(TimePoint t, int track, std::string_view name,
               std::string_view series, double value);

  // Finalizes the JSON array, flushes the buffer and closes the file.
  // Throws std::runtime_error if any write failed, including a chunk
  // flushed mid-run. Idempotent; events emitted after close() are dropped.
  void close();
  bool is_open() const { return !closed_; }
  int64_t events_written() const { return events_; }

  // Room format_ts needs.
  static constexpr size_t kTsChars = 32;
  // Writes `t` in the spec's microsecond unit with three decimals, the
  // bytes printf("%.3f", ns * 1e-3) gives; returns the length.
  static size_t format_ts(TimePoint t, char (&out)[kTsChars]);

 private:
  // Common emission path: one `{...}` object per line.
  void write_event(char ph, TimePoint t, int track, std::string_view name,
                   Args args);
  // Buffer appends; a full buffer is written out before taking more.
  void put(std::string_view bytes) {
    if (bytes.size() <= kBufferBytes - used_) {
      bytes.copy(buf_.get() + used_, bytes.size());
      used_ += bytes.size();
    } else {
      put_slow(bytes);
    }
  }
  void put_slow(std::string_view bytes);
  void put_int(int64_t v);
  void put_double(double v);
  void put_quoted(std::string_view s);
  void flush_buffer();

  // Allocated before the file opens, so a failed open leaks nothing.
  std::unique_ptr<char[]> buf_;
  std::FILE* file_ = nullptr;
  size_t used_ = 0;
  bool write_failed_ = false;
  bool first_event_ = true;
  bool closed_ = false;
  int64_t events_ = 0;
};

}  // namespace qa
