// Crash-time flight recorder.
//
// A fixed-size ring of the most recent notable events (journey spans,
// adapter decisions, link outages — whatever the owner notes). During a
// healthy run it costs one ring slot per note and writes nothing. When a
// QA_CHECK / QA_INVARIANT fails, the hook installed by arm_crash_dump()
// dumps the ring — oldest first — to a JSONL artifact next to the run's
// manifest, so post-mortem triage starts from the last N things the
// simulation did instead of from a bare stack trace.
//
// Each line is one event: {"ts_ns":<sim time>,"kind":"...","data":{...}}.
// `data` is caller-provided JSON (already encoded); the recorder does not
// interpret it. Journey spans, the bulk of a traced run's notes, are kept
// as plain structs instead and formatted only when the ring is read, so a
// healthy run pays a struct copy per hop and builds no strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/journey.h"
#include "util/time.h"

namespace qa {

class FlightRecorder {
 public:
  // `capacity` is the ring size: how many recent events a dump preserves.
  // `journeys` names the hops of noted journey spans when the ring is
  // read, so it must outlive the recorder; null if no span is noted.
  explicit FlightRecorder(size_t capacity = 1024,
                          const JourneyRecorder* journeys = nullptr);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends an event, overwriting the oldest once the ring is full.
  // `detail_json` must be a complete JSON value (object, string, ...);
  // pass "{}" when there is nothing to say.
  void note(TimePoint at, std::string_view kind, std::string detail_json);

  // Appends a journey span as kind "journey.<stage>" with data
  // {"id","flow","layer","seq"} plus "hop" for hop-scoped stages. Needs
  // the constructor's `journeys`.
  void note_journey(const JourneySpan& span);

  // The ring as JSONL, oldest event first.
  std::string to_jsonl() const;

  // Writes the ring to `path` (truncating). Safe to call directly; also
  // what the crash hook does.
  void dump(const std::string& path) const;

  // Installs a check-failure hook that dumps the ring to `path`. One
  // armed recorder per process (arming replaces any previous hook);
  // disarm() — also run by the destructor — removes it.
  void arm_crash_dump(const std::string& path);
  void disarm();

  size_t capacity() const { return capacity_; }
  size_t size() const { return ring_.size(); }
  // Total notes ever, including overwritten ones.
  int64_t notes() const { return notes_; }
  // Crash-hook dumps delivered (not direct dump() calls).
  int64_t crash_dumps() const { return crash_dumps_; }
  const std::string& crash_dump_path() const { return crash_dump_path_; }
  bool armed() const { return armed_; }

 private:
  struct Entry {
    int64_t sim_ns = 0;
    // A journey span is formatted from `span`, a note from the strings.
    bool is_journey = false;
    JourneySpan span;
    std::string kind;
    std::string detail_json;
  };

  // The slot the next event goes to: appended until the ring is full, then
  // the oldest, reused in place (its strings keep their capacity).
  Entry& next_slot();
  void append_line(std::string& out, const Entry& e) const;

  size_t capacity_;
  const JourneyRecorder* journeys_;
  std::vector<Entry> ring_;
  size_t next_ = 0;  // overwrite position once the ring has wrapped
  int64_t notes_ = 0;
  mutable int64_t crash_dumps_ = 0;
  bool armed_ = false;
  std::string crash_dump_path_;
};

}  // namespace qa
