#include "util/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "util/json.h"
#include "util/logging.h"

namespace qa {

std::string ChromeTraceWriter::Arg::json() const {
  switch (kind) {
    case Kind::kInt: return json_number(i);
    case Kind::kDouble: return json_number(d);
    case Kind::kBool: return b ? "true" : "false";
    case Kind::kString: return json_quote(s);
  }
  return "null";
}

ChromeTraceWriter::ChromeTraceWriter(const std::string& path)
    : buf_(std::make_unique_for_overwrite<char[]>(kBufferBytes)),
      file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot create trace file: " + path);
  }
  // The writer's own buffer already batches writes into whole chunks; a
  // stdio buffer underneath would only copy them again.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  put("[");
}

ChromeTraceWriter::~ChromeTraceWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    QA_LOG(Error) << e.what() << " (trace writer destroyed before close())";
  }
}

size_t ChromeTraceWriter::format_ts(TimePoint t, char (&out)[kTsChars]) {
  // Spec unit is microseconds; keep nanosecond precision as a fraction.
  // to_chars(fixed, 3) gives the bytes printf("%.3f") gives.
  return static_cast<size_t>(
      std::to_chars(out, out + kTsChars, static_cast<double>(t.ns()) * 1e-3,
                    std::chars_format::fixed, 3)
          .ptr -
      out);
}

void ChromeTraceWriter::put_slow(std::string_view bytes) {
  while (!bytes.empty()) {
    const size_t take = std::min(bytes.size(), kBufferBytes - used_);
    bytes.copy(buf_.get() + used_, take);
    used_ += take;
    bytes.remove_prefix(take);
    if (used_ == kBufferBytes) flush_buffer();
  }
}

void ChromeTraceWriter::put_int(int64_t v) {
  char buf[24];
  put({buf, static_cast<size_t>(std::to_chars(buf, buf + sizeof buf, v).ptr -
                                buf)});
}

void ChromeTraceWriter::put_double(double v) {
  char buf[kJsonNumberChars];
  put({buf, json_number_to(buf, v)});
}

void ChromeTraceWriter::put_quoted(std::string_view s) {
  put("\"");
  char esc_buf[8];
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    if (!json_needs_escape(s[i])) continue;
    put(s.substr(run, i - run));
    put(json_escape(s[i], esc_buf));
    run = i + 1;
  }
  put(s.substr(run));
  put("\"");
}

void ChromeTraceWriter::flush_buffer() {
  if (used_ > 0 && !write_failed_ &&
      std::fwrite(buf_.get(), 1, used_, file_) != used_) {
    write_failed_ = true;
  }
  used_ = 0;
}

void ChromeTraceWriter::write_event(char ph, TimePoint t, int track,
                                    std::string_view name, Args args) {
  if (closed_) return;
  put(first_event_ ? "\n{\"ph\":\"" : ",\n{\"ph\":\"");
  first_event_ = false;
  put({&ph, 1});
  put("\",\"pid\":1,\"tid\":");
  put_int(track);
  put(",\"ts\":");
  char ts[kTsChars];
  put({ts, format_ts(t, ts)});
  if (!name.empty()) {
    put(",\"name\":");
    put_quoted(name);
  }
  if (ph == 'i') put(",\"s\":\"t\"");  // instant scoped to its track
  if (args.size() > 0) {
    put(",\"args\":{");
    bool first = true;
    for (const Arg& a : args) {
      if (!first) put(",");
      first = false;
      put_quoted(a.key);
      put(":");
      switch (a.kind) {
        case Arg::Kind::kInt: put_int(a.i); break;
        case Arg::Kind::kDouble: put_double(a.d); break;
        case Arg::Kind::kBool: put(a.b ? "true" : "false"); break;
        case Arg::Kind::kString: put_quoted(a.s); break;
      }
    }
    put("}");
  }
  put("}");
  ++events_;
}

void ChromeTraceWriter::name_track(int track, std::string_view name) {
  // Metadata events carry no meaningful ts; origin keeps them sorted first.
  write_event('M', TimePoint::origin(), track, "thread_name",
              {{"name", name}});
}

void ChromeTraceWriter::span_begin(TimePoint t, int track,
                                   std::string_view name, Args args) {
  write_event('B', t, track, name, args);
}

void ChromeTraceWriter::span_end(TimePoint t, int track) {
  write_event('E', t, track, {}, {});
}

void ChromeTraceWriter::instant(TimePoint t, int track, std::string_view name,
                                Args args) {
  write_event('i', t, track, name, args);
}

void ChromeTraceWriter::counter(TimePoint t, int track, std::string_view name,
                                std::string_view series, double value) {
  write_event('C', t, track, name, {{series, value}});
}

void ChromeTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  put("\n]\n");
  flush_buffer();
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  buf_.reset();
  if (write_failed_ || close_failed) {
    throw std::runtime_error("trace file write failed");
  }
}

}  // namespace qa
