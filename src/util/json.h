// Tiny JSON helpers shared by the observability exporters (chrome_trace,
// metrics_registry, manifest) and their consumers (rundiff, tests).
//
// Emission: quote/number formatting plus a whole-file writer. Parsing: a
// minimal recursive-descent reader covering exactly the JSON the exporters
// emit (objects, arrays, strings with escapes, numbers, true/false/null),
// used by qa_diff to canonicalize metrics artifacts and by the exporter
// tests to round-trip adversarial names.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qa {

// `s` as a double-quoted JSON string with the mandatory escapes
// (backslash, quote, control characters).
std::string json_quote(std::string_view s);

// Whether json_quote escapes `c` (backslash, quote, control characters).
inline bool json_needs_escape(char c) {
  return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}
// The escape sequence json_quote writes for `c`, spelled into `buf`; empty
// when `c` goes out as is. Lets writers that quote in place (the trace
// writer's buffer) share json_quote's escaping byte for byte.
std::string_view json_escape(char c, char (&buf)[8]);

// `v` as a JSON number token. Non-finite values (which JSON cannot
// represent) become null. Doubles print as printf's %.12g when that reads
// back as exactly `v`, else as %.17g (which always does).
std::string json_number(double v);
std::string json_number(int64_t v);
std::string json_number(uint64_t v);

// Room json_number_to needs: the longest token is a %.17g double such as
// "-2.2250738585072014e-308".
inline constexpr size_t kJsonNumberChars = 32;
// Writes json_number(v) into `out` without allocating; returns the length.
size_t json_number_to(char (&out)[kJsonNumberChars], double v);

// Writes `content` to `path`, throwing std::runtime_error when the file
// cannot be created — the same contract as CsvWriter, so artifact writers
// fail loudly instead of silently dropping a run's output.
void write_text_file(const std::string& path, const std::string& content);

// ---- Parsing ---------------------------------------------------------------

// One parsed JSON value. A plain tagged struct rather than a variant
// hierarchy: consumers walk small documents (a metrics snapshot, one trace
// line) and care about simplicity, not allocation counts. Object members
// keep document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_number() const { return type == Type::kNumber; }
  // First member with `key`, or nullptr. Linear: exporter objects are
  // small and ordered.
  const JsonValue* find(std::string_view key) const;
};

// Parses one complete JSON document (trailing whitespace allowed, nothing
// else after the value). Returns false and describes the failure —
// including the byte offset — in *error. Escape sequences in strings are
// decoded (\uXXXX to UTF-8, surrogate pairs included), so a parse of
// json_quote(s) round-trips s exactly.
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

}  // namespace qa
