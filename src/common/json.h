// The one JSON string escaper and strict JSON reader.
//
// Every exporter (metrics, trace, timeline, model-checker stats and
// counterexamples, scatter-lint's --format=json) escapes strings through
// AppendJsonString, and every importer (timeline decoding, counterexample
// replay, scatter-lint's layers.json and compile_commands.json) reads
// through ParseJson. Writers format numbers themselves (snprintf), so there
// is no writer framework here.

#ifndef SCATTER_SRC_COMMON_JSON_H_
#define SCATTER_SRC_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scatter {

// Appends `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
// newline and tab become \n and \t, every other byte below 0x20 becomes
// \u00XX, and all other bytes pass through unchanged.
void AppendJsonString(std::string* out, std::string_view s);

// A parsed JSON document.
struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  // kString: the decoded contents. kNumber: the number's source text, so a
  // caller chooses between a double and an exact integer.
  std::string text;
  std::vector<JsonValue> array;
  // Members in document order.
  std::vector<std::pair<std::string, JsonValue>> object;

  // The first member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(std::string_view key) const;
  // A number as strtod reads it.
  bool AsDouble(double* out) const;
  // A number written as plain digits whose value fits in a uint64_t.
  bool AsUint64(uint64_t* out) const;
};

// Strict RFC 8259 reader: one value and nothing after it but whitespace, no
// comments or trailing commas, no leading '+' or leading zeros, no raw
// control characters inside strings, containers nested at most 64 deep.
// \uXXXX escapes decode to UTF-8 (BMP code points; surrogate pairs are not
// combined). On failure returns false and, if `error` is non-null, says
// what was wrong and at which byte offset.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace scatter

#endif  // SCATTER_SRC_COMMON_JSON_H_
