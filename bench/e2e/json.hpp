// A minimal JSON reader for the benchmark's own files: BENCHMARK.json and
// the result records `--out` appends. Objects, arrays, strings (ASCII
// escapes), numbers, booleans and null; nothing else.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bbrnash::e2e {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  /// Member `key` of an object, or nullptr.
  [[nodiscard]] const Json* get(const std::string& key) const;
};

/// nullopt unless `text` is exactly one JSON value (surrounding whitespace
/// allowed).
[[nodiscard]] std::optional<Json> parse_json(std::string_view text);

}  // namespace bbrnash::e2e
