#include "json.hpp"

#include <cctype>
#include <stdexcept>

#include "exp/cli_flags.hpp"

namespace bbrnash::e2e {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail();
    return v;
  }

 private:
  [[noreturn]] static void fail() { throw std::invalid_argument{"bad JSON"}; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail();
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail();
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      if (eat('}')) return v;
      do {
        skip_ws();
        std::string key = string();
        expect(':');
        v.fields[std::move(key)] = value();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      if (eat(']')) return v;
      do {
        v.items.push_back(value());
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.str = string();
    } else if (literal("true") || literal("false")) {
      v.kind = Json::Kind::kBool;
      v.boolean = c == 't';
    } else if (literal("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      const std::size_t start = pos_;
      while (pos_ < s_.size() &&
             std::string_view{"+-.0123456789eE"}.find(s_[pos_]) !=
                 std::string_view::npos) {
        ++pos_;
      }
      if (pos_ == start) fail();
      v.kind = Json::Kind::kNumber;
      v.number =
          parse_double_strict("json", std::string{s_.substr(start, pos_ - start)});
    }
    return v;
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail();
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail();
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': case '\\': case '/': c = e; break;
          default: fail();  // \u escapes never occur in these files
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail();
    ++pos_;
    return out;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::get(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

std::optional<Json> parse_json(std::string_view text) {
  try {
    return Parser{text}.document();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace bbrnash::e2e
