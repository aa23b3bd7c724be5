#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lint_passes.hpp"

namespace bbrnash::lint {

namespace {

// The annotation marker. It lives in a string literal, and rule matching
// runs on literal-stripped text, so this file stays clean under self-scan;
// annotation extraction runs on comment text only, where the marker is
// matched verbatim.
constexpr std::string_view kAllowMarker = "bbrnash-lint: allow(";

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string{s.substr(b, e - b)};
}

// ---------------------------------------------------------------------------
// Pass 1a: strip comments and string/char literals (preserving line and
// column structure), extracting allow-annotations from comment text and
// recording every string literal's contents as a StringFact.
// ---------------------------------------------------------------------------

struct StrippedFile {
  std::vector<std::string> raw;   ///< original lines
  std::vector<std::string> code;  ///< literals/comments blanked to spaces
  std::vector<Suppression> annotations;  ///< file field left empty
  std::vector<StringFact> strings;
};

void parse_annotation(const std::string& comment, int line,
                      std::vector<Suppression>& out) {
  std::size_t at = comment.find(kAllowMarker);
  while (at != std::string::npos) {
    const std::size_t rule_begin = at + kAllowMarker.size();
    const std::size_t rule_end = comment.find(')', rule_begin);
    if (rule_end == std::string::npos) break;
    Suppression s;
    s.rule = trim(comment.substr(rule_begin, rule_end - rule_begin));
    s.line = line;
    const std::size_t dash = comment.find("--", rule_end);
    if (dash != std::string::npos) s.reason = trim(comment.substr(dash + 2));
    if (!s.rule.empty()) out.push_back(std::move(s));
    at = comment.find(kAllowMarker, rule_end);
  }
}

StrippedFile strip_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"bbrnash-lint: cannot open " + path.string()};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  StrippedFile out;
  std::string raw_line;
  std::string code_line;
  std::string comment_text;  // accumulated text of the comment in progress
  int comment_start_line = 0;
  std::string string_text;  // accumulated contents of the literal in progress
  int string_start_line = 0;
  int line = 1;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for raw strings: the )delim" terminator

  auto end_line = [&] {
    out.raw.push_back(raw_line);
    out.code.push_back(code_line);
    raw_line.clear();
    code_line.clear();
    ++line;
  };
  auto flush_comment = [&] {
    parse_annotation(comment_text, comment_start_line, out.annotations);
    comment_text.clear();
  };
  auto flush_string = [&] {
    out.strings.push_back(StringFact{string_text, string_start_line});
    string_text.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) {
        flush_comment();
        state = State::kCode;
      }
      if (state == State::kRawString) string_text.push_back('\n');
      end_line();
      continue;
    }
    raw_line.push_back(c);
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_start_line = line;
          code_line.push_back(' ');
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_start_line = line;
          code_line.push_back(' ');
          raw_line.push_back(next);
          code_line.push_back(' ');
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" — raw string if preceded by a bare R.
          const bool raw_prefix =
              !code_line.empty() && code_line.back() == 'R' &&
              (code_line.size() < 2 || !is_ident_char(code_line[code_line.size() - 2]));
          if (raw_prefix) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(' && text[j] != '\n') {
              delim.push_back(text[j]);
              ++j;
            }
            raw_delim = ")" + delim + "\"";
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          string_start_line = line;
          code_line.push_back(' ');
        } else if (c == '\'') {
          // Distinguish digit separators (1'000) from char literals.
          const bool separator =
              !code_line.empty() &&
              std::isdigit(static_cast<unsigned char>(code_line.back())) != 0 &&
              std::isdigit(static_cast<unsigned char>(next)) != 0;
          if (separator) {
            code_line.push_back(c);
          } else {
            state = State::kChar;
            code_line.push_back(' ');
          }
        } else {
          code_line.push_back(c);
        }
        break;
      case State::kLineComment:
        comment_text.push_back(c);
        code_line.push_back(' ');
        break;
      case State::kBlockComment:
        comment_text.push_back(c);
        code_line.push_back(' ');
        if (c == '*' && next == '*') break;
        if (c == '*' && next == '/') {
          raw_line.push_back(next);
          code_line.push_back(' ');
          ++i;
          flush_comment();
          state = State::kCode;
        }
        break;
      case State::kString:
        code_line.push_back(' ');
        if (c == '\\' && next != '\0' && next != '\n') {
          string_text.push_back(c);
          string_text.push_back(next);
          raw_line.push_back(next);
          code_line.push_back(' ');
          ++i;
        } else if (c == '"') {
          flush_string();
          state = State::kCode;
        } else {
          string_text.push_back(c);
        }
        break;
      case State::kChar:
        code_line.push_back(' ');
        if (c == '\\' && next != '\0' && next != '\n') {
          raw_line.push_back(next);
          code_line.push_back(' ');
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        code_line.push_back(' ');
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            raw_line.push_back(text[i + k]);
            code_line.push_back(' ');
          }
          i += raw_delim.size() - 1;
          flush_string();
          state = State::kCode;
        } else {
          string_text.push_back(c);
        }
        break;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    flush_comment();
  }
  if (state == State::kString || state == State::kRawString) flush_string();
  if (!raw_line.empty() || !code_line.empty()) end_line();
  return out;
}

// ---------------------------------------------------------------------------
// Matching helpers (identifier-boundary token search on stripped lines).
// ---------------------------------------------------------------------------

/// Calls fn(pos) for each occurrence of `tok` in `line` with identifier
/// boundaries on both sides.
template <typename Fn>
void for_each_token(const std::string& line, std::string_view tok, Fn&& fn) {
  std::size_t at = line.find(tok);
  while (at != std::string::npos) {
    const bool left_ok = at == 0 || !is_ident_char(line[at - 1]);
    const std::size_t after = at + tok.size();
    const bool right_ok = after >= line.size() || !is_ident_char(line[after]);
    if (left_ok && right_ok) fn(at);
    at = line.find(tok, at + 1);
  }
}

/// True when the token at `pos` is written as a function call: next
/// non-space char is '('. Member calls (obj.name(...) / ptr->name(...))
/// do not count; qualified calls (std::name) do.
bool is_free_call(const std::string& line, std::size_t pos,
                  std::string_view tok) {
  std::size_t after = pos + tok.size();
  while (after < line.size() &&
         std::isspace(static_cast<unsigned char>(line[after])) != 0) {
    ++after;
  }
  if (after >= line.size() || line[after] != '(') return false;
  if (pos > 0 && line[pos - 1] == '.') return false;
  if (pos > 1 && line[pos - 2] == '-' && line[pos - 1] == '>') return false;
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_preprocessor_line(const std::string& raw) {
  const std::string t = trim(raw);
  return !t.empty() && t[0] == '#';
}

/// A token that parses as a floating-point literal: starts with a digit or
/// '.', and contains a '.' or an exponent. "1.25", ".5", "2.", "1e9" yes;
/// "100", "x2", "0xFF" no.
bool is_float_literal(std::string_view tok) {
  if (tok.empty()) return false;
  if (tok[0] != '.' && std::isdigit(static_cast<unsigned char>(tok[0])) == 0) {
    return false;
  }
  if (tok.size() > 1 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
    return false;
  }
  bool has_dot = false;
  bool has_exp = false;
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (c == '.') {
      has_dot = true;
    } else if ((c == 'e' || c == 'E') && i > 0) {
      has_exp = true;
    } else if (c == '+' || c == '-') {
      if (i == 0 || (tok[i - 1] != 'e' && tok[i - 1] != 'E')) return false;
    } else if (c == 'f' || c == 'F' || c == 'l' || c == 'L') {
      if (i + 1 != tok.size()) return false;
    } else if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return false;
    }
  }
  return has_dot || has_exp;
}

// ---------------------------------------------------------------------------
// Pass 1b: fact extraction for the semantic passes — includes, function
// definitions with their call sites, and signal-handler registrations.
// The function parser is a deliberate heuristic (a brace/paren tracker
// over the stripped token stream, not a C++ front end); it is tuned to
// this codebase's style and covered by the fixture corpus.
// ---------------------------------------------------------------------------

void collect_includes(const StrippedFile& f, FileFacts& facts) {
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    const std::string t = trim(f.raw[i]);
    if (t.empty() || t[0] != '#') continue;
    std::size_t j = 1;
    while (j < t.size() && std::isspace(static_cast<unsigned char>(t[j])) != 0) {
      ++j;
    }
    if (t.compare(j, 7, "include") != 0) continue;
    const std::size_t open = t.find('"', j + 7);
    if (open == std::string::npos) continue;
    const std::size_t close = t.find('"', open + 1);
    if (close == std::string::npos) continue;
    facts.includes.push_back(IncludeFact{
        t.substr(open + 1, close - open - 1), static_cast<int>(i + 1)});
  }
}

struct Tok {
  std::string text;
  int line = 0;
  bool ident = false;
};

/// Tokenizes the stripped code view into identifiers and punctuation
/// ("::" and "->" kept as single tokens); numbers are consumed and
/// dropped, preprocessor lines are skipped entirely (a `#define` body
/// could otherwise unbalance the brace tracker).
std::vector<Tok> tokenize(const StrippedFile& f) {
  std::vector<Tok> toks;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (is_preprocessor_line(f.raw[i])) continue;
    const std::string& l = f.code[i];
    const int line = static_cast<int>(i + 1);
    std::size_t j = 0;
    while (j < l.size()) {
      const char c = l[j];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++j;
        continue;
      }
      if (is_ident_start(c)) {
        std::size_t e = j;
        while (e < l.size() && is_ident_char(l[e])) ++e;
        toks.push_back(Tok{l.substr(j, e - j), line, true});
        j = e;
      } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t e = j;
        while (e < l.size() && (is_ident_char(l[e]) || l[e] == '.')) ++e;
        j = e;  // numeric literal: dropped
      } else if (c == ':' && j + 1 < l.size() && l[j + 1] == ':') {
        toks.push_back(Tok{"::", line, false});
        j += 2;
      } else if (c == '-' && j + 1 < l.size() && l[j + 1] == '>') {
        toks.push_back(Tok{"->", line, false});
        j += 2;
      } else {
        toks.push_back(Tok{std::string(1, c), line, false});
        ++j;
      }
    }
  }
  return toks;
}

bool is_control_keyword(const std::string& s) {
  static const std::string_view kControl[] = {"if", "for", "while", "switch",
                                              "catch", "return", "do"};
  for (const std::string_view k : kControl) {
    if (s == k) return true;
  }
  return false;
}

/// Identifiers that look like calls syntactically but are operators,
/// casts, builtin-type conversions, or declaration noise.
bool is_call_noise(const std::string& s) {
  static const std::string_view kNoise[] = {
      "if",       "for",      "while",    "switch",     "catch",
      "return",   "sizeof",   "alignof",  "alignas",    "decltype",
      "noexcept", "throw",    "new",      "delete",     "static_assert",
      "defined",  "typeid",   "void",     "bool",       "char",
      "int",      "long",     "short",    "unsigned",   "signed",
      "float",    "double",   "auto",     "explicit",   "operator",
      "assert"};
  for (const std::string_view k : kNoise) {
    if (s == k) return true;
  }
  return false;
}

bool is_sig_disposition(const std::string& s) {
  return s == "SIG_IGN" || s == "SIG_DFL" || s == "SIG_ERR" ||
         s == "nullptr" || s == "NULL";
}

void collect_functions_and_handlers(const StrippedFile& f, FileFacts& facts) {
  const std::vector<Tok> toks = tokenize(f);

  enum class ScopeKind { kNamespace, kType, kFunction, kBlock };
  struct Scope {
    ScopeKind kind;
    int fn = -1;  ///< index into facts.functions for kFunction scopes
  };
  std::vector<Scope> scopes;
  std::vector<Tok> window;  // tokens since the last ';' / '{' / '}'

  auto innermost_function = [&]() -> int {
    for (std::size_t s = scopes.size(); s > 0; --s) {
      if (scopes[s - 1].kind == ScopeKind::kFunction) return scopes[s - 1].fn;
      if (scopes[s - 1].kind == ScopeKind::kNamespace) break;
    }
    return -1;
  };

  // Classifies the scope a '{' opens from its statement-head window.
  auto classify = [&](const std::vector<Tok>& w) -> Scope {
    for (const Tok& t : w) {
      if (t.ident && t.text == "namespace") return Scope{ScopeKind::kNamespace};
    }
    if (!w.empty()) {
      const std::string& last = w.back().text;
      if (last == "=" || last == "," || last == "(" || last == "return") {
        return Scope{ScopeKind::kBlock};  // braced initializer
      }
    }
    // Walk back over trailing specifiers (const, noexcept, override, a
    // trailing return type...) to the parameter list's ')'.
    std::size_t i = w.size();
    while (i > 0) {
      const Tok& t = w[i - 1];
      if (t.text == ")") break;
      if (t.ident || t.text == "::" || t.text == "->" || t.text == "<" ||
          t.text == ">" || t.text == "*" || t.text == "&") {
        --i;
        continue;
      }
      break;
    }
    if (i == 0 || w[i - 1].text != ")") {
      bool has_type_key = false;
      for (const Tok& t : w) {
        if (t.ident && (t.text == "class" || t.text == "struct" ||
                        t.text == "union" || t.text == "enum")) {
          has_type_key = true;
        }
      }
      return Scope{has_type_key ? ScopeKind::kType : ScopeKind::kBlock};
    }
    // Match the ')' at w[i-1] back to its '('.
    int depth = 0;
    std::size_t open = i - 1;
    for (std::size_t k = i; k > 0; --k) {
      const std::string& s = w[k - 1].text;
      if (s == ")") ++depth;
      if (s == "(" && --depth == 0) {
        open = k - 1;
        break;
      }
    }
    if (depth != 0 || open == 0) return Scope{ScopeKind::kBlock};
    const Tok& name = w[open - 1];
    if (!name.ident || is_control_keyword(name.text) ||
        name.text == "noexcept") {
      return Scope{ScopeKind::kBlock};
    }
    facts.functions.push_back(
        FunctionFact{name.text, w[open - 1].line, {}});
    return Scope{ScopeKind::kFunction,
                 static_cast<int>(facts.functions.size()) - 1};
  };

  for (std::size_t k = 0; k < toks.size(); ++k) {
    const Tok& t = toks[k];
    if (t.text == "{") {
      Scope s = classify(window);
      if (s.kind == ScopeKind::kFunction) {
        facts.functions[static_cast<std::size_t>(s.fn)].line = t.line;
      }
      scopes.push_back(s);
      window.clear();
      continue;
    }
    if (t.text == "}") {
      if (!scopes.empty()) scopes.pop_back();
      window.clear();
      continue;
    }
    if (t.text == ";") {
      window.clear();
      continue;
    }
    window.push_back(t);

    // Handler registration: `sa_handler = fn` / `sa_sigaction = fn`.
    if (t.ident && (t.text == "sa_handler" || t.text == "sa_sigaction") &&
        k + 1 < toks.size() && toks[k + 1].text == "=") {
      std::size_t a = k + 2;
      if (a < toks.size() && toks[a].text == "&") ++a;
      if (a < toks.size() && toks[a].ident &&
          !is_sig_disposition(toks[a].text)) {
        facts.handlers.push_back(HandlerFact{toks[a].text, toks[a].line});
      }
    }
    // Handler registration: `signal(SIG..., fn)` (free or std::-qualified).
    if (t.ident && t.text == "signal" && k + 1 < toks.size() &&
        toks[k + 1].text == "(") {
      int depth = 0;
      for (std::size_t a = k + 1; a < toks.size(); ++a) {
        const std::string& s = toks[a].text;
        if (s == "(") ++depth;
        if (s == ")" && --depth == 0) break;
        if (s == "," && depth == 1) {
          std::size_t h = a + 1;
          while (h < toks.size() &&
                 (toks[h].text == "&" || toks[h].text == "+")) {
            ++h;
          }
          if (h < toks.size() && toks[h].ident &&
              !is_sig_disposition(toks[h].text)) {
            facts.handlers.push_back(HandlerFact{toks[h].text, toks[h].line});
          }
          break;
        }
      }
    }
    // Call sites inside function bodies: `callee(` as a free or
    // namespace-qualified call.
    const int fn = innermost_function();
    if (fn >= 0 && t.ident && k + 1 < toks.size() &&
        toks[k + 1].text == "(" && !is_call_noise(t.text)) {
      // Walk back over a `ns::ns::` qualification chain to the receiver.
      std::size_t head = k;
      while (head >= 2 && toks[head - 1].text == "::" &&
             toks[head - 2].ident) {
        head -= 2;
      }
      const bool member =
          head > 0 &&
          (toks[head - 1].text == "." || toks[head - 1].text == "->");
      if (!member) {
        facts.functions[static_cast<std::size_t>(fn)].calls.push_back(
            CallFact{t.text, t.line});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file rules. Each appends candidate findings; suppressions are
// applied after the semantic passes, in finalize_report.
// ---------------------------------------------------------------------------

struct FileContext {
  std::string_view relpath;
  const StrippedFile& f;
  std::vector<Finding>& out;

  void add(const std::string& rule, int line, std::string detail) const {
    out.push_back(Finding{rule, std::string{relpath}, line, std::move(detail),
                          std::string{}});
  }
};

void rule_wall_clock(const FileContext& ctx) {
  // The two watchdog/telemetry translation units are the only places the
  // experiment layer may consult wall time (watchdog backstops, worker
  // telemetry); everything else must run on simulated time.
  if (ctx.relpath == "src/exp/scenario_runner.cpp" ||
      ctx.relpath == "src/exp/parallel.cpp") {
    return;
  }
  static const std::string_view kClocks[] = {"steady_clock", "system_clock",
                                             "high_resolution_clock"};
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    for (const std::string_view clk : kClocks) {
      for_each_token(ctx.f.code[i], clk, [&](std::size_t) {
        ctx.add("wall-clock", static_cast<int>(i + 1),
                std::string{clk} +
                    ": wall-clock reads are banned outside the allowlisted "
                    "watchdog/telemetry sites (src/exp/scenario_runner.cpp, "
                    "src/exp/parallel.cpp)");
      });
    }
  }
}

void rule_nondeterminism(const FileContext& ctx) {
  static const std::string_view kCalls[] = {"rand", "srand", "time", "clock",
                                            "getenv"};
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    const std::string& line = ctx.f.code[i];
    for (const std::string_view fn : kCalls) {
      for_each_token(line, fn, [&](std::size_t pos) {
        if (!is_free_call(line, pos, fn)) return;
        ctx.add("nondeterminism", static_cast<int>(i + 1),
                std::string{fn} +
                    "(): ambient nondeterminism source; results must be a "
                    "function of (scenario, seed) only");
      });
    }
    for_each_token(line, "random_device", [&](std::size_t) {
      ctx.add("nondeterminism", static_cast<int>(i + 1),
              "std::random_device: entropy source breaks seed "
              "reproducibility; use util/rng.hpp");
    });
  }
}

void rule_unordered(const FileContext& ctx) {
  static const std::string_view kContainers[] = {"unordered_map",
                                                 "unordered_set"};
  // Pass 1: every non-preprocessor mention of an unordered container must
  // be annotated (lookup-only is fine, but must say so); collect declared
  // identifier names along the way.
  std::vector<std::string> declared;
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    const std::string& line = ctx.f.code[i];
    if (is_preprocessor_line(ctx.f.raw[i])) continue;
    for (const std::string_view tpl : kContainers) {
      for_each_token(line, tpl, [&](std::size_t pos) {
        ctx.add("unordered-container", static_cast<int>(i + 1),
                std::string{tpl} +
                    ": hash containers have platform-dependent order; a "
                    "lookup-only use needs a justifying allow annotation");
        // Declaration form: container<Args...> name — skip the template
        // argument list (single line), then read the declared identifier.
        std::size_t j = pos + tpl.size();
        if (j >= line.size() || line[j] != '<') return;
        int depth = 0;
        for (; j < line.size(); ++j) {
          if (line[j] == '<') ++depth;
          if (line[j] == '>' && --depth == 0) {
            ++j;
            break;
          }
        }
        while (j < line.size() &&
               (std::isspace(static_cast<unsigned char>(line[j])) != 0 ||
                line[j] == '&')) {
          ++j;
        }
        std::string name;
        while (j < line.size() && is_ident_char(line[j])) {
          name.push_back(line[j]);
          ++j;
        }
        if (!name.empty()) declared.push_back(std::move(name));
      });
    }
  }
  // Pass 2: iterating one of the declared containers is order-dependent by
  // construction and cannot hide behind the declaration's annotation.
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    const std::string& line = ctx.f.code[i];
    for (const std::string& name : declared) {
      for_each_token(line, name, [&](std::size_t pos) {
        // Range-for: `for (... : name)`.
        std::size_t before = pos;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(line[before - 1])) !=
                   0) {
          --before;
        }
        bool fired = false;
        if (before > 0 && line[before - 1] == ':' &&
            (before < 2 || line[before - 2] != ':')) {
          bool in_for = false;
          for_each_token(line.substr(0, before), "for",
                         [&](std::size_t) { in_for = true; });
          if (in_for) fired = true;
        }
        // Explicit iteration: name.begin() / name.cbegin().
        std::size_t after = pos + name.size();
        if (!fired && after < line.size() && line[after] == '.') {
          const std::string rest = line.substr(after + 1);
          if (starts_with(rest, "begin") || starts_with(rest, "cbegin")) {
            fired = true;
          }
        }
        if (fired) {
          ctx.add("unordered-iteration", static_cast<int>(i + 1),
                  "iteration over hash container '" + name +
                      "' is order-dependent; use an ordered container or "
                      "sort before iterating");
        }
      });
    }
  }
}

void rule_casts(const FileContext& ctx) {
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    for_each_token(ctx.f.code[i], "const_cast", [&](std::size_t) {
      ctx.add("const-cast", static_cast<int>(i + 1),
              "const_cast: mutating through a const view invites the "
              "priority_queue-era UB back; redesign the ownership instead");
    });
    for_each_token(ctx.f.code[i], "reinterpret_cast", [&](std::size_t) {
      ctx.add("reinterpret-cast", static_cast<int>(i + 1),
              "reinterpret_cast outside the annotated pooled-storage "
              "sites");
    });
  }
}

void rule_raw_parse(const FileContext& ctx) {
  // The strict whole-token parsers live here; everything else goes
  // through them so malformed tokens fail loudly.
  if (ctx.relpath == "src/exp/cli_flags.cpp") return;
  static const std::string_view kParsers[] = {
      "atoi",  "atof",  "atol",  "atoll",   "strtod", "strtof", "strtold",
      "strtol", "strtoll", "strtoul", "strtoull", "stod",   "stof",
      "stold", "stoi",  "stol",  "stoll",   "stoul",  "stoull"};
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    const std::string& line = ctx.f.code[i];
    for (const std::string_view fn : kParsers) {
      for_each_token(line, fn, [&](std::size_t pos) {
        if (!is_free_call(line, pos, fn)) return;
        ctx.add("raw-parse", static_cast<int>(i + 1),
                std::string{fn} +
                    "(): silently accepts garbage/partial tokens; use "
                    "parse_double_strict / parse_int_strict / "
                    "parse_u64_strict (src/exp/cli_flags.hpp)");
      });
    }
  }
}

void rule_float(const FileContext& ctx) {
  // Model equations and CC state machines are double-only: float narrows
  // intermediates platform-dependently under FMA/x87 contraction.
  if (!starts_with(ctx.relpath, "src/model/") &&
      !starts_with(ctx.relpath, "src/cc/")) {
    return;
  }
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    const std::string& line = ctx.f.code[i];
    for_each_token(line, "float", [&](std::size_t) {
      ctx.add("float-type", static_cast<int>(i + 1),
              "float: model/CC arithmetic is double-only (see DESIGN.md); "
              "float intermediates drift across platforms");
    });
    for (std::size_t pos = 0; pos + 1 < line.size(); ++pos) {
      const bool eq = line[pos] == '=' && line[pos + 1] == '=';
      const bool ne = line[pos] == '!' && line[pos + 1] == '=';
      if (!eq && !ne) continue;
      if (pos + 2 < line.size() && line[pos + 2] == '=') continue;
      if (eq && pos > 0 &&
          std::string_view{"<>!=+-*/%&|^"}.find(line[pos - 1]) !=
              std::string_view::npos) {
        continue;
      }
      // Extract the operand tokens on both sides.
      auto read_right = [&] {
        std::size_t j = pos + 2;
        while (j < line.size() &&
               std::isspace(static_cast<unsigned char>(line[j])) != 0) {
          ++j;
        }
        if (j < line.size() && line[j] == '-') ++j;
        std::string tok;
        while (j < line.size() &&
               (is_ident_char(line[j]) || line[j] == '.' ||
                ((line[j] == '+' || line[j] == '-') && !tok.empty() &&
                 (tok.back() == 'e' || tok.back() == 'E')))) {
          tok.push_back(line[j]);
          ++j;
        }
        return tok;
      };
      auto read_left = [&] {
        std::size_t j = pos;
        while (j > 0 &&
               std::isspace(static_cast<unsigned char>(line[j - 1])) != 0) {
          --j;
        }
        std::size_t end = j;
        while (j > 0 && (is_ident_char(line[j - 1]) || line[j - 1] == '.')) {
          --j;
        }
        return line.substr(j, end - j);
      };
      if (is_float_literal(read_right()) || is_float_literal(read_left())) {
        ctx.add("float-equality", static_cast<int>(i + 1),
                "exact ==/!= against a floating-point literal; compare "
                "with an explicit tolerance or an integer/enum state");
      }
    }
  }
}

void rule_process_control(const FileContext& ctx) {
  // Forking, signalling, reaping or replacing processes — and raw
  // socket/signal-disposition/unlink syscalls — make results depend on OS
  // scheduling and host process state. The sweep fabric
  // (src/exp/fabric.cpp) concentrates every such call into annotated
  // shims; anywhere else the call needs its own justifying annotation.
  static const std::string_view kCalls[] = {
      "fork",   "vfork",  "waitpid",   "wait",   "kill",   "raise",
      "system", "popen",  "_exit",     "_Exit",  "execv",  "execve",
      "execvp", "execl",  "socket",    "bind",   "listen", "accept",
      "connect", "sigaction", "signal", "unlink"};
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    const std::string& line = ctx.f.code[i];
    for (const std::string_view fn : kCalls) {
      for_each_token(line, fn, [&](std::size_t pos) {
        if (!is_free_call(line, pos, fn)) return;
        ctx.add("process-control", static_cast<int>(i + 1),
                std::string{fn} +
                    "(): process/socket/signal control outside the "
                    "annotated shims; route through src/exp/fabric.cpp, or "
                    "justify with an allow annotation");
      });
    }
  }
}

void rule_cc_virtual(const FileContext& ctx) {
  // CC dispatch is CcVariant's switch over concrete algorithms (see
  // DESIGN.md §6a), with no base class: a `virtual` member under src/cc/
  // would reopen the indirect-call cost the variant removed, and one added
  // to a concrete CCA would be bypassed by the variant's direct calls. Any
  // virtual there needs a justifying allow annotation.
  if (!starts_with(ctx.relpath, "src/cc/")) return;
  for (std::size_t i = 0; i < ctx.f.code.size(); ++i) {
    for_each_token(ctx.f.code[i], "virtual", [&](std::size_t) {
      ctx.add("cc-virtual", static_cast<int>(i + 1),
              "virtual member under src/cc/: CC dispatch is CcVariant's "
              "switch over concrete algorithms (cc_variant.hpp); add an "
              "alternative to it, or justify the virtual with an allow "
              "annotation");
    });
  }
}

void rule_pragma_once(const FileContext& ctx) {
  if (ctx.relpath.size() < 4 ||
      ctx.relpath.substr(ctx.relpath.size() - 4) != ".hpp") {
    return;
  }
  for (const std::string& raw : ctx.f.raw) {
    if (trim(raw) == "#pragma once") return;
  }
  ctx.add("pragma-once", 1, "header is missing #pragma once");
}

// ---------------------------------------------------------------------------
// Suppression application (shared by scan_file and finalize_report).
// ---------------------------------------------------------------------------

void apply_suppressions(ScanUnit& unit, TreeReport& out) {
  const int n_lines = static_cast<int>(unit.code.size());
  auto line_has_code = [&](int line1) {
    return unit.code[static_cast<std::size_t>(line1 - 1)].find_first_not_of(
               " \t\r") != std::string::npos;
  };
  // A suppression covers its own line through the next line carrying any
  // code, so it can sit on the offending line or in a (possibly
  // multi-line) comment immediately above it.
  auto cover_end = [&](const Suppression& s) {
    int l = s.line + 1;
    while (l <= n_lines && !line_has_code(l)) ++l;
    return std::min(l, n_lines);
  };
  for (Finding& fd : unit.candidates) {
    bool masked = false;
    for (Suppression& s : unit.suppressions) {
      if (s.rule == fd.rule && s.line <= fd.line && fd.line <= cover_end(s)) {
        s.used = true;
        masked = true;
      }
    }
    if (!masked) out.findings.push_back(std::move(fd));
  }
  for (const Suppression& s : unit.suppressions) {
    if (!s.used) {
      out.findings.push_back(
          Finding{"unused-suppression", s.file, s.line,
                  "allow(" + s.rule + ") masks nothing; remove the stale "
                  "annotation",
                  std::string{}});
    }
  }
  out.suppressions.insert(out.suppressions.end(), unit.suppressions.begin(),
                          unit.suppressions.end());
  ++out.files_scanned;
}

void sort_report(TreeReport& report) {
  // Deterministic (file, line) order regardless of directory traversal
  // order and of which pass appended a finding; `detail` participates so
  // two same-rule findings on one line render in a stable order too.
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.detail) <
                     std::tie(b.file, b.line, b.rule, b.detail);
            });
  std::sort(report.suppressions.begin(), report.suppressions.end(),
            [](const Suppression& a, const Suppression& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> rule_names() {
  return {"wall-clock",       "nondeterminism",      "unordered-container",
          "unordered-iteration", "const-cast",       "reinterpret-cast",
          "raw-parse",        "float-type",          "float-equality",
          "pragma-once",      "process-control",     "cc-virtual",
          "include-layering", "include-cycle",       "signal-unsafe-call",
          "schema-literal",   "schema-registry",     "unused-suppression"};
}

ScanUnit scan_unit(const std::filesystem::path& path,
                   std::string_view relpath) {
  StrippedFile f = strip_file(path);

  ScanUnit unit;
  unit.relpath = std::string{relpath};
  unit.facts.strings = f.strings;
  collect_includes(f, unit.facts);
  collect_functions_and_handlers(f, unit.facts);

  const FileContext ctx{relpath, f, unit.candidates};
  rule_wall_clock(ctx);
  rule_nondeterminism(ctx);
  rule_unordered(ctx);
  rule_casts(ctx);
  rule_raw_parse(ctx);
  rule_float(ctx);
  rule_process_control(ctx);
  rule_cc_virtual(ctx);
  rule_pragma_once(ctx);

  unit.suppressions = std::move(f.annotations);
  const int n_lines = static_cast<int>(f.code.size());
  auto line_has_code = [&](int line1) {
    return f.code[static_cast<std::size_t>(line1 - 1)].find_first_not_of(
               " \t\r") != std::string::npos;
  };
  auto is_comment_only = [&](int line1) {
    return !line_has_code(line1) &&
           starts_with(trim(f.raw[static_cast<std::size_t>(line1 - 1)]), "//");
  };
  for (Suppression& s : unit.suppressions) {
    s.file = std::string{relpath};
    // Merge continuation comment lines into the justification.
    for (int l = s.line + 1; l <= n_lines && is_comment_only(l); ++l) {
      const std::string raw = trim(f.raw[static_cast<std::size_t>(l - 1)]);
      std::size_t at = 0;
      while (at < raw.size() && raw[at] == '/') ++at;
      const std::string cont = trim(raw.substr(at));
      if (cont.find(kAllowMarker) != std::string::npos) break;
      if (!cont.empty()) s.reason += (s.reason.empty() ? "" : " ") + cont;
    }
  }

  unit.raw = std::move(f.raw);
  unit.code = std::move(f.code);
  return unit;
}

TreeReport finalize_report(std::vector<ScanUnit> units) {
  TreeReport report;
  for (ScanUnit& unit : units) apply_suppressions(unit, report);
  sort_report(report);
  return report;
}

void scan_file(const std::filesystem::path& path, std::string_view relpath,
               TreeReport& out) {
  ScanUnit unit = scan_unit(path, relpath);
  apply_suppressions(unit, out);
}

TreeReport scan_tree(const std::filesystem::path& root,
                     const std::vector<std::string>& dirs) {
  std::vector<std::pair<std::string, std::filesystem::path>> files;
  for (const std::string& dir : dirs) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::exists(base)) continue;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      std::string rel =
          std::filesystem::relative(entry.path(), root).generic_string();
      // The fixture corpus holds deliberate violations for the lint's own
      // tests; never treat it as part of the tree under audit.
      if (rel.find("tests/lint/fixtures") != std::string::npos) continue;
      files.emplace_back(std::move(rel), entry.path());
    }
  }
  // Sort AND deduplicate: overlapping --dirs entries (e.g. "src,src/sim")
  // must not scan — and report — a file twice.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              files.end());

  std::vector<ScanUnit> units;
  units.reserve(files.size());
  for (const auto& [rel, path] : files) units.push_back(scan_unit(path, rel));

  run_semantic_passes(root, units);

  return finalize_report(std::move(units));
}

int render_report(const TreeReport& report, std::string& out,
                  bool list_suppressions) {
  std::ostringstream os;
  if (list_suppressions) {
    for (const Suppression& s : report.suppressions) {
      os << "bbrnash-lint: suppression " << s.file << ":" << s.line << " ["
         << s.rule << "]"
         << (s.reason.empty() ? "" : " -- " + s.reason) << "\n";
    }
  }
  for (const Finding& f : report.findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.detail
       << "\n";
  }
  os << "bbrnash-lint: " << report.findings.size() << " violation"
     << (report.findings.size() == 1 ? "" : "s") << ", "
     << report.suppressions.size() << " suppression"
     << (report.suppressions.size() == 1 ? "" : "s") << ", "
     << report.files_scanned << " files scanned\n";
  out = os.str();
  return report.findings.empty() ? 0 : 1;
}

int render_json(const TreeReport& report, std::string& out) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << lint_report_schema() << "\",\n";
  os << "  \"files_scanned\": " << report.files_scanned << ",\n";
  os << "  \"violations\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"rule\": \"" << json_escape(f.rule) << "\", \"file\": \""
       << json_escape(f.file) << "\", \"line\": " << f.line
       << ", \"pass\": \""
       << (f.pass_name.empty() ? "scan" : json_escape(f.pass_name))
       << "\", \"detail\": \"" << json_escape(f.detail) << "\"}";
  }
  os << (report.findings.empty() ? "],\n" : "\n  ],\n");
  os << "  \"suppressions\": [";
  for (std::size_t i = 0; i < report.suppressions.size(); ++i) {
    const Suppression& s = report.suppressions[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"rule\": \"" << json_escape(s.rule) << "\", \"file\": \""
       << json_escape(s.file) << "\", \"line\": " << s.line
       << ", \"used\": " << (s.used ? "true" : "false")
       << ", \"reason\": \"" << json_escape(s.reason) << "\"}";
  }
  os << (report.suppressions.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  out = os.str();
  return report.findings.empty() ? 0 : 1;
}

}  // namespace bbrnash::lint
