// Rule implementations for vsgc-lint. See rules.hpp for the rule vocabulary
// and DESIGN.md §8 for why each rule exists.
#include "lint/linter.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

namespace vsgc::lint {

namespace {

using Toks = std::vector<Token>;

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Directories whose code must be a pure function of the seed.
bool in_determinism_scope(std::string_view path) {
  static constexpr std::array<std::string_view, 6> kDirs = {
      "src/sim/", "src/net/", "src/gcs/", "src/membership/", "src/app/",
      "src/mc/"};
  for (std::string_view d : kDirs) {
    if (starts_with(path, d)) return true;
  }
  return false;
}

bool getenv_exempt(std::string_view path) {
  return starts_with(path, "src/obs/") || path == "src/util/logging.hpp";
}

bool is_wire_header(std::string_view path) {
  return path == "src/gcs/messages.hpp" || path == "src/gcs/app_msg.hpp" ||
         path == "src/membership/wire.hpp" ||
         path == "src/membership/view.hpp" ||
         path == "src/transport/frame.hpp";
}

bool is_id(const Toks& t, std::size_t i, std::string_view s) {
  return i < t.size() && t[i].kind == TokKind::kIdentifier && t[i].text == s;
}

bool is_punct(const Toks& t, std::size_t i, char c) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text[0] == c;
}

/// Index just past the brace/paren that matches the opener at `open_idx`.
/// Returns t.size() when unbalanced (degrade gracefully, never throw).
std::size_t skip_balanced(const Toks& t, std::size_t open_idx, char open,
                          char close) {
  int depth = 0;
  for (std::size_t i = open_idx; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text[0] == open) ++depth;
    if (t[i].text[0] == close && --depth == 0) return i + 1;
  }
  return t.size();
}

// --- determinism rules ------------------------------------------------------

void rule_banned_random(const std::string& path, const Toks& toks,
                        std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 9> kBanned = {
      "rand",         "srand",        "random_device",
      "mt19937",      "mt19937_64",   "minstd_rand",
      "minstd_rand0", "ranlux24",     "random_shuffle"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    for (std::string_view b : kBanned) {
      if (toks[i].text == b) {
        out.push_back({path, toks[i].line, "banned-random",
                       "'" + toks[i].text +
                           "' is ambient randomness; draw from util/rng.hpp "
                           "(vsgc::Rng) so executions replay from a seed",
                       false, ""});
      }
    }
    if (toks[i].text == "default_random_engine") {
      out.push_back({path, toks[i].line, "banned-random",
                     "'default_random_engine' is ambient randomness; use "
                     "vsgc::Rng",
                     false, ""});
    }
  }
}

void rule_banned_time(const std::string& path, const Toks& toks,
                      std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 8> kAlways = {
      "gettimeofday", "clock_gettime", "system_clock",
      "steady_clock", "high_resolution_clock",
      "localtime",    "gmtime",        "mktime"};
  // `time` and `clock` are flagged only as direct calls (`time(`), and not as
  // member accesses (`obj.clock(...)`) — vector clocks are a legitimate local
  // concept in this codebase.
  static constexpr std::array<std::string_view, 2> kCallOnly = {"time",
                                                                "clock"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    for (std::string_view b : kAlways) {
      if (toks[i].text == b) {
        out.push_back({path, toks[i].line, "banned-time",
                       "'" + toks[i].text +
                           "' reads wall-clock time; simulated code must use "
                           "sim::Simulator::now()",
                       false, ""});
      }
    }
    for (std::string_view b : kCallOnly) {
      if (toks[i].text == b && is_punct(toks, i + 1, '(') &&
          !(i > 0 && (is_punct(toks, i - 1, '.') ||
                      is_punct(toks, i - 1, '>')))) {
        out.push_back({path, toks[i].line, "banned-time",
                       "'" + toks[i].text +
                           "()' reads wall-clock time; simulated code must "
                           "use sim::Simulator::now()",
                       false, ""});
      }
    }
  }
}

void rule_banned_getenv(const std::string& path, const Toks& toks,
                        std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 4> kBanned = {
      "getenv", "secure_getenv", "setenv", "putenv"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    for (std::string_view b : kBanned) {
      if (toks[i].text == b) {
        out.push_back({path, toks[i].line, "banned-getenv",
                       "'" + toks[i].text +
                           "' makes behavior depend on the ambient "
                           "environment; only src/obs and util/logging.hpp "
                           "may consult it",
                       false, ""});
      }
    }
  }
}

void rule_pointer_order(const std::string& path, const Toks& toks,
                        std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 6> kOrdered = {
      "map", "set", "multimap", "multiset", "less", "greater"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    bool interesting = false;
    for (std::string_view k : kOrdered) interesting |= (toks[i].text == k);
    if (!interesting || !is_punct(toks, i + 1, '<')) continue;
    if (i > 0 && is_id(toks, i - 1, "operator")) continue;
    // Scan the first template argument; a trailing '*' means the container
    // orders by pointer value, which varies run to run under ASLR.
    int depth = 1;
    std::size_t last_tok = 0;
    bool has_last = false;
    bool bailed = false;
    for (std::size_t j = i + 2; j < toks.size() && j < i + 2 + 64; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kPunct) {
        const char c = t.text[0];
        if (c == '<') ++depth;
        if (c == '>' && --depth == 0) break;
        if (c == ',' && depth == 1) break;
        // Statement punctuation: this was a comparison, not a template.
        if (c == ';' || c == '{' || c == '}' || c == ')') {
          bailed = true;
          break;
        }
      }
      last_tok = j;
      has_last = true;
    }
    if (!bailed && has_last && is_punct(toks, last_tok, '*')) {
      out.push_back({path, toks[i].line, "pointer-order",
                     "'" + toks[i].text +
                         "<T*>' orders by pointer value, which changes with "
                         "ASLR; key on a stable id instead",
                     false, ""});
    }
  }
}

static constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

bool is_unordered_type(const Toks& t, std::size_t i) {
  if (i >= t.size() || t[i].kind != TokKind::kIdentifier) return false;
  for (std::string_view u : kUnorderedTypes) {
    if (t[i].text == u) return true;
  }
  return false;
}

/// Names of variables/members declared with an unordered container type.
std::vector<std::string> unordered_decl_names(const Toks& toks) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_unordered_type(toks, i)) continue;
    std::size_t j = i + 1;
    if (is_punct(toks, j, '<')) j = skip_balanced(toks, j, '<', '>');
    while (is_punct(toks, j, '&') || is_punct(toks, j, '*') ||
           is_id(toks, j, "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
      names.push_back(toks[j].text);
    }
  }
  return names;
}

/// Calls with externally visible effects: message sends, event scheduling,
/// trace emission. Iterating a hash container to produce any of these makes
/// the schedule depend on hash order.
static constexpr std::array<std::string_view, 16> kEffectCalls = {
    "send",     "send_to",   "send_raw",       "broadcast",
    "multicast", "schedule", "schedule_at",    "schedule_after",
    "schedule_in", "emit",   "deliver",        "post",
    "enqueue",  "publish",   "trace",          "record"};

void rule_unordered_iteration(const std::string& path, const Toks& toks,
                              std::vector<Finding>& out) {
  const std::vector<std::string> unordered = unordered_decl_names(toks);
  auto is_unordered_name = [&](const Token& t) {
    if (t.kind != TokKind::kIdentifier) return false;
    return std::find(unordered.begin(), unordered.end(), t.text) !=
           unordered.end();
  };

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_id(toks, i, "for") || !is_punct(toks, i + 1, '(')) continue;
    const std::size_t header_end = skip_balanced(toks, i + 1, '(', ')');

    // Does the loop range over an unordered container? Two shapes:
    //  * range-for whose range expression names one (or spells the type);
    //  * classic for calling .begin()/.cbegin() on one.
    bool over_unordered = false;
    int depth = 0;
    for (std::size_t j = i + 1; j < header_end; ++j) {
      if (is_punct(toks, j, '(')) ++depth;
      if (is_punct(toks, j, ')')) --depth;
      const bool lone_colon = is_punct(toks, j, ':') &&
                              !is_punct(toks, j - 1, ':') &&
                              !is_punct(toks, j + 1, ':');
      if (lone_colon && depth == 1) {
        for (std::size_t k = j + 1; k + 1 < header_end; ++k) {
          if (is_unordered_name(toks[k]) || is_unordered_type(toks, k)) {
            over_unordered = true;
          }
        }
        break;
      }
      if (is_unordered_name(toks[j]) && is_punct(toks, j + 1, '.') &&
          (is_id(toks, j + 2, "begin") || is_id(toks, j + 2, "cbegin"))) {
        over_unordered = true;
      }
    }
    if (!over_unordered) continue;

    std::size_t body_end;
    if (is_punct(toks, header_end, '{')) {
      body_end = skip_balanced(toks, header_end, '{', '}');
    } else {
      body_end = header_end;
      while (body_end < toks.size() && !is_punct(toks, body_end, ';')) {
        ++body_end;
      }
    }
    for (std::size_t j = header_end; j < body_end; ++j) {
      if (toks[j].kind != TokKind::kIdentifier) continue;
      for (std::string_view e : kEffectCalls) {
        if (toks[j].text == e && is_punct(toks, j + 1, '(')) {
          out.push_back(
              {path, toks[i].line, "unordered-iteration",
               "loop over unordered container calls '" + toks[j].text +
                   "'; hash order is nondeterministic — iterate a std::map "
                   "or a sorted snapshot instead",
               false, ""});
          j = body_end;  // one finding per loop is enough
          break;
        }
      }
    }
  }
}

// --- protocol-hygiene rules -------------------------------------------------

void rule_include_guard(const std::string& path, const Toks& toks,
                        std::vector<Finding>& out) {
  if (!ends_with(path, ".hpp")) return;
  if (toks.empty()) {
    out.push_back({path, 1, "include-guard",
                   "empty header; expected '#pragma once'", false, ""});
    return;
  }
  const Token& first = toks.front();
  const bool pragma_once =
      first.kind == TokKind::kPreprocessor &&
      first.text.find("pragma") != std::string::npos &&
      first.text.find("once") != std::string::npos;
  if (!pragma_once) {
    const bool old_guard = first.kind == TokKind::kPreprocessor &&
                           first.text.find("ifndef") != std::string::npos;
    out.push_back({path, first.line, "include-guard",
                   old_guard
                       ? "uses an #ifndef include guard; this repo's single "
                         "style is '#pragma once' as the first directive"
                       : "header must start with '#pragma once'",
                   false, ""});
  }
}

void rule_wire_init(const std::string& path, const Toks& toks,
                    std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 12> kSkipLeaders = {
      "friend", "static",   "using",     "typedef", "template", "operator",
      "enum",   "struct",   "class",     "union",   "public",   "private"};

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_id(toks, i, "struct") && !is_id(toks, i, "class")) continue;
    // Find the opening brace of the definition; a ';' first means a forward
    // declaration (or the end of a nested-type member we will skip anyway).
    std::size_t open = i + 1;
    bool has_body = false;
    while (open < toks.size()) {
      if (is_punct(toks, open, '{')) {
        has_body = true;
        break;
      }
      if (is_punct(toks, open, ';')) break;
      ++open;
    }
    if (!has_body) continue;

    std::size_t pos = open + 1;
    const std::size_t end = skip_balanced(toks, open, '{', '}');
    while (pos + 1 < end) {
      // Access label: `public:` / `protected:` / `private:`.
      if ((is_id(toks, pos, "public") || is_id(toks, pos, "private") ||
           is_id(toks, pos, "protected")) &&
          is_punct(toks, pos + 1, ':')) {
        pos += 2;
        continue;
      }
      // Statements led by non-data keywords: consume to ';' (balancing any
      // braces, e.g. nested enum/struct bodies or defaulted functions).
      bool skip_stmt = false;
      for (std::string_view kw : kSkipLeaders) {
        if (is_id(toks, pos, kw)) skip_stmt = true;
      }
      if (is_id(toks, pos, "protected")) skip_stmt = true;
      if (skip_stmt) {
        // A function definition (a parameter list before the body, e.g. a
        // wire struct's `template <...> static void fields(...) {...}`)
        // ends at its closing brace; a type body (enum/struct) at its ';'.
        bool is_function = false;
        while (pos < end && !is_punct(toks, pos, ';')) {
          if (is_punct(toks, pos, '(')) {
            pos = skip_balanced(toks, pos, '(', ')');
            is_function = true;
            continue;
          }
          if (is_punct(toks, pos, '{')) {
            pos = skip_balanced(toks, pos, '{', '}');
            if (is_function) break;
            continue;
          }
          ++pos;
        }
        if (is_punct(toks, pos, ';')) ++pos;
        continue;
      }

      // Otherwise: a data member, a member function, or a constructor.
      // Classify by what appears first: '(' => function; '='/'{' =>
      // initialized member; ';' => uninitialized member (the finding).
      std::size_t j = pos;
      std::size_t last_ident = 0;
      bool found = false;
      enum class Stmt { kFunction, kInitialized, kUninitialized } verdict =
          Stmt::kUninitialized;
      int angle = 0;
      while (j < end) {
        const Token& t = toks[j];
        if (t.kind == TokKind::kIdentifier) {
          if (angle == 0) {
            last_ident = j;
            found = true;
          }
          ++j;
          continue;
        }
        if (t.kind == TokKind::kPunct) {
          const char c = t.text[0];
          if (c == '<') ++angle;
          if (c == '>' && angle > 0) --angle;
          if (angle == 0) {
            if (c == '(') {
              verdict = Stmt::kFunction;
              break;
            }
            if (c == '=' || c == '{') {
              verdict = Stmt::kInitialized;
              break;
            }
            if (c == ';') break;
          }
        }
        ++j;
      }

      if (verdict == Stmt::kUninitialized) {
        if (found) {
          out.push_back(
              {path, toks[pos].line, "wire-init",
               "wire struct member '" + toks[last_ident].text +
                   "' has no in-class initializer; add '{}' (or a value) so "
                   "no wire field is ever indeterminate",
               false, ""});
        }
        while (j < end && !is_punct(toks, j, ';')) ++j;
        pos = j + 1;
        continue;
      }

      // Function or initialized member: consume the full statement,
      // balancing parens and braces; a function body needs no trailing ';'.
      bool saw_body = false;
      while (j < end) {
        if (is_punct(toks, j, '(')) {
          j = skip_balanced(toks, j, '(', ')');
          continue;
        }
        if (is_punct(toks, j, '{')) {
          j = skip_balanced(toks, j, '{', '}');
          saw_body = true;
          if (verdict == Stmt::kFunction) break;
          continue;
        }
        if (is_punct(toks, j, ';')) {
          ++j;
          break;
        }
        ++j;
      }
      if (saw_body && verdict == Stmt::kFunction && is_punct(toks, j, ';')) {
        ++j;
      }
      pos = j;
    }
    // Continue the outer loop from inside the struct so nested structs get
    // their own member scan when the outer `for` reaches their token.
  }
}

}  // namespace

// --- driver -----------------------------------------------------------------

void Linter::lint_source(const std::string& rel_path,
                         const std::string& text) {
  ++files_scanned_;
  LexResult lexed = lex(text);
  std::vector<Finding> file_findings;

  if (in_determinism_scope(rel_path)) {
    rule_banned_random(rel_path, lexed.tokens, file_findings);
    rule_banned_time(rel_path, lexed.tokens, file_findings);
    rule_pointer_order(rel_path, lexed.tokens, file_findings);
    rule_unordered_iteration(rel_path, lexed.tokens, file_findings);
  }
  if (!getenv_exempt(rel_path)) {
    rule_banned_getenv(rel_path, lexed.tokens, file_findings);
  }
  rule_include_guard(rel_path, lexed.tokens, file_findings);
  if (is_wire_header(rel_path)) {
    rule_wire_init(rel_path, lexed.tokens, file_findings);
  }

  apply_suppressions(rel_path, file_findings, lexed.pragmas);
  findings_.insert(findings_.end(), file_findings.begin(),
                   file_findings.end());

  FileRecord rec;
  rec.pragmas = std::move(lexed.pragmas);
  if (starts_with(rel_path, "src/spec/")) rec.text = text;
  rec.includes = extract_includes(lexed.tokens);
  if (in_sim_purity_scope(rel_path)) {
    rec.sim_uses = find_sim_uses(lexed.tokens, rec.includes);
  }
  files_[rel_path] = std::move(rec);
}

void Linter::apply_suppressions(const std::string& rel_path,
                                std::vector<Finding>& file_findings,
                                std::vector<AllowPragma>& pragmas) {
  // Pragma health first: malformed / unknown-rule / justification-free
  // pragmas are findings themselves and never suppress anything.
  for (const AllowPragma& p : pragmas) {
    if (!p.parse_ok) {
      file_findings.push_back({rel_path, p.line, "bad-pragma",
                               "malformed vsgc-lint pragma: " + p.parse_error,
                               false, ""});
    } else if (!is_known_rule(p.rule)) {
      file_findings.push_back({rel_path, p.line, "bad-pragma",
                               "unknown rule '" + p.rule +
                                   "' in allow(...); see vsgc_lint "
                                   "--list-rules",
                               false, ""});
    } else if (p.justification.empty()) {
      file_findings.push_back(
          {rel_path, p.line, "bad-pragma",
           "allow(" + p.rule +
               ") carries no justification; say why the exception is safe",
           false, ""});
    }
  }
  for (Finding& f : file_findings) {
    if (f.rule == "bad-pragma") continue;
    if (f.suppressed) continue;  // e.g. already ledgered (sim-purity)
    for (AllowPragma& p : pragmas) {
      if (!p.parse_ok || p.rule != f.rule || p.justification.empty()) continue;
      // A pragma covers its own line and the line directly below it, so it
      // can sit at the end of the offending line or on its own line above.
      if (p.line == f.line || p.line + 1 == f.line) {
        f.suppressed = true;
        f.justification = p.justification;
        p.used = true;
      }
    }
  }
}

void Linter::check_event_coverage() {
  const auto events_it = files_.find("src/spec/events.hpp");
  const auto hub_it = files_.find("src/spec/all_checkers.hpp");
  if (events_it == files_.end() || hub_it == files_.end()) return;
  event_coverage_ran_ = true;

  LexResult events = lex(events_it->second.text);
  const Toks& toks = events.tokens;

  // Locate `using EventBody = std::variant<...>` and collect the alternative
  // names (last identifier of each comma-separated argument).
  std::vector<std::string> alternatives;
  int variant_line = 0;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_id(toks, i, "using") || !is_id(toks, i + 1, "EventBody")) continue;
    std::size_t j = i + 2;
    while (j < toks.size() && !is_punct(toks, j, '<')) ++j;
    if (j == toks.size()) return;
    variant_line = toks[j].line;
    const std::size_t close = skip_balanced(toks, j, '<', '>');
    std::string last_ident;
    int depth = 1;
    for (std::size_t k = j + 1; k + 1 < close; ++k) {
      if (toks[k].kind == TokKind::kPunct) {
        const char c = toks[k].text[0];
        if (c == '<') ++depth;
        if (c == '>') --depth;
        if (c == ',' && depth == 1 && !last_ident.empty()) {
          alternatives.push_back(last_ident);
          last_ident.clear();
        }
        continue;
      }
      if (toks[k].kind == TokKind::kIdentifier && depth == 1) {
        last_ident = toks[k].text;
      }
    }
    if (!last_ident.empty()) alternatives.push_back(last_ident);
    break;
  }
  if (alternatives.empty()) return;

  // Checker set = all_checkers.hpp itself (the bundle consumes events too),
  // every file it includes as "spec/..." other than events.hpp (which only
  // declares them), and each one's .cpp twin (consumption may live
  // out-of-line).
  std::string checker_text = hub_it->second.text;
  {
    LexResult hub = lex(hub_it->second.text);
    for (const Token& t : hub.tokens) {
      if (t.kind != TokKind::kPreprocessor) continue;
      const std::size_t q1 = t.text.find('"');
      const std::size_t q2 =
          q1 == std::string::npos ? q1 : t.text.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      const std::string inc = t.text.substr(q1 + 1, q2 - q1 - 1);
      if (!starts_with(inc, "spec/") || inc == "spec/events.hpp") continue;
      const std::string hpp = "src/" + inc;
      if (auto it = files_.find(hpp); it != files_.end()) {
        checker_text += it->second.text;
      }
      if (ends_with(hpp, ".hpp")) {
        const std::string cpp = hpp.substr(0, hpp.size() - 4) + ".cpp";
        if (auto it = files_.find(cpp); it != files_.end()) {
          checker_text += it->second.text;
        }
      }
    }
  }
  LexResult checkers = lex(checker_text);

  std::vector<Finding> file_findings;
  for (const std::string& alt : alternatives) {
    bool consumed = false;
    for (const Token& t : checkers.tokens) {
      if (t.kind == TokKind::kIdentifier && t.text == alt) {
        consumed = true;
        break;
      }
    }
    if (consumed) continue;
    // Anchor the finding at the event struct's definition so a same-line
    // pragma can carry the justification next to the type.
    int line = variant_line;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (is_id(toks, i, "struct") && is_id(toks, i + 1, alt)) {
        line = toks[i].line;
        break;
      }
    }
    file_findings.push_back(
        {"src/spec/events.hpp", line, "event-coverage",
         "spec event '" + alt +
             "' is emitted on the TraceBus but consumed by no checker "
             "reachable from src/spec/all_checkers.hpp",
         false, ""});
  }
  apply_suppressions("src/spec/events.hpp", file_findings,
                     events_it->second.pragmas);
  findings_.insert(findings_.end(), file_findings.begin(),
                   file_findings.end());
}

void Linter::set_sim_ledger(const std::string& display_path,
                            const std::string& text) {
  ledger_ = parse_ledger(display_path, text);
  ledger_set_ = true;
}

void Linter::check_architecture() {
  std::map<std::string, std::vector<RawInclude>> includes_by_file;
  std::map<std::string, std::vector<SimUse>> uses_by_file;
  for (const auto& [path, rec] : files_) {
    includes_by_file[path] = rec.includes;
    if (!rec.sim_uses.empty()) uses_by_file[path] = rec.sim_uses;
  }
  if (ledger_.display_path.empty()) {
    ledger_.display_path = "tools/sim_purity_ledger.txt";
  }
  std::map<std::string, std::vector<Finding>> by_file;
  analyze_includes(includes_by_file, by_file, deps_);
  check_sim_purity(uses_by_file, ledger_, by_file, deps_);
  for (auto& [path, file_findings] : by_file) {
    if (auto it = files_.find(path); it != files_.end()) {
      apply_suppressions(path, file_findings, it->second.pragmas);
    }
    findings_.insert(findings_.end(), file_findings.begin(),
                     file_findings.end());
  }
}

void Linter::finalize() {
  if (finalized_) return;
  finalized_ = true;
  check_event_coverage();
  check_architecture();

  // Any well-formed pragma that suppressed nothing is itself a finding:
  // stale exceptions rot into blanket ones.
  for (const auto& [path, rec] : files_) {
    for (const AllowPragma& p : rec.pragmas) {
      // In a partial-file run the cross-file rule may not have executed;
      // its pragmas cannot be judged stale without the full tree.
      if (p.rule == "event-coverage" && !event_coverage_ran_) continue;
      if (p.parse_ok && is_known_rule(p.rule) && !p.justification.empty() &&
          !p.used) {
        findings_.push_back({path, p.line, "bad-pragma",
                             "allow(" + p.rule +
                                 ") suppresses nothing on its line or the "
                                 "next; remove the stale pragma",
                             false, ""});
      }
    }
  }

  std::stable_sort(findings_.begin(), findings_.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

int Linter::unsuppressed_count() const {
  int n = 0;
  for (const Finding& f : findings_) n += f.suppressed ? 0 : 1;
  return n;
}

int Linter::suppressed_count() const {
  return static_cast<int>(findings_.size()) - unsuppressed_count();
}

obs::JsonValue Linter::to_json(const std::string& root) const {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["tool"] = "vsgc_lint";
  doc["schema_version"] = 1;
  doc["root"] = root;
  doc["files_scanned"] = files_scanned_;
  doc["unsuppressed"] = unsuppressed_count();
  doc["suppressed"] = suppressed_count();
  obs::JsonValue rows = obs::JsonValue::array();
  for (const Finding& f : findings_) {
    obs::JsonValue row = obs::JsonValue::object();
    row["file"] = f.file;
    row["line"] = f.line;
    row["rule"] = f.rule;
    row["message"] = f.message;
    row["suppressed"] = f.suppressed;
    if (f.suppressed) row["justification"] = f.justification;
    rows.push_back(std::move(row));
  }
  doc["findings"] = std::move(rows);
  return doc;
}

int lint_tree(Linter& linter, const std::string& root) {
  namespace fs = std::filesystem;
  static constexpr std::array<std::string_view, 4> kTopDirs = {
      "src", "tools", "bench", "tests"};
  std::vector<std::string> paths;
  for (std::string_view top : kTopDirs) {
    const fs::path dir = fs::path(root) / top;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string rel =
          it->path().lexically_relative(root).generic_string();
      if (ends_with(rel, ".hpp") || ends_with(rel, ".cpp")) {
        paths.push_back(rel);
      }
    }
  }
  // Sorted scan order => deterministic finding order => diffable artifacts.
  std::sort(paths.begin(), paths.end());
  for (const std::string& rel : paths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    linter.lint_source(rel, buf.str());
  }
  if (!linter.has_sim_ledger()) {
    std::ifstream led(fs::path(root) / "tools" / "sim_purity_ledger.txt",
                      std::ios::binary);
    if (led) {
      std::ostringstream buf;
      buf << led.rdbuf();
      linter.set_sim_ledger("tools/sim_purity_ledger.txt", buf.str());
    }
  }
  linter.finalize();
  return static_cast<int>(paths.size());
}

}  // namespace vsgc::lint
