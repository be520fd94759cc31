// Internal lexical layer of the rit_lint engine: comment/string stripping,
// line bookkeeping, word-bounded token matching, allowlist directives, and
// the per-file preprocessed view (`Prepped`) every rule runs against.
//
// This header is internal to tools/lint/ — the public surface is linter.h.
// The split keeps the engine honest about its layers: scanner (this file)
// knows nothing about rules; include_graph.h builds the cross-file
// dependency graph on top of `Prepped`; linter.cpp owns the rule table;
// output.h renders findings.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "linter.h"

namespace rit::lint::internal {

bool is_word(char c);

/// C++ sources vs build files (CMake / shell): different comment syntax,
/// different rule set.
enum class FileClass { kCpp, kBuild };

FileClass classify(const std::string& path);

/// Build files (cmake, sh) only have '#' line comments — but a '#'
/// directive line may itself carry a rit-lint allow, which is parsed from
/// the raw content, so stripping to spaces here is safe.
std::string strip_hash_comments(const std::string& content);

/// Blanks string/char literals but KEEPS comment text — the escape
/// inventory (collect_escapes) needs directives that live in comments
/// while ignoring directive-shaped test data inside string literals.
std::string strip_strings_keep_comments(const std::string& content);

std::vector<std::string> split_lines(const std::string& s);

/// Collapses runs of whitespace so multi-space tokens ("long double")
/// match regardless of alignment.
std::string normalize_ws(const std::string& line);

bool token_matches_at(const std::string& line, std::size_t pos,
                      const std::string& token);

bool line_has_token(const std::string& line, const std::string& token);

// Hand-written pattern helpers. The rules match a few fixed shapes
// ("`struct` NAME", "NAME (", "sizeof ( NAME )", ...) by hand instead of
// with <regex>: the shapes are simple, and libstdc++'s <regex> trips
// -Wmaybe-uninitialized under -fsanitize=address on GCC 12, which breaks
// the -Werror sanitizer build. Word characters are is_word's; spaces are
// the six of the C locale's isspace, as in an ECMAScript \s.

bool is_space(char c);

/// First offset at or after `pos` that is not a space (or s.size()).
std::size_t skip_spaces(const std::string& s, std::size_t pos);

/// Start of the first word-character run at or after `pos` (or s.size()).
std::size_t find_word(const std::string& s, std::size_t pos);

/// One past the last word character of the run starting at `pos`
/// (`pos` itself when s[pos] is not a word character).
std::size_t word_end(const std::string& s, std::size_t pos);

/// True when `s` holds `lit` at `pos`.
bool has_at(const std::string& s, std::size_t pos, const std::string& lit);

// ---------------------------------------------------------------------------
// Allowlist directives (parsed from RAW content, before stripping)
// ---------------------------------------------------------------------------

struct AllowSet {
  std::set<std::string> file_rules;                    // allow-file(...)
  std::map<std::size_t, std::set<std::string>> lines;  // line -> rules
  bool allows(const std::string& rule, std::size_t line) const;
};

AllowSet parse_allows(const std::vector<std::string>& raw_lines);

// ---------------------------------------------------------------------------
// Per-file preprocessed view
// ---------------------------------------------------------------------------

/// One `#include "..."` directive. `target` is the quoted text verbatim
/// ("core/rit.h"); resolution against the scan set happens in
/// include_graph.cpp.
struct IncludeDirective {
  std::size_t line{0};
  std::string target;
};

struct Prepped {
  const SourceFile* src{nullptr};
  FileClass file_class{FileClass::kCpp};
  std::vector<std::string> lines;  // stripped + whitespace-normalized
  AllowSet allows;
  bool result_path{false};
  std::vector<IncludeDirective> includes;  // quoted includes only
};

Prepped prep(const SourceFile& f);

bool path_contains_any(const std::string& path,
                       const std::vector<const char*>& subs);

/// Appends a finding unless an allow directive shields it.
void emit(const Prepped& p, std::size_t line_no, const std::string& rule,
          const std::string& message, Severity severity,
          std::vector<Finding>* out);

}  // namespace rit::lint::internal
