#include "scanner.h"

#include <cctype>
#include <utility>

namespace rit::lint {

// The one public entry point implemented here: exposed through linter.h for
// the engine self-tests, which pin comment/string stripping directly.
std::string strip_comments_and_strings(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  } state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !internal::is_word(content[i - 1]))) {
          // Raw string: R"delim( ... )delim"
          std::size_t paren = content.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + content.substr(i + 2, paren - (i + 2)) + "\"";
            state = State::kRawString;
            for (std::size_t k = i; k <= paren; ++k) {
              out += content[k] == '\n' ? '\n' : ' ';
            }
            i = paren;
          } else {
            out += c;
          }
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && i > 0 && !internal::is_word(content[i - 1])) {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == '"') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out += ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

namespace internal {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

FileClass classify(const std::string& path) {
  auto ends_with = [&](const char* suf) {
    const std::string s(suf);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("CMakeLists.txt") || ends_with(".cmake") ||
      ends_with(".sh")) {
    return FileClass::kBuild;
  }
  return FileClass::kCpp;
}

std::string strip_hash_comments(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  bool in_comment = false;
  for (char c : content) {
    if (c == '\n') {
      in_comment = false;
      out += '\n';
    } else if (c == '#') {
      in_comment = true;
      out += ' ';
    } else {
      out += in_comment ? ' ' : c;
    }
  }
  return out;
}

std::string strip_strings_keep_comments(const std::string& content) {
  // Same state machine as strip_comments_and_strings, but comments pass
  // through verbatim: a `// rit-lint: allow(x)` directive survives while
  // `"// rit-lint: allow(x)"` — directive-shaped *data* inside a string
  // literal, as in the lint self-tests — is blanked.
  std::string out;
  out.reserve(content.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  } state = State::kCode;
  std::string raw_delim;

  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "//";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "/*";
          ++i;
        } else if (c == 'R' && next == '"' && (i == 0 || !is_word(content[i - 1]))) {
          std::size_t paren = content.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + content.substr(i + 2, paren - (i + 2)) + "\"";
            state = State::kRawString;
            for (std::size_t k = i; k <= paren; ++k) {
              out += content[k] == '\n' ? '\n' : ' ';
            }
            i = paren;
          } else {
            out += c;
          }
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && i > 0 && !is_word(content[i - 1])) {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') state = State::kCode;
        out += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "*/";
          ++i;
        } else {
          out += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == '"') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out += ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::string normalize_ws(const std::string& line) {
  std::string out;
  out.reserve(line.size());
  bool prev_space = false;
  for (char c : line) {
    const bool space = c == ' ' || c == '\t';
    if (space) {
      if (!prev_space) out += ' ';
    } else {
      out += c;
    }
    prev_space = space;
  }
  return out;
}

bool token_matches_at(const std::string& line, std::size_t pos,
                      const std::string& token) {
  if (line.compare(pos, token.size(), token) != 0) return false;
  if (is_word(token.front()) && pos > 0 && is_word(line[pos - 1])) {
    return false;
  }
  const std::size_t end = pos + token.size();
  if (is_word(token.back()) && end < line.size() && is_word(line[end])) {
    return false;
  }
  return true;
}

bool line_has_token(const std::string& line, const std::string& token) {
  for (std::size_t pos = line.find(token); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    if (token_matches_at(line, pos, token)) return true;
  }
  return false;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::size_t skip_spaces(const std::string& s, std::size_t pos) {
  while (pos < s.size() && is_space(s[pos])) ++pos;
  return pos;
}

std::size_t find_word(const std::string& s, std::size_t pos) {
  while (pos < s.size() && !is_word(s[pos])) ++pos;
  return pos;
}

std::size_t word_end(const std::string& s, std::size_t pos) {
  while (pos < s.size() && is_word(s[pos])) ++pos;
  return pos;
}

bool has_at(const std::string& s, std::size_t pos, const std::string& lit) {
  return pos <= s.size() && s.compare(pos, lit.size(), lit) == 0;
}

bool AllowSet::allows(const std::string& rule, std::size_t line) const {
  if (file_rules.count(rule) != 0 || file_rules.count("*") != 0) {
    return true;
  }
  // A directive covers its own line and the line after it, so a
  // standalone "// rit-lint: allow(x)" comment shields the next line.
  for (std::size_t l = line > 1 ? line - 1 : line; l <= line; ++l) {
    auto it = lines.find(l);
    if (it != lines.end() &&
        (it->second.count(rule) != 0 || it->second.count("*") != 0)) {
      return true;
    }
  }
  return false;
}

namespace {

void parse_rule_list(const std::string& text, std::set<std::string>* out) {
  std::string cur;
  for (char c : text) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!cur.empty()) out->insert(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out->insert(cur);
}

}  // namespace

AllowSet parse_allows(const std::vector<std::string>& raw_lines) {
  AllowSet allows;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    const std::size_t tag = line.find("rit-lint:");
    if (tag == std::string::npos) continue;
    const std::string rest = line.substr(tag + 9);
    for (const auto& [kw, file_scope] :
         {std::pair<const char*, bool>{"allow-file(", true},
          std::pair<const char*, bool>{"allow(", false}}) {
      std::size_t at = rest.find(kw);
      if (at == std::string::npos) continue;
      at += std::string(kw).size();
      const std::size_t close = rest.find(')', at);
      if (close == std::string::npos) continue;
      const std::string list = rest.substr(at, close - at);
      if (file_scope) {
        parse_rule_list(list, &allows.file_rules);
      } else {
        parse_rule_list(list, &allows.lines[i + 1]);
      }
    }
  }
  return allows;
}

namespace {

const char* const kResultPathHints[] = {"report", "csv",    "json",
                                        "_io",    "export", "render",
                                        "statement", "svg", "table"};

// The non-empty quoted target of a line shaped `# include "target"`
// (spaces allowed around `#` and before the quote), or "" if the line has
// another shape.
std::string quoted_include(const std::string& raw) {
  std::size_t i = skip_spaces(raw, 0);
  if (!has_at(raw, i, "#")) return "";
  i = skip_spaces(raw, i + 1);
  if (!has_at(raw, i, "include")) return "";
  i = skip_spaces(raw, i + 7);
  if (!has_at(raw, i, "\"")) return "";
  const std::size_t close = raw.find('"', i + 1);
  if (close == std::string::npos) return "";
  return raw.substr(i + 1, close - i - 1);
}

}  // namespace

Prepped prep(const SourceFile& f) {
  Prepped p;
  p.src = &f;
  p.file_class = classify(f.path);
  const std::vector<std::string> raw_lines = split_lines(f.content);
  p.allows = parse_allows(raw_lines);
  const std::string stripped = p.file_class == FileClass::kBuild
                                   ? strip_hash_comments(f.content)
                                   : strip_comments_and_strings(f.content);
  for (const std::string& line : split_lines(stripped)) {
    p.lines.push_back(normalize_ws(line));
  }
  // Extracts `#include "..."` targets. The stripped line decides whether
  // the directive is live code (a commented-out include strips to blanks);
  // the raw line supplies the quoted path, which stripping blanked.
  if (p.file_class == FileClass::kCpp) {
    for (std::size_t i = 0; i < p.lines.size() && i < raw_lines.size(); ++i) {
      if (p.lines[i].find("#include") == std::string::npos &&
          p.lines[i].find("# include") == std::string::npos) {
        continue;
      }
      std::string target = quoted_include(raw_lines[i]);
      if (!target.empty()) {
        p.includes.push_back(IncludeDirective{i + 1, std::move(target)});
      }
    }
  }
  for (const char* hint : kResultPathHints) {
    if (f.path.find(hint) != std::string::npos) p.result_path = true;
  }
  if (!p.result_path) {
    for (const std::string& line : p.lines) {
      if (line_has_token(line, "std::ostream") ||
          line_has_token(line, "std::ofstream")) {
        p.result_path = true;
        break;
      }
    }
  }
  return p;
}

bool path_contains_any(const std::string& path,
                       const std::vector<const char*>& subs) {
  for (const char* sub : subs) {
    if (path.find(sub) != std::string::npos) return true;
  }
  return false;
}

void emit(const Prepped& p, std::size_t line_no, const std::string& rule,
          const std::string& message, Severity severity,
          std::vector<Finding>* out) {
  if (p.allows.allows(rule, line_no)) return;
  out->push_back(Finding{p.src->path, line_no, rule, message, severity});
}

}  // namespace internal
}  // namespace rit::lint
