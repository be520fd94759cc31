// Fixture: the allowlist directive suppresses the finding on its line.
#include <regex>  // rit-lint: allow(no-std-regex)
#include <string>

bool is_number(const std::string& s) {
  const std::regex digits("[0-9]+");  // rit-lint: allow(no-std-regex)
  return std::regex_match(s, digits);  // rit-lint: allow(no-std-regex)
}
