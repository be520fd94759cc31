// Fixture: <regex> and std::regex in any C++ source must be flagged.
#include <regex>
#include <string>

bool is_number(const std::string& s) {
  const std::regex digits("[0-9]+");
  return std::regex_match(s, digits);
}
