#include "testkit/fuzz_case.h"

#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/num_io.h"

namespace rit::testkit {
namespace {

// The format version is the mechanism stream version: a case replays the
// draws of the stream it was recorded under, so a case from another stream
// is refused rather than replayed against different draws.
constexpr const char* kMagicPrefix = "ritcs-fuzzcase v";

std::string magic_line() {
  return kMagicPrefix + format_u64(core::kMechanismStreamVersion);
}

const char* price_name(core::PriceMode m) {
  return m == core::PriceMode::kConsensus ? "consensus" : "order";
}
const char* policy_name(core::RoundBudgetPolicy p) {
  return p == core::RoundBudgetPolicy::kTheoretical ? "theoretical"
                                                    : "completion";
}
const char* empty_name(core::EmptySamplePolicy p) {
  return p == core::EmptySamplePolicy::kAllAsks ? "all" : "none";
}

/// Everything after the checksum line except the signature line. The
/// checksum and the case fingerprint both hash exactly this text, so the
/// identity of a case is independent of shrink/repro metadata.
std::string payload_text(const FuzzCase& c) {
  std::ostringstream out;
  out << "seed " << format_u64(c.mech_seed) << "\n";
  out << "demand " << format_u64(c.demand.size());
  for (std::uint32_t d : c.demand) out << " " << format_u64(d);
  out << "\n";
  out << "asks " << format_u64(c.asks.size()) << "\n";
  for (std::size_t j = 0; j < c.asks.size(); ++j) {
    out << "ask " << format_u64(c.asks[j].type.value) << " "
        << format_u64(c.asks[j].quantity) << " "
        << format_hex_double(c.asks[j].value) << " "
        << format_hex_double(c.costs[j]) << " " << format_u64(c.parents[j])
        << "\n";
  }
  out << "h " << format_hex_double(c.config.h) << "\n";
  out << "discount " << format_hex_double(c.config.discount_base) << "\n";
  out << "gridbase " << format_hex_double(c.config.consensus_log_base)
      << "\n";
  out << "price " << price_name(c.config.price_mode) << "\n";
  out << "policy " << policy_name(c.config.round_budget_policy) << "\n";
  out << "empty " << empty_name(c.config.empty_sample) << "\n";
  out << "stall " << format_u64(c.config.stall_round_limit) << "\n";
  out << "clamp " << format_u64(c.config.clamp_min_one_round ? 1 : 0)
      << "\n";
  out << "zero " << format_u64(c.config.zero_on_failure ? 1 : 0) << "\n";
  out << "kmax "
      << (c.config.k_max_override
              ? format_u64(*c.config.k_max_override)
              : std::string("none"))
      << "\n";
  out << "threads " << format_u64(c.config.intra_threads) << "\n";
  return out.str();
}

/// Splits `line` on single spaces into fields.
std::vector<std::string> fields_of(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return fields;
}

}  // namespace

std::string serialize_case(const FuzzCase& c) {
  RIT_CHECK(c.costs.size() == c.asks.size());
  RIT_CHECK(c.parents.size() == c.asks.size());
  const std::string payload = payload_text(c);
  std::ostringstream out;
  out << magic_line() << "\n";
  out << "checksum " << format_u64(fnv1a64(payload)) << "\n";
  out << payload;
  if (!c.signature.empty()) out << "sig " << c.signature << "\n";
  return out.str();
}

std::uint64_t case_hash(const FuzzCase& c) {
  return fnv1a64(payload_text(c));
}

std::optional<FuzzCase> parse_case(const std::string& text,
                                   std::string* error) {
  std::string ignored;
  std::string& why = error != nullptr ? *error : ignored;
  why = "malformed case or checksum mismatch";
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (line != magic_line()) {
    why = line.rfind(kMagicPrefix, 0) == 0
              ? "case is format '" + line + "', this build reads '" +
                    magic_line() +
                    "': it was recorded under another mechanism RNG "
                    "stream version and cannot replay here; regenerate "
                    "it with ritcs-fuzz"
              : "not a ritcs-fuzzcase file";
    return std::nullopt;
  }
  if (!std::getline(in, line)) return std::nullopt;
  auto checksum_fields = fields_of(line);
  if (checksum_fields.size() != 2 || checksum_fields[0] != "checksum") {
    return std::nullopt;
  }
  const auto stored_checksum = parse_u64(checksum_fields[1]);
  if (!stored_checksum) return std::nullopt;

  FuzzCase c;
  std::string payload;
  std::uint64_t asks_expected = 0;
  bool saw_asks_header = false;
  while (std::getline(in, line)) {
    const auto f = fields_of(line);
    if (f.empty() || f[0].empty()) return std::nullopt;
    const std::string& key = f[0];
    if (key == "sig") {
      c.signature = line.size() > 4 ? line.substr(4) : std::string{};
      continue;  // metadata: outside the checksummed payload
    }
    payload += line;
    payload += "\n";
    if (key == "seed" && f.size() == 2) {
      const auto v = parse_u64(f[1]);
      if (!v) return std::nullopt;
      c.mech_seed = *v;
    } else if (key == "demand" && f.size() >= 2) {
      const auto count = parse_u64(f[1]);
      if (!count || f.size() != 2 + *count) return std::nullopt;
      for (std::size_t i = 0; i < *count; ++i) {
        const auto d = parse_u32(f[2 + i]);
        if (!d) return std::nullopt;
        c.demand.push_back(*d);
      }
    } else if (key == "asks" && f.size() == 2) {
      const auto n = parse_u64(f[1]);
      if (!n) return std::nullopt;
      asks_expected = *n;
      saw_asks_header = true;
    } else if (key == "ask" && f.size() == 6) {
      const auto type = parse_u32(f[1]);
      const auto quantity = parse_u32(f[2]);
      const auto value = parse_double(f[3]);
      const auto cost = parse_double(f[4]);
      const auto parent = parse_u32(f[5]);
      if (!type || !quantity || !value || !cost || !parent.has_value()) {
        return std::nullopt;
      }
      c.asks.push_back(core::Ask{TaskType{*type}, *quantity, *value});
      c.costs.push_back(*cost);
      c.parents.push_back(*parent);
    } else if (key == "h" && f.size() == 2) {
      const auto v = parse_double(f[1]);
      if (!v) return std::nullopt;
      c.config.h = *v;
    } else if (key == "discount" && f.size() == 2) {
      const auto v = parse_double(f[1]);
      if (!v) return std::nullopt;
      c.config.discount_base = *v;
    } else if (key == "gridbase" && f.size() == 2) {
      const auto v = parse_double(f[1]);
      if (!v) return std::nullopt;
      c.config.consensus_log_base = *v;
    } else if (key == "price" && f.size() == 2) {
      if (f[1] == "consensus") {
        c.config.price_mode = core::PriceMode::kConsensus;
      } else if (f[1] == "order") {
        c.config.price_mode = core::PriceMode::kOrderStatistic;
      } else {
        return std::nullopt;
      }
    } else if (key == "policy" && f.size() == 2) {
      if (f[1] == "theoretical") {
        c.config.round_budget_policy = core::RoundBudgetPolicy::kTheoretical;
      } else if (f[1] == "completion") {
        c.config.round_budget_policy =
            core::RoundBudgetPolicy::kRunToCompletion;
      } else {
        return std::nullopt;
      }
    } else if (key == "empty" && f.size() == 2) {
      if (f[1] == "all") {
        c.config.empty_sample = core::EmptySamplePolicy::kAllAsks;
      } else if (f[1] == "none") {
        c.config.empty_sample = core::EmptySamplePolicy::kNoWinners;
      } else {
        return std::nullopt;
      }
    } else if (key == "stall" && f.size() == 2) {
      const auto v = parse_u32(f[1]);
      if (!v) return std::nullopt;
      c.config.stall_round_limit = *v;
    } else if (key == "clamp" && f.size() == 2) {
      const auto v = parse_u64(f[1]);
      if (!v || *v > 1) return std::nullopt;
      c.config.clamp_min_one_round = *v == 1;
    } else if (key == "zero" && f.size() == 2) {
      const auto v = parse_u64(f[1]);
      if (!v || *v > 1) return std::nullopt;
      c.config.zero_on_failure = *v == 1;
    } else if (key == "kmax" && f.size() == 2) {
      if (f[1] == "none") {
        c.config.k_max_override.reset();
      } else {
        const auto v = parse_u32(f[1]);
        if (!v) return std::nullopt;
        c.config.k_max_override = *v;
      }
    } else if (key == "threads" && f.size() == 2) {
      const auto v = parse_u32(f[1]);
      if (!v) return std::nullopt;
      c.config.intra_threads = *v;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_asks_header || c.asks.size() != asks_expected) return std::nullopt;
  if (fnv1a64(payload) != *stored_checksum) return std::nullopt;
  return c;
}

std::optional<FuzzCase> load_case_file(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open file";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_case(ss.str(), error);
}

void write_case_file(const std::string& path, const FuzzCase& c) {
  write_file_atomic(path, serialize_case(c));
}

}  // namespace rit::testkit
