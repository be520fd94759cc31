#include "core/extract.h"

namespace rit::core {

ExtractedAsks extract(TaskType type, std::span<const Ask> asks) {
  ExtractedAsks out;
  std::size_t total = 0;
  for (const Ask& a : asks) {
    if (a.type == type) total += a.quantity;
  }
  out.values.reserve(total);
  out.owner.reserve(total);
  for (std::size_t j = 0; j < asks.size(); ++j) {
    if (asks[j].type != type) continue;
    for (std::uint32_t f = 0; f < asks[j].quantity; ++f) {
      out.values.push_back(asks[j].value);
      out.owner.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return out;
}

void AskTypeIndex::build(std::uint32_t types, std::span<const Ask> asks) {
  offsets.assign(types + 1, 0);
  user.resize(asks.size());
  value.resize(asks.size());
  remaining.resize(asks.size());
  for (const Ask& a : asks) {
    RIT_CHECK_MSG(a.type.value < types, "ask type " << a.type.value
                                                    << " outside job's "
                                                    << types << " types");
    offsets[a.type.value + 1] += 1;
  }
  for (std::uint32_t t = 0; t < types; ++t) offsets[t + 1] += offsets[t];
  // Second pass places each ask at its group cursor; iterating j ascending
  // keeps every group sorted by user index, which is what makes the run
  // order match extract()'s unit order.
  for (std::size_t j = 0; j < asks.size(); ++j) {
    const std::uint32_t slot = offsets[asks[j].type.value]++;
    user[slot] = static_cast<std::uint32_t>(j);
    value[slot] = asks[j].value;
    remaining[slot] = asks[j].quantity;
  }
  // The cursor walk advanced offsets[t] to offsets[t+1]; shift back.
  for (std::uint32_t t = types; t > 0; --t) offsets[t] = offsets[t - 1];
  offsets[0] = 0;
}

}  // namespace rit::core
