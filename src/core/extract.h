// Extract (Algorithm 2): flattens per-user asks (t_j, k_j, a_j) into the
// unit-ask vector alpha for one task type, remembering the owner map
// lambda(w) = j. The mechanism itself reads the same asks as runs
// (AskTypeIndex) and never materializes alpha; extract() stays for the
// baselines and the efficiency reference, which want plain unit vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace rit::core {

struct ExtractedAsks {
  /// alpha: one entry per unit ask, value a_j repeated k times.
  std::vector<double> values;
  /// lambda: owner[w] is the index of the user that unit ask w came from.
  std::vector<std::uint32_t> owner;

  std::size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
};

/// Plain Algorithm 2: expands ask j into asks[j].quantity unit asks when
/// asks[j].type == type.
ExtractedAsks extract(TaskType type, std::span<const Ask> asks);

/// Alg. 2 as a run view, the form RIT's multi-round loop reads: a per-type
/// CSR over one ask vector, built once per auction. Each slot is one run
/// (user, value, remaining) that stands for `remaining` unit asks of equal
/// value and owner, the paper's k'_j copies of a_j. A CRA round reads a
/// type's slots as its run book and never expands units, and winners
/// decrement `remaining` in place, so later rounds see only capability not
/// yet consumed. Within a type the users stay in ascending index order, so
/// expanding the runs in slot order gives exactly extract()'s unit order.
/// build() reuses capacity across auctions.
struct AskTypeIndex {
  /// Per type t: slots [offsets[t], offsets[t+1]).
  std::vector<std::uint32_t> offsets;
  /// Flat ask indices, ascending within a type.
  std::vector<std::uint32_t> user;
  /// value[i] = asks[user[i]].value.
  std::vector<double> value;
  /// k'_j: starts at asks[user[i]].quantity, winners consume it.
  std::vector<std::uint32_t> remaining;

  std::uint32_t num_types() const {
    return offsets.empty() ? 0 : static_cast<std::uint32_t>(offsets.size() - 1);
  }
  /// Rebuilds for `asks`; every ask's type must be < num_types (run
  /// validate_asks first).
  void build(std::uint32_t num_types, std::span<const Ask> asks);
};

}  // namespace rit::core
