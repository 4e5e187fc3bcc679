// Config-file overlay and value checks over the keyspace of
// sim/param_list.hpp. A partial INI-style file overrides only the keys it
// mentions on top of a base SimParams (usually a preset). Keys are dotted,
// e.g. `topo.a = 16`, `routing.kind = ECtN`, `traffic.load = 0.35`.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"

namespace dfsim {

/// The `key = value` assignments of an INI file in file order, with
/// `[section]` prefixes applied to bare keys; apply_param each on top of a
/// base (usually a preset) to load it. Throws std::runtime_error when
/// the file cannot be opened and std::invalid_argument on a line that is
/// not an assignment.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
read_params_file(const std::string& path);

/// Applies a single `key = value` assignment. The whole value must parse as
/// the field's type (int32, int64, uint64, finite double, bool or enum)
/// within that type's range, and satisfy the key's rule; anything else, or
/// an unknown key, throws std::invalid_argument naming the key.
void apply_param(SimParams& params, const std::string& key,
                 const std::string& value);

/// Checks every key's rule plus the rules that span keys (every buffer
/// holds at least one packet). Throws std::invalid_argument
/// "<key> must be >= <lo>" (or "<= <hi>", ...) on the first violation.
void validate(const SimParams& params);

}  // namespace dfsim
