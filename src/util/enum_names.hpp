// Name tables for enums: the one place an enum's spellings are written.
//
// An enum whose enumerators run 0..N-1 in declaration order gets a
// function `enum_names(Enum)` (found by argument-dependent lookup) that
// returns its EnumNames table. Printing, parsing, "every value" lists and
// the configuration key table all read that table.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::util {

/// names[i] spells the enumerator whose underlying value is i.
template <typename Enum, std::size_t N>
struct EnumNames {
  const char* family;  ///< what the enum selects, for error messages
  std::array<const char*, N> names;

  [[nodiscard]] constexpr const char* name(Enum e) const {
    auto i = static_cast<std::size_t>(e);
    return i < N ? names[i] : "?";
  }

  /// Case-insensitive lookup; nullopt for an unknown name.
  [[nodiscard]] std::optional<Enum> find(std::string_view s) const {
    std::string lowered = to_lower(s);
    for (std::size_t i = 0; i < N; ++i) {
      if (to_lower(names[i]) == lowered) return static_cast<Enum>(i);
    }
    return std::nullopt;
  }

  /// Like find(), but throws SimError naming the family and the choices.
  [[nodiscard]] Enum parse(std::string_view s) const {
    if (auto e = find(s)) return *e;
    throw SimError("unknown " + std::string(family) + " '" + std::string(s) +
                   "' (expected one of " + choices() + ")");
  }

  /// "A, B, C" — for error messages.
  [[nodiscard]] std::string choices() const {
    return join(std::vector<std::string>(names.begin(), names.end()), ", ");
  }

  /// Every enumerator, in declaration order.
  [[nodiscard]] std::vector<Enum> values() const {
    std::vector<Enum> out;
    for (std::size_t i = 0; i < N; ++i) out.push_back(static_cast<Enum>(i));
    return out;
  }
};

/// Builds a table, counting the names so N never has to be written.
template <typename Enum, typename... Names>
[[nodiscard]] constexpr EnumNames<Enum, sizeof...(Names)> enum_table(const char* family,
                                                                     Names... names) {
  return {family, {names...}};
}

}  // namespace chicsim::util
