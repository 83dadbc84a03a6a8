#ifndef PHOENIX_COMMON_STRINGS_H_
#define PHOENIX_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace phoenix {

// Concatenates the string representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream oss;
  ((oss << args), ...);
  return oss.str();
}

// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits);

}  // namespace phoenix

#endif  // PHOENIX_COMMON_STRINGS_H_
