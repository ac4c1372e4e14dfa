#ifndef PS_SUPPORT_TEXT_H
#define PS_SUPPORT_TEXT_H

#include <string>
#include <string_view>
#include <vector>

namespace ps::text {

/// ASCII character tests: the C locale's answers, without a locale call per
/// character.
[[nodiscard]] inline bool isSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
[[nodiscard]] inline bool isDigit(char c) { return c >= '0' && c <= '9'; }
[[nodiscard]] inline bool isAlpha(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}
[[nodiscard]] inline char toUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}
[[nodiscard]] inline char toLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII upper-casing; Fortran identifiers and keywords are case-insensitive,
/// so the front end canonicalizes everything to upper case.
[[nodiscard]] std::string upper(std::string_view s);
[[nodiscard]] std::string lower(std::string_view s);

[[nodiscard]] std::string_view trim(std::string_view s);
/// The lines of `s` as views into it, without their line ends; a final line
/// end starts no further line.
[[nodiscard]] std::vector<std::string_view> splitLines(std::string_view s);
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

[[nodiscard]] bool startsWith(std::string_view s, std::string_view prefix);

/// Left-pad / right-pad to a fixed width (for the pane renderer's columns).
[[nodiscard]] std::string padRight(std::string_view s, std::size_t width);
[[nodiscard]] std::string padLeft(std::string_view s, std::size_t width);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

}  // namespace ps::text

#endif  // PS_SUPPORT_TEXT_H
