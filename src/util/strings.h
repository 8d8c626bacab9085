// String helpers shared by the trace parser and path model.
#ifndef SRC_UTIL_STRINGS_H_
#define SRC_UTIL_STRINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace artc {

// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> SplitString(std::string_view s, char sep);

// Splits a path into components, dropping empty components ("//" collapses).
std::vector<std::string_view> SplitPath(std::string_view path);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Lexically normalizes an absolute path: collapses "//", resolves "." and
// "..". Does not consult any file system. "/a/b/../c" -> "/a/c".
std::string NormalizePath(std::string_view path);

// Same, writing into a caller-owned buffer so hot loops can reuse one
// growing string instead of allocating per call. `out` must not alias
// `path`'s storage.
void NormalizePathInto(std::string_view path, std::string* out);

// Joins a directory path and a (possibly relative) name.
std::string JoinPath(std::string_view dir, std::string_view name);

// Parent directory of a normalized absolute path ("/a/b" -> "/a", "/" -> "/").
std::string_view DirName(std::string_view path);

// Final component ("/a/b" -> "b", "/" -> "/").
std::string_view BaseName(std::string_view path);

// True if s equals one of names.
bool IsOneOf(std::string_view s, std::span<const char* const> names);

// The names joined with ", ", for the expected-values part of a diagnostic.
std::string JoinNames(std::span<const char* const> names);

// Parses a plain decimal that must fill `s` and be at most `max`: no sign,
// no space, no suffix. The number rule of util::FlagSet and of the numeric
// ARTC_* environment variables. False, leaving *out untouched, otherwise.
bool ParseDecimal(std::string_view s, uint64_t max, uint64_t* out);

// Appends `s` escaped for the inside of a JSON string: a quote or backslash
// gets a backslash, other bytes below 0x20 become \u00XX, the rest is copied.
void AppendJsonEscaped(std::string* out, std::string_view s);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace artc

#endif  // SRC_UTIL_STRINGS_H_
