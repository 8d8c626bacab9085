#include "src/util/strings.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "src/util/check.h"

namespace artc {

std::vector<std::string_view> SplitString(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitPath(std::string_view path) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start < path.size()) {
    size_t pos = path.find('/', start);
    if (pos == std::string_view::npos) {
      out.push_back(path.substr(start));
      break;
    }
    if (pos > start) {
      out.push_back(path.substr(start, pos - start));
    }
    start = pos + 1;
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

void NormalizePathInto(std::string_view path, std::string* out) {
  out->clear();
  // Components are views into `path`; the ".." pops work directly on the
  // output buffer, so no component stack is materialized.
  size_t start = 0;
  while (start < path.size()) {
    size_t pos = path.find('/', start);
    size_t end = pos == std::string_view::npos ? path.size() : pos;
    std::string_view comp = path.substr(start, end - start);
    start = end + 1;
    if (comp.empty() || comp == ".") {
      continue;
    }
    if (comp == "..") {
      size_t cut = out->rfind('/');
      if (cut != std::string::npos) {
        out->resize(cut);
      }
      continue;
    }
    out->push_back('/');
    out->append(comp);
  }
  if (out->empty()) {
    out->push_back('/');
  }
}

std::string NormalizePath(std::string_view path) {
  std::string out;
  NormalizePathInto(path, &out);
  return out;
}

std::string JoinPath(std::string_view dir, std::string_view name) {
  if (!name.empty() && name[0] == '/') {
    return std::string(name);
  }
  std::string out(dir);
  if (out.empty() || out.back() != '/') {
    out.push_back('/');
  }
  out.append(name);
  return out;
}

std::string_view DirName(std::string_view path) {
  if (path == "/") {
    return path;
  }
  size_t pos = path.rfind('/');
  if (pos == std::string_view::npos) {
    return ".";
  }
  if (pos == 0) {
    return path.substr(0, 1);
  }
  return path.substr(0, pos);
}

std::string_view BaseName(std::string_view path) {
  if (path == "/") {
    return path;
  }
  size_t pos = path.rfind('/');
  if (pos == std::string_view::npos) {
    return path;
  }
  return path.substr(pos + 1);
}

bool IsOneOf(std::string_view s, std::span<const char* const> names) {
  for (const char* name : names) {
    if (s == name) {
      return true;
    }
  }
  return false;
}

std::string JoinNames(std::span<const char* const> names) {
  std::string out;
  for (const char* name : names) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

bool ParseDecimal(std::string_view s, uint64_t max, uint64_t* out) {
  uint64_t v = 0;
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, v);
  if (s.empty() || r.ec != std::errc() || r.ptr != end || v > max) {
    return false;
  }
  *out = v;
  return true;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  ARTC_CHECK(n >= 0);
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

}  // namespace artc
