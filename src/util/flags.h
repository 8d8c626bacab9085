// Command-line flags for the ARTC mains. A main declares each flag it takes,
// bound to the variable the flag sets (whose initial value is the default),
// then parses argv once.
//
// Syntax: a valued flag is "--name=value" or "--name value"; a switch is
// "--name" alone. A number is a plain decimal that must parse in full and
// fit its variable. Arguments that do not start with "-" fill the declared
// positionals in order. An unknown flag, a missing value, a switch given a
// value, a malformed or out-of-range number, or a positional the main does
// not take is an error, which a main reports through Fail: one diagnostic
// plus a usage line generated from the declarations, then exit 2.
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace artc::util {

class FlagSet {
 public:
  void String(const char* name, std::string* out);
  // A string that must be one of `names`, which must outlive the set.
  void Choice(const char* name, std::string* out,
              std::span<const char* const> names);
  void Switch(const char* name, bool* out);
  template <std::unsigned_integral T>
  void Unsigned(const char* name, T* out) {
    AddNumber(name, Kind::kValue, std::numeric_limits<T>::max(),
              [out](uint64_t v) { *out = static_cast<T>(v); });
  }
  // Set only when the flag is given.
  template <std::unsigned_integral T>
  void Unsigned(const char* name, std::optional<T>* out) {
    AddNumber(name, Kind::kValue, std::numeric_limits<T>::max(),
              [out](uint64_t v) { *out = static_cast<T>(v); });
  }
  // The next positional argument; a main takes none unless it declares them.
  void Positional(const char* name, std::string* out);
  template <std::unsigned_integral T>
  void Positional(const char* name, T* out) {
    AddNumber(name, Kind::kPositional, std::numeric_limits<T>::max(),
              [out](uint64_t v) { *out = static_cast<T>(v); });
  }

  // Parses argv[1..argc); argv[0] names the program in diagnostics. Returns
  // false with a one-line diagnostic at the first error.
  bool Parse(int argc, const char* const* argv, std::string* error);

  // "usage: PROGRAM [--name=STR] [--name=a|b] [--name=N] [--switch] [pos]".
  std::string Usage() const;
  // Prints "PROGRAM: message" and the usage line to stderr and exits 2; for
  // a main's own checks on the parsed values.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  enum class Kind { kValue, kSwitch, kPositional };
  struct Flag {
    std::string name;
    Kind kind = Kind::kValue;
    std::string* text = nullptr;  // a string; otherwise a switch or number
    std::span<const char* const> names;  // a choice's accepted values
    uint64_t max = 0;  // a number or switch: its largest value and store
    std::function<void(uint64_t)> number;
  };

  Flag& Add(const char* name, Kind kind);
  void AddNumber(const char* name, Kind kind, uint64_t max,
                 std::function<void(uint64_t)> store);
  bool Assign(const Flag& flag, const std::string& value, std::string* error) const;

  std::string program_ = "artc";
  std::vector<Flag> flags_;
};

}  // namespace artc::util

#endif  // SRC_UTIL_FLAGS_H_
