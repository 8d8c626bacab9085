#include "src/util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/util/strings.h"

namespace artc::util {

FlagSet::Flag& FlagSet::Add(const char* name, Kind kind) {
  Flag& flag = flags_.emplace_back();
  flag.name = name;
  flag.kind = kind;
  return flag;
}

void FlagSet::String(const char* name, std::string* out) {
  Add(name, Kind::kValue).text = out;
}

void FlagSet::Choice(const char* name, std::string* out,
                     std::span<const char* const> names) {
  Flag& flag = Add(name, Kind::kValue);
  flag.text = out;
  flag.names = names;
}

void FlagSet::Switch(const char* name, bool* out) {
  AddNumber(name, Kind::kSwitch, 1, [out](uint64_t) { *out = true; });
}

void FlagSet::Positional(const char* name, std::string* out) {
  Add(name, Kind::kPositional).text = out;
}

void FlagSet::AddNumber(const char* name, Kind kind, uint64_t max,
                        std::function<void(uint64_t)> store) {
  Flag& flag = Add(name, kind);
  flag.max = max;
  flag.number = std::move(store);
}

bool FlagSet::Assign(const Flag& flag, const std::string& value,
                     std::string* error) const {
  if (flag.text != nullptr) {
    if (!flag.names.empty() && !IsOneOf(value, flag.names)) {
      *error = "unknown --" + flag.name + " '" + value + "' (expected " +
               JoinNames(flag.names) + ")";
      return false;
    }
    *flag.text = value;
    return true;
  }
  uint64_t v = 0;
  if (!ParseDecimal(value, flag.max, &v)) {
    *error = (flag.kind == Kind::kPositional ? flag.name : "--" + flag.name) +
             ": '" + value + "' is not a decimal number in [0, " +
             std::to_string(flag.max) + "]";
    return false;
  }
  flag.number(v);
  return true;
}

bool FlagSet::Parse(int argc, const char* const* argv, std::string* error) {
  if (argc > 0) {
    program_ = argv[0];
    program_.erase(0, program_.rfind('/') + 1);
  }
  auto positional = flags_.begin();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      while (positional != flags_.end() && positional->kind != Kind::kPositional) {
        ++positional;
      }
      if (positional == flags_.end()) {
        *error = "unexpected argument '" + arg + "'";
        return false;
      }
      if (!Assign(*positional++, arg, error)) {
        return false;
      }
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    Flag* flag = nullptr;
    for (Flag& f : flags_) {
      if (f.kind != Kind::kPositional && name == "--" + f.name) {
        flag = &f;
      }
    }
    if (flag == nullptr) {
      *error = "unknown flag " + name;
      return false;
    }
    flag->given = true;
    if (flag->kind == Kind::kSwitch) {
      if (eq != std::string::npos) {
        *error = name + " takes no value";
        return false;
      }
      flag->number(1);
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = name + " needs a value";
      return false;
    }
    if (!Assign(*flag, value, error)) {
      return false;
    }
  }
  return true;
}

bool FlagSet::Given(const char* name) const {
  for (const Flag& f : flags_) {
    if (f.kind != Kind::kPositional && f.name == name) {
      return f.given;
    }
  }
  return false;
}

std::string FlagSet::Usage() const {
  std::string out = "usage: " + program_;
  std::string positionals;
  for (const Flag& f : flags_) {
    if (f.kind == Kind::kPositional) {
      positionals += " [" + f.name + "]";
    } else if (f.kind == Kind::kSwitch) {
      out += " [--" + f.name + "]";
    } else if (f.text == nullptr) {
      out += " [--" + f.name + "=N]";
    } else if (f.names.empty()) {
      out += " [--" + f.name + "=STR]";
    } else {
      out += " [--" + f.name;
      for (size_t i = 0; i < f.names.size(); ++i) {
        out += i == 0 ? '=' : '|';
        out += f.names[i];
      }
      out += "]";
    }
  }
  return out + positionals;
}

void FlagSet::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), message.c_str(),
               Usage().c_str());
  std::exit(2);
}

}  // namespace artc::util
