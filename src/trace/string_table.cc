#include "src/trace/string_table.h"

#include <ostream>

namespace artc::trace {

util::StringInterner& StringTable() {
  // Leaked so handles stay readable during static teardown.
  static util::StringInterner* const table = [] {
    auto* t = new util::StringInterner();
    t->Intern("");  // id 0: the empty string a default Str stands for
    return t;
  }();
  return *table;
}

std::ostream& operator<<(std::ostream& os, Str s) { return os << s.str(); }

}  // namespace artc::trace
