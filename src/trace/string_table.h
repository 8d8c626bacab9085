// The process-wide trace string table and the 4-byte handle TraceEvent keeps
// its path, path2 and name arguments in.
//
// A trace names a few hundred distinct paths across millions of events, so
// events hold ids and the bytes live once, in one append-only table shared
// by every trace in the process (like a compiler's atom table). Being
// process-wide is what lets an event vector move between bundles, compiled
// benchmarks and threads without a table riding along. Id 0 is the empty
// string, so a default-constructed handle is empty.
//
// Ids are assigned in first-sight order, which a parallel parse makes
// nondeterministic: no output, digest, file byte or iteration order may
// depend on an id value. Writers and digests use the bytes (Str::str()).
#ifndef SRC_TRACE_STRING_TABLE_H_
#define SRC_TRACE_STRING_TABLE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/util/interner.h"

namespace artc::trace {

// The table behind every Str. Interning locks; lookups do not. Bulk
// producers intern through a util::LocalBatch over it.
util::StringInterner& StringTable();

class Str {
 public:
  Str() = default;
  explicit Str(std::string_view s) : id_(StringTable().Intern(s)) {}
  // Assigning a string interns it, so `ev.path = "/a"` reads as it would
  // for a std::string field.
  Str& operator=(std::string_view s) {
    id_ = StringTable().Intern(s);
    return *this;
  }

  // A handle for an id the caller already interned into StringTable().
  static Str FromId(uint32_t id) {
    Str s;
    s.id_ = id;
    return s;
  }

  uint32_t id() const { return id_; }
  const std::string& str() const { return StringTable().Str(id_); }
  const char* c_str() const { return str().c_str(); }
  bool empty() const { return id_ == 0; }

  // Equal strings always share an id, so handles compare by id.
  friend bool operator==(Str a, Str b) { return a.id_ == b.id_; }
  friend bool operator==(Str a, std::string_view b) { return a.str() == b; }
  friend std::ostream& operator<<(std::ostream& os, Str s);

 private:
  uint32_t id_ = 0;
};

}  // namespace artc::trace

#endif  // SRC_TRACE_STRING_TABLE_H_
