#include "src/trace/trace_io.h"

#include <fstream>
#include <sstream>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::trace {
namespace {

// Cursor over a line of text.
class Scanner {
 public:
  explicit Scanner(std::string_view s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() && s_[pos_] == ' ') {
      pos_++;
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ >= s_.size();
  }
  // Reads a token up to space or '='.
  std::string_view Token() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ' && s_[pos_] != '=') {
      pos_++;
    }
    return s_.substr(start, pos_ - start);
  }
  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  // Reads a value: quoted string or bare token.
  bool Value(std::string* out, std::string* error) {
    if (Consume('"')) {
      out->clear();
      while (pos_ < s_.size() && s_[pos_] != '"') {
        char c = s_[pos_++];
        if (c == '\\' && pos_ < s_.size()) {
          out->push_back(s_[pos_++]);
        } else {
          out->push_back(c);
        }
      }
      if (!Consume('"')) {
        *error = "unterminated string";
        return false;
      }
      return true;
    }
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') {
      pos_++;
    }
    *out = std::string(s_.substr(start, pos_ - start));
    return true;
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

bool ParseI64(std::string_view s, int64_t* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  std::string tmp(s);
  long long v = strtoll(tmp.c_str(), &end, 0);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseEventLine(std::string_view line, TraceEvent* out, std::string* error) {
  // Trim trailing whitespace/CR.
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n' || line.back() == ' ')) {
    line.remove_suffix(1);
  }
  if (line.empty() || line[0] == '#') {
    return false;
  }
  Scanner sc(line);
  int64_t v = 0;
  TraceEvent ev;

  auto fail = [&](const char* msg) {
    *error = StrFormat("%s in line: %.*s", msg, static_cast<int>(line.size()), line.data());
    return false;
  };

  if (!ParseI64(sc.Token(), &v)) {
    return fail("bad index");
  }
  ev.index = static_cast<uint64_t>(v);
  if (!ParseI64(sc.Token(), &v)) {
    return fail("bad tid");
  }
  ev.tid = static_cast<uint32_t>(v);
  if (!ParseI64(sc.Token(), &v)) {
    return fail("bad enter time");
  }
  ev.enter = v;
  if (!ParseI64(sc.Token(), &v)) {
    return fail("bad return time");
  }
  ev.ret_time = v;
  std::string_view call_name = sc.Token();
  ev.call = SysFromName(call_name);
  if (ev.call == Sys::kCount) {
    return fail("unknown syscall");
  }

  bool have_ret = false;
  while (!sc.AtEnd()) {
    std::string_view key = sc.Token();
    if (!sc.Consume('=')) {
      return fail("expected '='");
    }
    std::string value;
    if (!sc.Value(&value, error)) {
      return false;
    }
    int64_t num = 0;
    bool is_num = ParseI64(value, &num);
    if (key == "ret") {
      if (!is_num) {
        return fail("bad ret");
      }
      ev.ret = num;
      have_ret = true;
    } else if (key == "path") {
      ev.path = value;
    } else if (key == "path2") {
      ev.path2 = value;
    } else if (key == "fd") {
      ev.fd = static_cast<int32_t>(num);
    } else if (key == "fd2") {
      ev.fd2 = static_cast<int32_t>(num);
    } else if (key == "off") {
      ev.offset = num;
    } else if (key == "size") {
      ev.size = static_cast<uint64_t>(num);
    } else if (key == "flags") {
      ev.flags = static_cast<uint32_t>(num);
    } else if (key == "mode") {
      ev.mode = static_cast<uint32_t>(num);
    } else if (key == "whence") {
      ev.whence = static_cast<int32_t>(num);
    } else if (key == "name") {
      ev.name = value;
    } else if (key == "aio") {
      ev.aio_id = static_cast<uint64_t>(num);
    } else if (key == "sync") {
      ev.sync_id = static_cast<uint64_t>(num);
    } else {
      // Unknown keys are skipped for forward compatibility.
    }
  }
  if (!have_ret) {
    return fail("missing ret=");
  }
  *out = ev;
  return true;
}

std::string ParseDiag::Format() const {
  std::string out;
  if (!file.empty()) {
    out = file;
  }
  if (line > 0) {
    out += StrFormat("%s%zu (byte %llu)", out.empty() ? "line " : ":", line,
                     static_cast<unsigned long long>(byte_offset));
  }
  if (!out.empty()) {
    out += ": ";
  }
  out += message;
  return out;
}

bool ReadTrace(std::istream& in, Trace* out, ParseDiag* diag) {
  std::string line;
  size_t lineno = 0;
  uint64_t offset = 0;
  while (std::getline(in, line)) {
    lineno++;
    const uint64_t line_offset = offset;
    offset += line.size() + 1;  // the newline getline consumed
    TraceEvent ev;
    std::string error;
    if (ParseEventLine(line, &ev, &error)) {
      ev.index = out->events.size();  // reindex densely
      out->events.push_back(std::move(ev));
    } else if (!error.empty()) {
      diag->line = lineno;
      diag->byte_offset = line_offset;
      diag->message = std::move(error);
      return false;
    }
  }
  return true;
}

Trace ReadTrace(std::istream& in) {
  Trace trace;
  ParseDiag diag;
  ARTC_CHECK_MSG(ReadTrace(in, &trace, &diag),
                 "trace parse error at line %zu: %s", diag.line,
                 diag.message.c_str());
  return trace;
}

void WriteTrace(const Trace& trace, std::ostream& out) {
  out << "# artc native trace, " << trace.events.size() << " events\n";
  for (const TraceEvent& ev : trace.events) {
    out << FormatEvent(ev) << "\n";
  }
}

void WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  ARTC_CHECK_MSG(out.good(), "cannot write trace file %s", path.c_str());
  WriteTrace(trace, out);
}

namespace {
constexpr std::string_view kSnapshotLinePrefix = "#snapshot ";
}  // namespace

bool ReadTraceBundle(std::istream& in, TraceBundle* out, ParseDiag* diag) {
  std::string line;
  size_t lineno = 0;
  uint64_t offset = 0;
  while (std::getline(in, line)) {
    lineno++;
    const uint64_t line_offset = offset;
    offset += line.size() + 1;
    std::string_view view = line;
    std::string error;
    if (view.substr(0, kSnapshotLinePrefix.size()) == kSnapshotLinePrefix) {
      if (ParseSnapshotLine(view.substr(kSnapshotLinePrefix.size()),
                            &out->snapshot, &error)) {
        continue;
      }
    } else {
      TraceEvent ev;
      if (ParseEventLine(line, &ev, &error)) {
        ev.index = out->trace.events.size();
        out->trace.events.push_back(std::move(ev));
        continue;
      }
    }
    if (!error.empty()) {
      diag->line = lineno;
      diag->byte_offset = line_offset;
      diag->message = std::move(error);
      return false;
    }
  }
  out->snapshot.Canonicalize();
  return true;
}

TraceBundle ReadTraceBundle(std::istream& in) {
  TraceBundle bundle;
  ParseDiag diag;
  ARTC_CHECK_MSG(ReadTraceBundle(in, &bundle, &diag),
                 "bundle parse error at line %zu: %s", diag.line,
                 diag.message.c_str());
  return bundle;
}

void WriteTraceBundle(const TraceBundle& bundle, std::ostream& out) {
  out << "# artc trace bundle: snapshot lines are prefixed with '"
      << kSnapshotLinePrefix << "'\n";
  std::ostringstream snap_out;
  WriteSnapshot(bundle.snapshot, snap_out);
  std::istringstream snap_in(snap_out.str());
  std::string line;
  while (std::getline(snap_in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;  // the snapshot writer's own comments need no round trip
    }
    out << kSnapshotLinePrefix << line << "\n";
  }
  WriteTrace(bundle.trace, out);
}

void WriteTraceBundleFile(const TraceBundle& bundle, const std::string& path) {
  std::ofstream out(path);
  ARTC_CHECK_MSG(out.good(), "cannot write bundle file %s", path.c_str());
  WriteTraceBundle(bundle, out);
}

}  // namespace artc::trace
