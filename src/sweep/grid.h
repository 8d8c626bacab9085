// Declarative scenario grids for the sweep engine (DESIGN.md §5j).
//
// A SweepGrid is a small set of axes — replay method, file-system profile,
// storage hardware, I/O scheduler, cache size, schedule policy, seed,
// simulation backend, pacing — each holding one or more values. Expand()
// takes the cross product and yields one CellConfig per combination, in a
// deterministic order (axes vary last-axis-fastest in the declaration order
// below), so cell index assignment is reproducible run to run.
//
// Every cell gets a content-addressed id: FNV-1a 64 over its canonical
// Echo() string, rendered as 16 hex digits. The id depends only on the
// cell's own configuration (plus the input trace's name), never on its
// position in the grid, so drill-down ids stay valid when the grid around
// them grows or is reordered.
//
// Values are validated while the grid is parsed, storage configs and fs
// profiles through their layers' FindNamedConfig and FindFsProfile, so bad
// axis values come back as error strings, not aborts.
#ifndef SRC_SWEEP_GRID_H_
#define SRC_SWEEP_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/artc.h"
#include "src/core/modes.h"
#include "src/sim/schedule.h"
#include "src/sim/simulation.h"

namespace artc::sweep {

// One fully-specified scenario: everything ReplayCompiledOnSimTarget needs
// except the compiled benchmark itself.
struct CellConfig {
  // Name of the input trace (workload name); part of the cell identity so
  // the same grid swept over two traces yields disjoint ids.
  std::string trace_name;

  std::string method = "artc";    // artc | single | temporal | unconstrained
  std::string fs = "ext4";        // vfs::MakeFsProfile name
  std::string storage = "hdd";    // storage::MakeNamedConfig name
  // I/O-scheduler override layered on the named storage config:
  //   base      keep the named config's scheduler
  //   noop      force SchedulerKind::kNoop
  //   cfq-1ms   force CFQ, 1 ms sync slice
  //   cfq-100ms force CFQ, 100 ms sync slice
  std::string iosched = "base";
  // Page-cache capacity in MB (4096-byte blocks, so 1 MB = 256 blocks);
  // -1 keeps the named storage config's capacity.
  int64_t cache_mb = -1;
  std::string schedule = "default";  // sim::ScheduleSpec::ToString() form
  uint64_t seed = 1;
  std::string backend = "fibers";    // fibers | parallel
  std::string pacing = "afap";       // afap | natural

  // Canonical one-line rendering, "k=v,k=v,..." in a fixed key order. This
  // is the cell's identity: Id() hashes exactly this string.
  std::string Echo() const;

  // FNV-1a 64 of Echo() as 16 lowercase hex digits.
  std::string Id() const;

  // Materializes the simulation target. The grid validated every field, so
  // this cannot hit the storage/vfs abort paths.
  core::SimTarget MakeTarget() const;
  core::CompileOptions MakeCompileOptions() const;
};

// The declarative grid: one vector of accepted values per axis. Empty
// vectors mean "the single default value" (filled in by Normalize).
struct SweepGrid {
  std::vector<std::string> method;
  std::vector<std::string> fs;
  std::vector<std::string> storage;
  std::vector<std::string> iosched;
  std::vector<int64_t> cache_mb;
  std::vector<std::string> schedule;
  std::vector<uint64_t> seed;
  std::vector<std::string> backend;
  std::vector<std::string> pacing;

  // Fills empty axes with their defaults (see CellConfig initializers).
  void Normalize();

  // Validates every axis value against the vocabularies the lower layers
  // accept. Returns false and describes the first offender in *error.
  bool Validate(std::string* error) const;

  // Number of cells Expand() will produce (after Normalize).
  size_t CellCount() const;

  // Cross product, deterministic order. Calls Normalize() + Validate()
  // first; returns false (empty *out) on validation failure.
  bool Expand(const std::string& trace_name, std::vector<CellConfig>* out,
              std::string* error);
};

// Parses the sweep grid text format:
//
//   # comment
//   method  = artc, temporal
//   storage = hdd, ssd, raid0
//   cache_mb = 64, 384
//   seed    = 1, 2, 3
//
// One `axis = v1, v2, ...` line per axis (later lines for the same axis
// replace earlier ones); unknown axis names are errors. Axes not mentioned
// keep their defaults.
bool ParseGridText(const std::string& text, SweepGrid* out, std::string* error);
bool ParseGridFile(const std::string& path, SweepGrid* out, std::string* error);

// Axis names in declaration (= expansion) order; shared by the parser, the
// JSONL rows, and the aggregate report's sensitivity table.
const std::vector<std::string>& GridAxisNames();

// The value a cell holds for a named axis, rendered as a string
// ("method" -> "artc", "cache_mb" -> "-1"). Aborts on unknown axis names —
// callers iterate GridAxisNames().
std::string CellAxisValue(const CellConfig& cell, const std::string& axis);

}  // namespace artc::sweep

#endif  // SRC_SWEEP_GRID_H_
