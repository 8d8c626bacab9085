// Declarative scenario grids for the sweep engine (DESIGN.md §5j).
//
// A SweepGrid is a small set of axes — workload, its thread count, the
// source stack it is traced on, replay method, file-system profile, storage
// hardware, I/O scheduler, cache size, schedule policy, seed, pacing — each
// holding one or more values. Expand() takes the cross product and yields
// one CellConfig per combination, in a deterministic order (axes vary
// last-axis-fastest in the declaration order below), so cell index
// assignment is reproducible run to run. A grid file may hold several cross
// products; ExpandGrids() concatenates them.
//
// Every cell gets a content-addressed id: FNV-1a 64 over its canonical
// Echo() string, rendered as 16 hex digits. The id depends only on the
// cell's own configuration, never on its position in the grid, so
// drill-down ids stay valid when the grid around them grows or is
// reordered.
//
// Values are validated (SetCellAxis) while the grid is parsed and again
// while it is expanded, so bad axis values come back as error strings, not
// aborts.
#ifndef SRC_SWEEP_GRID_H_
#define SRC_SWEEP_GRID_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/artc.h"
#include "src/core/modes.h"
#include "src/sim/schedule.h"
#include "src/storage/storage_stack.h"
#include "src/workloads/workload.h"

namespace artc::sweep {

// One fully-specified scenario.
struct CellConfig {
  // A NamedWorkload name, or the name of a pre-traced input.
  std::string workload = "iphoto_import";
  uint32_t threads = 0;  // the program's thread count; 0 keeps its own
  // The stack the workload is traced on, spelled as StackName() spells the
  // target's: "storage[:fs=F][:iosched=S][:cache_mb=N]".
  std::string source = "ssd";

  std::string method = "artc";  // core::kReplayMethodNames
  // The target stack the cell replays on and measures the original on.
  std::string fs = "ext4";
  std::string storage = "hdd";
  // I/O-scheduler override layered on the named storage config: base keeps
  // its scheduler, noop forces kNoop, cfq-<N>ms forces CFQ with an N ms
  // sync slice (1 <= N <= 1000).
  std::string iosched = "base";
  // Page-cache capacity in MB (4096-byte blocks, so 1 MB = 256 blocks);
  // -1 keeps the named storage config's capacity.
  int64_t cache_mb = -1;
  std::string schedule = "default";  // sim::ScheduleSpec::ToString() form
  // Seed of every simulated world in the cell: the traced source run, the
  // original run on the target and the replay.
  uint64_t seed = 1;
  std::string pacing = "afap";  // afap | natural

  // Canonical one-line rendering, "k=v,k=v,..." in a fixed key order. This
  // is the cell's identity: Id() hashes exactly this string.
  std::string Echo() const;

  // FNV-1a 64 of Echo() as 16 lowercase hex digits.
  std::string Id() const;

  // The target stack as "storage[:fs=F][:iosched=S][:cache_mb=N]", naming
  // only the fields that differ from their defaults.
  std::string StackName() const;

  // A cell whose stack (and seed) is this cell's source.
  CellConfig SourceStack() const;

  // Runs a workload on this cell's stack at its seed.
  workloads::SourceConfig MakeSourceConfig() const;

  // What the cell's trace depends on (workload, threads, source, seed) and
  // what its original run depends on (workload, threads, target, seed):
  // cells with equal keys share one trace or one original run.
  std::string TraceKey() const;
  std::string OriginalKey() const;

  // Materializes the simulation target. The grid validated every field, so
  // this cannot hit the storage/vfs abort paths.
  core::SimTarget MakeTarget() const;
};

// One cross product: axis name -> accepted values, spelled as in a grid
// file ("seed" -> {"1", "2"}). An axis that is absent or empty holds its
// single default value, the CellConfig initializer.
struct SweepGrid {
  std::map<std::string, std::vector<std::string>> axes;

  // Number of cells Expand() will produce.
  size_t CellCount() const;

  // Cross product, deterministic order (the last axis of GridAxisNames()
  // turns fastest). Returns false (empty *out) when a value is not in its
  // axis's vocabulary, an axis name is unknown, or a thread count does not
  // fit its workload.
  bool Expand(std::vector<CellConfig>* out, std::string* error) const;
};

// Expands each cross product in turn and concatenates the cells. A cell
// that two cross products both produce is an error.
bool ExpandGrids(std::vector<SweepGrid> grids, std::vector<CellConfig>* out,
                 std::string* error);

// Parses the sweep grid text format:
//
//   # comment
//   workload = random_readers
//   source   = hdd, raid0:cache_mb=96
//   method   = artc, temporal
//   storage  = hdd, ssd, raid0
//   ---
//   storage  = smallcache
//   fs       = ext3, xfs
//
// One `axis = v1, v2, ...` line per axis (later lines for the same axis
// replace earlier ones); unknown axis names are errors. Axes not mentioned
// keep their defaults. A `---` line ends one cross product and starts the
// next as a copy of it, so the next lists only the axes that change.
bool ParseGridText(const std::string& text, std::vector<SweepGrid>* out,
                   std::string* error);
bool ParseGridFile(const std::string& path, std::vector<SweepGrid>* out,
                   std::string* error);

// Axis names in declaration (= expansion) order; shared by the parser, the
// cell echo, the JSONL rows, and the aggregate report's sensitivity table.
const std::vector<std::string>& GridAxisNames();

// The value a cell holds for a named axis, rendered as a string
// ("method" -> "artc", "cache_mb" -> "-1"). Aborts on unknown axis names —
// callers iterate GridAxisNames().
std::string CellAxisValue(const CellConfig& cell, const std::string& axis);

// The inverse: checks `value` against the axis's vocabulary (workloads
// through NamedWorkload::Find, methods, storage configs and fs profiles
// through FindReplayMethod, FindNamedConfig and FindFsProfile) and stores
// it in *cell, a source in its canonical spelling. False with *error for an
// unknown axis or a bad value.
bool SetCellAxis(CellConfig* cell, const std::string& axis,
                 const std::string& value, std::string* error);

}  // namespace artc::sweep

#endif  // SRC_SWEEP_GRID_H_
