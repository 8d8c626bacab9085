// Magritte: a synthetic desktop-application benchmark suite patterned after
// the 34 iBench traces of Apple's iLife/iWork applications the paper
// compiles into its released suite (Sec. 6). The real traces are not
// redistributable inputs, so this generator reproduces their *structural*
// properties instead — the ones Table 3 and Fig. 10 depend on:
//
//  * dense inter-thread resource sharing: one thread opens a file, another
//    writes it, a third closes it (fd hand-off through worker queues);
//  * atomic document saves: write temp file (reused name!), fsync, rename
//    over the original — including whole-package directory renames;
//  * metadata storms: plist stats, xattr reads/writes, directory scans;
//  * /dev/random reads, fsync batches, large media imports/exports;
//  * missing-initialization artifacts: some traced getxattr calls refer to
//    attributes the snapshot does not record (the paper's dominant source
//    of residual ARTC replay errors).
#ifndef SRC_WORKLOADS_MAGRITTE_H_
#define SRC_WORKLOADS_MAGRITTE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/workloads/workload.h"

namespace artc::workloads {

struct MagritteSpec {
  std::string app;       // "iphoto", "itunes", "imovie", "pages", "numbers", "keynote"
  std::string scenario;  // e.g. "start", "import", "pdfphoto"
  uint32_t scale = 1;    // item count: photos=400, slides=20, pages=15, ...
  // Number of files whose extended attributes are present in the traced
  // execution but stripped from the snapshot (models the iBench traces'
  // missing xattr-initialization information; each causes a small constant
  // number of replay failures in *every* constrained replay mode).
  uint32_t xattr_init_gaps = 0;

  std::string FullName() const { return app + "_" + scenario; }
};

// The 34-workload suite in Table 3 order.
const std::vector<MagritteSpec>& MagritteSuite();

// Looks up a spec by "app_scenario" name; nullptr if unknown.
const MagritteSpec* LookupMagritteSpec(const std::string& full_name);

// LookupMagritteSpec for a name the caller knows is valid; aborts otherwise.
const MagritteSpec& FindMagritteSpec(const std::string& full_name);

// Builds the application model for a spec.
std::unique_ptr<Workload> MakeMagritteWorkload(const MagritteSpec& spec);

// Traces the workload on the source config and applies the spec's
// xattr-initialization gaps to the captured snapshot.
TracedRun TraceMagritte(const MagritteSpec& spec, const SourceConfig& config);

}  // namespace artc::workloads

#endif  // SRC_WORKLOADS_MAGRITTE_H_
