// Block-device abstraction for the simulated storage stack.
//
// All devices are event-driven state machines on the Simulation: Submit()
// never blocks; the request's completion callback fires in scheduler context
// at the virtual time the I/O finishes.
#ifndef SRC_STORAGE_BLOCK_DEVICE_H_
#define SRC_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>

#include "src/sim/simulation.h"
#include "src/util/time.h"

namespace artc::storage {

inline constexpr uint32_t kBlockSize = 4096;

// Issuer id used for I/O not attributable to a simulated thread (write-back,
// read-ahead). Schedulers must not anticipate on this context.
inline constexpr uint32_t kAsyncIssuer = UINT32_MAX - 1;

struct BlockRequest {
  uint64_t lba = 0;        // first block
  uint32_t nblocks = 1;
  bool is_write = false;
  uint32_t issuer = kAsyncIssuer;   // I/O context for anticipatory scheduling
  std::function<void()> done;       // fired once at completion
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Enqueues the request. The device services its queue with its own policy
  // (FIFO for SSD channels, shortest-seek-first for HDD) and parallelism.
  virtual void Submit(BlockRequest req) = 0;

  virtual uint64_t CapacityBlocks() const = 0;

  // Number of requests accepted but not yet completed.
  virtual size_t Inflight() const = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_BLOCK_DEVICE_H_
