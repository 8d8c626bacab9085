// RAID-0 striping over N block devices with a configurable chunk size.
// Requests spanning chunk boundaries are split; the composite completes when
// every member stripe completes. Independent member devices give the array
// its extra parallelism (the feedback loop in Fig. 5(b)).
#ifndef SRC_STORAGE_RAID0_H_
#define SRC_STORAGE_RAID0_H_

#include <memory>
#include <vector>

#include "src/storage/block_device.h"

namespace artc::storage {

class Raid0 : public BlockDevice {
 public:
  // chunk_blocks: stripe unit in blocks (paper uses 512 KB = 128 blocks).
  Raid0(std::vector<std::unique_ptr<BlockDevice>> members, uint32_t chunk_blocks);

  void Submit(BlockRequest req) override;
  uint64_t CapacityBlocks() const override { return capacity_; }
  size_t Inflight() const override;

  size_t MemberCount() const { return members_.size(); }

  // Per-member blocks routed (stripe-balance diagnostics); index = member.
  const std::vector<uint64_t>& MemberReadBlocks() const {
    return member_read_blocks_;
  }
  const std::vector<uint64_t>& MemberWriteBlocks() const {
    return member_write_blocks_;
  }

 private:
  // One array request fanned out to its member requests. Records are pooled
  // and recycled through a free list, so a request allocates nothing.
  struct Fanout {
    uint32_t outstanding = 0;  // member requests not yet complete
    uint32_t next_free = 0;    // free-list link while unused
    std::function<void()> done;
  };
  static constexpr uint32_t kNoFanout = UINT32_MAX;
  // Counts one member completion of fanouts_[f]; the last fires `done`.
  void PieceDone(uint32_t f);

  std::vector<std::unique_ptr<BlockDevice>> members_;
  uint32_t chunk_blocks_;
  uint64_t capacity_;
  std::vector<uint64_t> member_read_blocks_;
  std::vector<uint64_t> member_write_blocks_;
  std::vector<Fanout> fanouts_;
  uint32_t free_fanout_ = kNoFanout;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_RAID0_H_
