// Translation lookaside buffer model.
//
// The paper preloads both TLBs with every page the workload touches in a
// fault-free run, so that any TLB miss observed during an injected trial
// signals a potentially illegal access (classified itlb/dtlb, both SDC).
// We model exactly that: a Tlb is a set of permitted page indices per side
// (instruction / data). In learning mode accesses populate the sets; in
// checking mode an access outside the sets reports a miss.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace tfsim {

class Tlb {
 public:
  // While learning, every access is permitted and recorded.
  void SetLearning(bool learning) { learning_ = learning; }
  bool learning() const { return learning_; }

  // Returns true when the page holding addr is mapped on the given side.
  bool LookupInsn(std::uint64_t addr);
  bool LookupData(std::uint64_t addr);

  std::size_t InsnPages() const { return ipages_.size(); }
  std::size_t DataPages() const { return dpages_.size(); }

  // The learned page indices (addr / kPageBytes), sorted, and their
  // re-insertion: how a persisted golden warm-up carries its TLB contents.
  std::vector<std::uint64_t> InsnPageList() const;
  std::vector<std::uint64_t> DataPageList() const;
  void AddPages(const std::vector<std::uint64_t>& insn,
                const std::vector<std::uint64_t>& data);

 private:
  bool Lookup(std::unordered_set<std::uint64_t>& pages, std::uint64_t addr);

  std::unordered_set<std::uint64_t> ipages_;
  std::unordered_set<std::uint64_t> dpages_;
  bool learning_ = true;
};

}  // namespace tfsim
