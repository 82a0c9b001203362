#include "arch/tlb.h"

#include <algorithm>

#include "arch/memory.h"

namespace tfsim {

bool Tlb::Lookup(std::unordered_set<std::uint64_t>& pages,
                 std::uint64_t addr) {
  const std::uint64_t page = addr / kPageBytes;
  if (learning_) {
    pages.insert(page);
    return true;
  }
  return pages.count(page) != 0;
}

namespace {

std::vector<std::uint64_t> Sorted(const std::unordered_set<std::uint64_t>& s) {
  std::vector<std::uint64_t> out(s.begin(), s.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<std::uint64_t> Tlb::InsnPageList() const { return Sorted(ipages_); }
std::vector<std::uint64_t> Tlb::DataPageList() const { return Sorted(dpages_); }

void Tlb::AddPages(const std::vector<std::uint64_t>& insn,
                   const std::vector<std::uint64_t>& data) {
  ipages_.insert(insn.begin(), insn.end());
  dpages_.insert(data.begin(), data.end());
}

bool Tlb::LookupInsn(std::uint64_t addr) { return Lookup(ipages_, addr); }
bool Tlb::LookupData(std::uint64_t addr) { return Lookup(dpages_, addr); }

}  // namespace tfsim
