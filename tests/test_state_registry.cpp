#include <gtest/gtest.h>

#include <vector>

#include "state/state_registry.h"
#include "util/rng.h"

namespace tfsim {
namespace {

TEST(StateRegistry, SetMasksToWidth) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kCtrl, Storage::kLatch, 4, 7);
  f.Set(0, 0xFFFF);
  EXPECT_EQ(f.Get(0), 0x7Fu);
}

TEST(StateRegistry, SixtyFourBitFields) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kData, Storage::kRam, 2, 64);
  f.Set(1, ~0ULL);
  EXPECT_EQ(f.Get(1), ~0ULL);
}

TEST(StateRegistry, RejectsBadWidths) {
  StateRegistry reg;
  EXPECT_THROW(reg.Allocate("z", StateCat::kCtrl, Storage::kLatch, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(reg.Allocate("z", StateCat::kCtrl, Storage::kLatch, 1, 65),
               std::invalid_argument);
}

TEST(StateRegistry, IncrementalHashMatchesRecompute) {
  StateRegistry reg;
  StateField a = reg.Allocate("a", StateCat::kCtrl, Storage::kLatch, 16, 13);
  StateField b = reg.Allocate("b", StateCat::kData, Storage::kRam, 8, 64);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    a.Set(rng.NextBelow(16), rng.Next());
    b.Set(rng.NextBelow(8), rng.Next());
    if (i % 500 == 0) {
      EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
    }
  }
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
}

TEST(StateRegistry, HashReturnsAfterUndo) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kPc, Storage::kLatch, 4, 62);
  const std::uint64_t h0 = reg.Hash();
  f.Set(2, 12345);
  EXPECT_NE(reg.Hash(), h0);
  f.Set(2, 0);
  EXPECT_EQ(reg.Hash(), h0);
}

TEST(StateRegistry, InjectableBitCountsRespectStorage) {
  StateRegistry reg;
  reg.Allocate("lat", StateCat::kCtrl, Storage::kLatch, 10, 3);   // 30 bits
  reg.Allocate("ram", StateCat::kData, Storage::kRam, 5, 8);      // 40 bits
  reg.Allocate("bg", StateCat::kData, Storage::kBackground, 9, 9);
  EXPECT_EQ(reg.InjectableBits(false), 30u);
  EXPECT_EQ(reg.InjectableBits(true), 70u);
}

TEST(StateRegistry, LocateBitWalksTheWholeSpace) {
  StateRegistry reg;
  reg.Allocate("a", StateCat::kCtrl, Storage::kLatch, 2, 3);
  reg.Allocate("bg", StateCat::kData, Storage::kBackground, 4, 64);
  reg.Allocate("b", StateCat::kAddr, Storage::kRam, 1, 4);
  // 6 latch bits then 4 RAM bits; background skipped entirely.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const BitLocation loc = reg.LocateBit(i, true);
    EXPECT_EQ(loc.name, "a");
    EXPECT_EQ(loc.element, i / 3);
    EXPECT_EQ(loc.bit, i % 3);
  }
  for (std::uint64_t i = 6; i < 10; ++i)
    EXPECT_EQ(reg.LocateBit(i, true).name, "b");
  EXPECT_THROW(reg.LocateBit(10, true), std::out_of_range);
  EXPECT_THROW(reg.LocateBit(6, false), std::out_of_range);
}

TEST(StateRegistry, FlipBitTogglesExactlyThatBit) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kInsn, Storage::kRam, 3, 32);
  f.Set(1, 0xF0F0F0F0);
  const BitLocation loc = reg.LocateBit(32 + 5, true);  // element 1, bit 5
  EXPECT_TRUE(reg.ReadBit(loc));  // bit 5 of 0xF0 is set
  reg.FlipBit(loc);
  EXPECT_FALSE(reg.ReadBit(loc));
  EXPECT_EQ(f.Get(1), 0xF0F0F0F0u ^ (1u << 5));
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
}

TEST(StateRegistry, DoubleFlipRestoresHash) {
  StateRegistry reg;
  reg.Allocate("f", StateCat::kValid, Storage::kLatch, 100, 1);
  Rng rng(2);
  const std::uint64_t h0 = reg.Hash();
  for (int i = 0; i < 100; ++i) {
    const BitLocation loc = reg.LocateBit(rng.NextBelow(100), false);
    reg.FlipBit(loc);
    reg.FlipBit(loc);
    EXPECT_EQ(reg.Hash(), h0);
  }
}

TEST(StateRegistry, SnapshotRestoreRoundTrip) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kData, Storage::kRam, 32, 64);
  Rng rng(3);
  for (int i = 0; i < 32; ++i) f.Set(i, rng.Next());
  const auto snap = reg.Snapshot();
  const std::uint64_t h = reg.Hash();
  for (int i = 0; i < 32; ++i) f.Set(i, rng.Next());
  EXPECT_NE(reg.Hash(), h);
  reg.Restore(snap);
  EXPECT_EQ(reg.Hash(), h);
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
}

TEST(StateRegistry, RestoreRejectsWrongSize) {
  StateRegistry reg;
  reg.Allocate("f", StateCat::kData, Storage::kRam, 4, 8);
  EXPECT_THROW(reg.Restore(std::vector<std::uint64_t>(3)),
               std::invalid_argument);
}

TEST(StateRegistry, InventoryByCategory) {
  StateRegistry reg;
  reg.Allocate("a", StateCat::kRegptr, Storage::kLatch, 10, 7);
  reg.Allocate("b", StateCat::kRegptr, Storage::kRam, 4, 7);
  reg.Allocate("c", StateCat::kData, Storage::kRam, 2, 64);
  const auto inv = reg.Inventory(StateCat::kRegptr);
  EXPECT_EQ(inv.latch_bits, 70u);
  EXPECT_EQ(inv.ram_bits, 28u);
  const auto total = reg.TotalInjectable();
  EXPECT_EQ(total.latch_bits, 70u);
  EXPECT_EQ(total.ram_bits, 28u + 128u);
}

TEST(StateRegistry, IdenticalAllocationOrderGivesIdenticalLayout) {
  auto build = [](StateRegistry& reg) {
    reg.Allocate("x", StateCat::kCtrl, Storage::kLatch, 7, 11);
    reg.Allocate("y", StateCat::kAddr, Storage::kRam, 3, 58);
  };
  StateRegistry a, b;
  build(a);
  build(b);
  StateField fa = a.Allocate("z", StateCat::kPc, Storage::kLatch, 1, 62);
  StateField fb = b.Allocate("z", StateCat::kPc, Storage::kLatch, 1, 62);
  fa.Set(0, 999);
  fb.Set(0, 999);
  EXPECT_EQ(a.Hash(), b.Hash());
}

// Until a registry's first hash read, writes are only logged (a word's
// first change) and that read folds the log; afterwards every write updates
// the hashes. At every read point the hashes must equal a full
// recomputation, whichever phase the writes came in and whatever their mix
// — including words written away and back (A -> B -> A) before a read.
TEST(StateRegistry, LazyFoldedHashesMatchRecomputeUnderRandomWrites) {
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    StateRegistry reg;
    std::vector<StateField> fields = {
        reg.Allocate("a", StateCat::kCtrl, Storage::kLatch, 24, 13),
        reg.Allocate("b", StateCat::kData, Storage::kRam, 16, 64),
        reg.Allocate("c", StateCat::kValid, Storage::kLatch, 40, 1),
        reg.Allocate("d", StateCat::kPc, Storage::kBackground, 8, 62)};
    const std::uint64_t bits = reg.InjectableBits(true);
    std::vector<std::vector<std::uint64_t>> snaps = {reg.Snapshot()};
    // Sparse deltas against snaps[0], applied like Core::LoadDelta: restore
    // the base, then overwrite the differing words.
    auto load_delta = [&](const std::vector<std::uint64_t>& target) {
      reg.Restore(snaps[0]);
      for (std::size_t w = 0; w < target.size(); ++w)
        if (target[w] != snaps[0][w]) reg.OverwriteWord(w, target[w]);
    };
    const std::uint64_t first_read = rng.NextBelow(3000);
    for (std::uint64_t i = 0; i < first_read + 1000; ++i) {
      StateField& f = fields[rng.NextBelow(fields.size())];
      const std::size_t e = rng.NextBelow(f.count());
      switch (rng.NextBelow(7)) {
        case 0:
        case 1:
          f.Set(e, rng.Next());
          break;
        case 2: {  // A -> B -> A: a change that must cancel out
          const std::uint64_t old = f.Get(e);
          f.Set(e, old ^ 1);
          f.Set(e, rng.Next());
          f.Set(e, old);
          break;
        }
        case 3:
          reg.FlipBit(reg.LocateBit(rng.NextBelow(bits), true));
          break;
        case 4:
          reg.OverwriteWord(f.offset() + e, rng.Next() & f.mask());
          break;
        case 5:
          if (rng.NextBool(0.5)) {
            snaps.push_back(reg.Snapshot());
          } else {
            reg.Restore(snaps[rng.NextBelow(snaps.size())]);
          }
          break;
        case 6:
          load_delta(snaps[rng.NextBelow(snaps.size())]);
          break;
      }
      if (i != first_read && (i < first_read || rng.NextBelow(50) != 0))
        continue;
      // Either hash may be the one whose read folds the log.
      if (rng.NextBool(0.5)) {
        ASSERT_EQ(reg.Hash(), reg.RecomputeHash()) << round << " step " << i;
        ASSERT_EQ(reg.CatHashes(), reg.RecomputeCatHashes()) << round;
      } else {
        ASSERT_EQ(reg.CatHashes(), reg.RecomputeCatHashes())
            << round << " step " << i;
        ASSERT_EQ(reg.Hash(), reg.RecomputeHash()) << round;
      }
      for (int c = 0; c < kNumStateCats; ++c)
        ASSERT_EQ(reg.CatHash(static_cast<StateCat>(c)),
                  reg.RecomputeCatHashes()[static_cast<std::size_t>(c)]);
    }
    EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
  }
}

// Two registries of one layout that reach the same contents through
// different write orders (and different read points) hash identically.
TEST(StateRegistry, LazyHashIsIndependentOfWriteOrderAndReadPoints) {
  auto build = [](StateRegistry& reg) {
    return std::vector<StateField>{
        reg.Allocate("x", StateCat::kCtrl, Storage::kLatch, 32, 11),
        reg.Allocate("y", StateCat::kAddr, Storage::kRam, 32, 58)};
  };
  StateRegistry a, b;
  std::vector<StateField> fa = build(a), fb = build(b);
  struct Write {
    std::size_t field, element;
    std::uint64_t value;
  };
  std::vector<Write> writes;
  Rng rng(11);
  for (int i = 0; i < 400; ++i)
    writes.push_back({rng.NextBelow(2), rng.NextBelow(32), rng.Next()});
  // The final value of each word is its last write; b applies the writes
  // that survive in reverse order, with a different intermediate value
  // first, and reads its hashes along the way.
  for (const Write& w : writes) fa[w.field].Set(w.element, w.value);
  std::vector<std::vector<bool>> seen(2, std::vector<bool>(32, false));
  int n = 0;
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    if (seen[it->field][it->element]) continue;
    seen[it->field][it->element] = true;
    fb[it->field].Set(it->element, ~it->value);
    if (++n % 7 == 0) (void)b.Hash();
    fb[it->field].Set(it->element, it->value);
  }
  EXPECT_EQ(a.WordCount(), b.WordCount());
  for (std::size_t w = 0; w < a.WordCount(); ++w)
    ASSERT_EQ(a.WordsData()[w], b.WordsData()[w]) << w;
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.CatHashes(), b.CatHashes());
  EXPECT_EQ(b.Hash(), b.RecomputeHash());
}

TEST(StateCatName, AllNamed) {
  for (int c = 0; c < kNumStateCats; ++c)
    EXPECT_STRNE(StateCatName(static_cast<StateCat>(c)), "?");
}

}  // namespace
}  // namespace tfsim
