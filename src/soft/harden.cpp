#include "soft/harden.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "analyze/asm/cfg.h"
#include "analyze/asm/dataflow.h"
#include "workloads/workloads.h"

namespace tfsim {

using analyze::AsmFinding;
using analyze::AsmFindingKind;
using analyze::AsmInst;
using analyze::AsmProgram;
using analyze::BasicBlock;
using analyze::Cfg;

const char* HardenModeName(HardenMode m) {
  switch (m) {
    case HardenMode::kCfc: return "cfc";
    case HardenMode::kDup: return "dup";
    case HardenMode::kFull: return "full";
  }
  return "?";
}

std::uint32_t HardenPlan::ReservedMask() const {
  std::uint32_t mask = 0;
  for (const std::uint8_t r : {sb, s1, s2, s3, g, t})
    if (r != kNoReg) mask |= 1u << r;
  return mask;
}

namespace {

std::int64_t SlotOf(std::uint8_t reg) { return 8 * static_cast<int>(reg); }

// Detects the assembler's li/la expansion at instruction i: `ldah r, hi(zero)`
// immediately followed by `lda r, lo(r)`. Returns the materialized value.
std::optional<std::int64_t> LiPairValue(const AsmProgram& prog,
                                        std::size_t i) {
  if (i + 1 >= prog.insts.size()) return std::nullopt;
  const DecodedInst& a = prog.insts[i].d;
  const DecodedInst& b = prog.insts[i + 1].d;
  if (!prog.insts[i].canonical || !prog.insts[i + 1].canonical)
    return std::nullopt;
  if (a.op != Op::kLdah || a.src1 != kZeroReg || a.dst == kNoReg)
    return std::nullopt;
  if (b.op != Op::kLda || b.dst != a.dst || b.src1 != a.dst)
    return std::nullopt;
  return (a.imm << 16) + b.imm;
}

// A li/la pair whose value is a text address must be remapped to the hardened
// layout; that is only sound when it names a basic-block leader.
std::optional<std::size_t> TextPairTargetBlock(const AsmProgram& prog,
                                               const Cfg& cfg,
                                               std::size_t i) {
  const auto value = LiPairValue(prog, i);
  if (!value) return std::nullopt;
  const std::uint64_t addr = static_cast<std::uint64_t>(*value);
  if (addr < prog.text_base || addr >= prog.EndAddr()) return std::nullopt;
  const auto idx = prog.IndexOf(addr);
  if (!idx) {
    throw std::runtime_error(
        "harden: text-pointer materialization at " + prog.Locate(prog.insts[i].addr) +
        " is not word-aligned");
  }
  const std::size_t blk = cfg.block_of_inst[*idx];
  if (cfg.blocks[blk].first != *idx) {
    throw std::runtime_error(
        "harden: text pointer at " + prog.Locate(prog.insts[i].addr) +
        " names the middle of a basic block");
  }
  return blk;
}

class Emitter {
 public:
  Emitter(const AsmProgram& prog, const Cfg& cfg, HardenPlan plan)
      : prog_(prog), cfg_(cfg), plan_(std::move(plan)) {}

  HardenedProgram Run(const Program& orig) {
    EmitPrologue();
    block_start_.assign(cfg_.blocks.size(), 0);
    const auto resync = ReturnPointResyncs();
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      block_start_[b] = words_.size();
      EmitCheck(b);
      if (const auto it = resync.find(b); plan_.Dup() && it != resync.end()) {
        for (const std::uint8_t rd : it->second) {
          Component(AsmFindingKind::kUnduplicatedValue,
                    prog_.insts[cfg_.blocks[b].first].addr,
                    "call-return shadow resync", [&] {
                      W(EncodeM(Op::kStq, rd, plan_.sb, SlotOf(rd)));
                    });
        }
      }
      EmitBody(b);
    }
    fault_word_ = words_.size();
    Component(AsmFindingKind::kHardenStructure, prog_.entry, "fault block",
              [&] { W(0); });  // opcode 0x00 = kIllegal: fail-stop trap
    ApplyFixups();
    return Finish(orig);
  }

 private:
  struct Fixup {
    enum Kind { kFault, kBlock, kPairHi, kPairLo } kind;
    std::size_t word_idx;
    std::size_t target_block = 0;
  };

  void W(std::uint32_t w) { words_.push_back(w); }

  template <typename Fn>
  void Component(AsmFindingKind kind, std::uint64_t orig_addr,
                 const char* what, Fn fn) {
    HardenedProgram::Component c;
    c.kind = kind;
    c.orig_addr = orig_addr;
    c.first_word = words_.size();
    c.what = what;
    fn();
    c.num_words = words_.size() - c.first_word;
    if (c.num_words == 0) return;
    components_.push_back(c);
  }

  void Master(std::uint64_t orig_addr, std::uint32_t word) {
    Component(AsmFindingKind::kHardenStructure, orig_addr, "master",
              [&] { W(word); });
  }

  void GSet(std::size_t b, std::uint64_t orig_addr) {
    if (!plan_.Cfc()) return;
    Component(AsmFindingKind::kSignatureEdge, orig_addr, "signature set", [&] {
      W(EncodeI(Op::kAddqi, kZeroReg, plan_.g, plan_.sig[b]));
    });
  }

  // `ldq S1, slot(reg); cmpeq reg, S1, T; beq T, fault`
  void Guard(std::uint8_t reg, std::uint64_t orig_addr, AsmFindingKind kind,
             const char* what) {
    if (!plan_.Dup() || reg == kZeroReg || reg == kNoReg) return;
    Component(kind, orig_addr, what, [&] {
      W(EncodeM(Op::kLdq, plan_.s1, plan_.sb, SlotOf(reg)));
      W(EncodeR(Op::kCmpeq, reg, plan_.s1, plan_.t));
      fixups_.push_back({Fixup::kFault, words_.size()});
      W(EncodeB(Op::kBeq, plan_.t, 0));
    });
  }

  void EmitPrologue() {
    const std::uint64_t at = prog_.entry;
    if (plan_.Dup()) {
      Component(AsmFindingKind::kHardenStructure, at, "prologue", [&] {
        const std::int64_t v = static_cast<std::int64_t>(plan_.shadow_base);
        const std::int64_t lo = static_cast<std::int16_t>(v & 0xFFFF);
        const std::int64_t hi = (v - lo) >> 16;
        W(EncodeM(Op::kLdah, plan_.sb, kZeroReg, hi));
        W(EncodeM(Op::kLda, plan_.sb, plan_.sb, lo));
        const std::uint32_t reserved = plan_.ReservedMask();
        for (int r = 0; r < kZeroReg; ++r) {
          if (reserved & (1u << r)) continue;
          W(EncodeM(Op::kStq, static_cast<std::uint8_t>(r), plan_.sb,
                    SlotOf(static_cast<std::uint8_t>(r))));
        }
      });
    }
    if (plan_.Cfc()) {
      Component(AsmFindingKind::kSignatureEdge, at, "prologue signature",
                [&] {
                  W(EncodeI(Op::kAddqi, kZeroReg, plan_.g,
                            plan_.prologue_sig));
                });
    }
    Component(AsmFindingKind::kHardenStructure, at, "prologue entry jump",
              [&] {
                fixups_.push_back(
                    {Fixup::kBlock, words_.size(), cfg_.entry_block});
                W(EncodeB(Op::kBr, kZeroReg, 0));
              });
  }

  // Allowed incoming signatures of block b: its CFG predecessors, plus the
  // synthetic prologue for the entry block.
  std::vector<std::int64_t> CheckConsts(std::size_t b) const {
    std::set<std::int64_t> consts;
    for (const std::size_t p : cfg_.blocks[b].preds)
      consts.insert(plan_.sig[p]);
    if (b == cfg_.entry_block) consts.insert(plan_.prologue_sig);
    return {consts.begin(), consts.end()};
  }

  void EmitCheck(std::size_t b) {
    if (!plan_.Cfc()) return;
    const std::vector<std::int64_t> consts = CheckConsts(b);
    if (consts.empty()) return;  // unreachable block: nothing can arrive
    const std::uint64_t at = prog_.insts[cfg_.blocks[b].first].addr;
    Component(AsmFindingKind::kSignatureEdge, at, "entry signature check",
              [&] {
                const std::size_t ok = words_.size() + 2 * consts.size();
                for (std::size_t j = 0; j < consts.size(); ++j) {
                  W(EncodeI(Op::kCmpeqi, plan_.g, plan_.t, consts[j]));
                  if (j + 1 < consts.size()) {
                    const std::int64_t disp =
                        static_cast<std::int64_t>(ok) -
                        static_cast<std::int64_t>(words_.size()) - 1;
                    W(EncodeB(Op::kBne, plan_.t, disp));
                  } else {
                    fixups_.push_back({Fixup::kFault, words_.size()});
                    W(EncodeB(Op::kBeq, plan_.t, 0));
                  }
                }
              });
  }

  // Shadow re-execution of a value-producing master. Sources load from their
  // shadow slots; the result lands in S3 and is stored back to dst's slot.
  void EmitDup(const AsmInst& ai) {
    if (!plan_.Dup() || ai.d.dst == kNoReg) return;
    const DecodedInst& d = ai.d;
    Component(AsmFindingKind::kUnduplicatedValue, ai.addr, "duplication", [&] {
      const auto shadow_src = [&](std::uint8_t reg,
                                  std::uint8_t scratch) -> std::uint8_t {
        if (reg == kZeroReg || reg == kNoReg) return kZeroReg;
        W(EncodeM(Op::kLdq, scratch, plan_.sb, SlotOf(reg)));
        return scratch;
      };
      if (d.op == Op::kLda || d.op == Op::kLdah ||
          d.cls == InsnClass::kLoad) {
        const std::uint8_t a = shadow_src(d.src1, plan_.s1);
        W(EncodeM(d.op, plan_.s3, a, d.imm));
      } else if (d.src2 == kNoReg) {  // I-format ALU
        const std::uint8_t a = shadow_src(d.src1, plan_.s1);
        W(EncodeI(d.op, a, plan_.s3, d.imm));
      } else {  // R-format ALU
        const std::uint8_t a = shadow_src(d.src1, plan_.s1);
        const std::uint8_t b = shadow_src(d.src2, plan_.s2);
        W(EncodeR(d.op, a, b, plan_.s3));
      }
      W(EncodeM(Op::kStq, plan_.s3, plan_.sb, SlotOf(d.dst)));
    });
  }

  // Remapped text-pointer pair: the ldah/lda immediates are fixed up to the
  // hardened address of the target block (master and shadow alike).
  void EmitTextPair(const AsmInst& hi, const AsmInst& lo, std::size_t blk) {
    const std::uint8_t r = hi.d.dst;
    Component(AsmFindingKind::kHardenStructure, hi.addr, "master", [&] {
      fixups_.push_back({Fixup::kPairHi, words_.size(), blk});
      W(EncodeM(Op::kLdah, r, kZeroReg, 0));
    });
    if (plan_.Dup()) {
      Component(AsmFindingKind::kUnduplicatedValue, hi.addr, "duplication",
                [&] {
                  fixups_.push_back({Fixup::kPairHi, words_.size(), blk});
                  W(EncodeM(Op::kLdah, plan_.s3, kZeroReg, 0));
                  W(EncodeM(Op::kStq, plan_.s3, plan_.sb, SlotOf(r)));
                });
    }
    Component(AsmFindingKind::kHardenStructure, lo.addr, "master", [&] {
      fixups_.push_back({Fixup::kPairLo, words_.size(), blk});
      W(EncodeM(Op::kLda, r, r, 0));
    });
    if (plan_.Dup()) {
      Component(AsmFindingKind::kUnduplicatedValue, lo.addr, "duplication",
                [&] {
                  W(EncodeM(Op::kLdq, plan_.s1, plan_.sb, SlotOf(r)));
                  fixups_.push_back({Fixup::kPairLo, words_.size(), blk});
                  W(EncodeM(Op::kLda, plan_.s3, plan_.s1, 0));
                  W(EncodeM(Op::kStq, plan_.s3, plan_.sb, SlotOf(r)));
                });
    }
  }

  void EmitBody(std::size_t b) {
    const BasicBlock& bb = cfg_.blocks[b];
    bool skip_next = false;
    bool gset_done = false;
    for (std::size_t i = bb.first; i <= bb.last; ++i) {
      if (skip_next) {
        skip_next = false;
        continue;
      }
      const AsmInst& ai = prog_.insts[i];
      orig_to_word_[i] = words_.size();
      if (!ai.canonical) {
        Master(ai.addr, ai.word);
        continue;
      }
      const DecodedInst& d = ai.d;
      switch (d.cls) {
        case InsnClass::kCondBranch: {
          Guard(d.src1, ai.addr, AsmFindingKind::kUnguardedBranch,
                "branch guard");
          GSet(b, ai.addr);
          gset_done = true;
          const std::uint64_t target =
              ai.addr + 4 + static_cast<std::uint64_t>(d.imm) * 4;
          const std::size_t tb = cfg_.block_of_inst[*prog_.IndexOf(target)];
          Component(AsmFindingKind::kHardenStructure, ai.addr, "master", [&] {
            fixups_.push_back({Fixup::kBlock, words_.size(), tb});
            W(EncodeB(d.op, d.src1, 0));
          });
          break;
        }
        case InsnClass::kBr:
        case InsnClass::kBsr: {
          GSet(b, ai.addr);
          gset_done = true;
          const std::uint64_t target =
              ai.addr + 4 + static_cast<std::uint64_t>(d.imm) * 4;
          const std::size_t tb = cfg_.block_of_inst[*prog_.IndexOf(target)];
          const std::uint8_t ra = RaField(ai.word);
          Component(AsmFindingKind::kHardenStructure, ai.addr, "master", [&] {
            fixups_.push_back({Fixup::kBlock, words_.size(), tb});
            W(EncodeB(d.op, ra, 0));
          });
          break;
        }
        case InsnClass::kJmp:
        case InsnClass::kJsr:
        case InsnClass::kRet:
          GSet(b, ai.addr);
          gset_done = true;
          Master(ai.addr, ai.word);
          break;
        case InsnClass::kSyscall:
          for (const std::uint8_t r : {std::uint8_t{0}, std::uint8_t{16},
                                       std::uint8_t{17}}) {
            Guard(r, ai.addr, AsmFindingKind::kUnguardedStore,
                  "syscall guard");
          }
          Master(ai.addr, ai.word);
          if (plan_.Dup()) {
            // The syscall writes v0; bring its shadow back in sync.
            Component(AsmFindingKind::kUnduplicatedValue, ai.addr,
                      "syscall resync",
                      [&] { W(EncodeM(Op::kStq, 0, plan_.sb, 0)); });
          }
          break;
        case InsnClass::kStore:
          Guard(d.src2, ai.addr, AsmFindingKind::kUnguardedStore,
                "store data guard");
          Guard(d.src1, ai.addr, AsmFindingKind::kUnguardedStore,
                "store address guard");
          Master(ai.addr, ai.word);
          break;
        default: {  // kAlu / kAluComplex / kLoad: value instructions
          const auto pair_blk = TextPairTargetBlock(prog_, cfg_, i);
          if (pair_blk && i + 1 <= bb.last) {
            EmitTextPair(ai, prog_.insts[i + 1], *pair_blk);
            orig_to_word_[i + 1] = orig_to_word_[i];
            skip_next = true;
            break;
          }
          Master(ai.addr, ai.word);
          EmitDup(ai);
          break;
        }
      }
    }
    // Fallthrough (or syscall / plain) block ends: publish the signature
    // before control reaches the next block's check.
    if (!gset_done && !bb.succs.empty())
      GSet(b, prog_.insts[bb.last].addr);
  }

  // Return-point block -> call destination registers needing a shadow resync
  // (the call wrote its return address into dst at runtime).
  std::map<std::size_t, std::set<std::uint8_t>> ReturnPointResyncs() const {
    std::map<std::size_t, std::set<std::uint8_t>> out;
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      const BasicBlock& bb = cfg_.blocks[b];
      if (!bb.is_call) continue;
      const auto rp = cfg_.ReturnPoint(b);
      if (!rp) continue;
      const std::uint8_t rd = prog_.insts[bb.last].d.dst;
      if (rd != kNoReg) out[*rp].insert(rd);
    }
    return out;
  }

  void ApplyFixups() {
    for (const Fixup& f : fixups_) {
      const std::uint32_t w = words_[f.word_idx];
      const Op op = static_cast<Op>(OpField(w));
      const std::size_t target =
          f.kind == Fixup::kFault ? fault_word_ : block_start_[f.target_block];
      if (f.kind == Fixup::kFault || f.kind == Fixup::kBlock) {
        const std::int64_t disp = static_cast<std::int64_t>(target) -
                                  static_cast<std::int64_t>(f.word_idx) - 1;
        words_[f.word_idx] = EncodeB(op, RaField(w), disp);
      } else {
        const std::int64_t addr =
            static_cast<std::int64_t>(kAsmTextBase + 4 * target);
        const std::int64_t lo = static_cast<std::int16_t>(addr & 0xFFFF);
        const std::int64_t hi = (addr - lo) >> 16;
        words_[f.word_idx] = EncodeM(
            op, RaField(w), RbField(w), f.kind == Fixup::kPairHi ? hi : lo);
      }
    }
  }

  HardenedProgram Finish(const Program& orig) {
    HardenedProgram hp;
    hp.plan = plan_;
    hp.components = std::move(components_);
    hp.block_start_word = block_start_;
    hp.fault_word = fault_word_;

    Program& p = hp.program;
    Program::Chunk text;
    text.addr = kAsmTextBase;
    text.bytes.resize(words_.size() * 4);
    std::memcpy(text.bytes.data(), words_.data(), text.bytes.size());
    p.chunks.push_back(std::move(text));
    for (const auto& c : orig.chunks) {
      const bool is_text = prog_.text_base == c.addr &&
                           c.bytes.size() == prog_.insts.size() * 4;
      if (!is_text) p.chunks.push_back(c);
    }
    p.entry = kAsmTextBase;
    for (const auto& [name, value] : orig.symbols) {
      if (const auto idx = prog_.IndexOf(value)) {
        const auto it = orig_to_word_.find(*idx);
        if (it != orig_to_word_.end()) {
          const std::size_t blk = cfg_.block_of_inst[*idx];
          const std::size_t word = cfg_.blocks[blk].first == *idx
                                       ? block_start_[blk]
                                       : it->second;
          p.symbols[name] = kAsmTextBase + 4 * word;
          continue;
        }
      }
      p.symbols[name] = value;
    }
    p.symbols["_start"] = kAsmTextBase;
    p.symbols["__harden_fault"] = kAsmTextBase + 4 * fault_word_;
    return hp;
  }

  const AsmProgram& prog_;
  const Cfg& cfg_;
  HardenPlan plan_;
  std::vector<std::uint32_t> words_;
  std::vector<Fixup> fixups_;
  std::vector<HardenedProgram::Component> components_;
  std::vector<std::size_t> block_start_;
  std::map<std::size_t, std::size_t> orig_to_word_;
  std::size_t fault_word_ = 0;
};

}  // namespace

HardenPlan PlanHarden(const AsmProgram& orig, const Cfg& cfg,
                      HardenMode mode) {
  if (orig.insts.empty()) throw std::runtime_error("harden: empty program");
  if (!cfg.unresolved_indirect.empty()) {
    throw std::runtime_error(
        "harden: unresolved indirect jump at " +
        orig.Locate(orig.insts[cfg.unresolved_indirect.front()].addr));
  }
  if (!cfg.out_of_text.empty()) {
    throw std::runtime_error(
        "harden: branch target outside text at " +
        orig.Locate(orig.insts[cfg.out_of_text.front()].addr));
  }
  if (cfg.blocks.size() > 32000)
    throw std::runtime_error("harden: too many blocks for imm16 signatures");
  // Validate every text-pointer materialization up front (throws on
  // mid-block targets); a pair split across a block boundary cannot be
  // remapped atomically.
  for (std::size_t i = 0; i < orig.insts.size(); ++i) {
    if (TextPairTargetBlock(orig, cfg, i) &&
        cfg.block_of_inst[i] != cfg.block_of_inst[i + 1]) {
      throw std::runtime_error(
          "harden: text-pointer li/la pair at " +
          orig.Locate(orig.insts[i].addr) + " straddles a block boundary");
    }
  }

  HardenPlan plan;
  plan.mode = mode;
  std::uint32_t used = (1u << 0) | (1u << 16) | (1u << 17);  // syscall ABI
  for (const auto& ai : orig.insts) {
    if (!ai.canonical) continue;
    used |= analyze::UseMask(ai.d) | analyze::DefMask(ai.d);
  }
  static constexpr std::uint8_t kPool[] = {29, 28, 27, 26, 30, 21, 20, 19,
                                           18, 25, 24, 23, 22, 15, 14, 13,
                                           12, 11, 10, 9,  8,  7,  6,  5,
                                           4,  3,  2,  1};
  std::vector<std::uint8_t*> roles;
  // push_back, not insert(initializer_list): GCC 12 under -fsanitize=thread
  // reports a false -Wstringop-overflow on the range insert.
  if (plan.Dup())
    for (std::uint8_t* r : {&plan.sb, &plan.s1, &plan.s2, &plan.s3})
      roles.push_back(r);
  if (plan.Cfc()) roles.push_back(&plan.g);
  roles.push_back(&plan.t);
  std::size_t next = 0;
  for (std::uint8_t* role : roles) {
    while (next < std::size(kPool) && (used & (1u << kPool[next]))) ++next;
    if (next >= std::size(kPool)) {
      throw std::runtime_error(
          "harden: not enough unused registers for mode " +
          std::string(HardenModeName(mode)));
    }
    *role = kPool[next++];
  }
  if (plan.Dup()) {
    std::uint64_t end = 0;
    // The original text chunk is not in `orig` (AsmProgram) chunk form; use
    // its end address plus every data chunk implied by symbols. The caller
    // passes the full Program to Harden, which recomputes this bound; here
    // it is derived from the lifted view for verifier reproducibility.
    end = std::max(end, orig.EndAddr());
    for (const auto& [name, value] : orig.symbols)
      end = std::max(end, value);
    plan.shadow_base = ((end + 0xFFFF) / 0x10000 + 1) * 0x10000;
  }
  if (cfg.blocks.size() != plan.sig.size()) {
    plan.sig.resize(cfg.blocks.size());
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
      plan.sig[b] = 2 + static_cast<std::int64_t>(b);
  }
  return plan;
}

HardenedProgram Harden(const Program& orig, HardenMode mode) {
  const AsmProgram ap = analyze::Lift(orig);
  const Cfg cfg = analyze::BuildCfg(ap);
  HardenPlan plan = PlanHarden(ap, cfg, mode);
  if (plan.Dup()) {
    // Tighten the shadow region using the real chunk extents (symbols alone
    // under-approximate data that labels only at its start).
    std::uint64_t end = 0;
    for (const auto& c : orig.chunks)
      end = std::max(end, c.addr + c.bytes.size());
    for (const auto& [name, value] : orig.symbols)
      end = std::max(end, value);
    plan.shadow_base = ((end + 0xFFFF) / 0x10000 + 1) * 0x10000;
  }
  return Emitter(ap, cfg, plan).Run(orig);
}

std::vector<AsmFinding> VerifyHardened(const Program& orig,
                                       const Program& hardened,
                                       HardenMode mode,
                                       const std::string& unit) {
  std::vector<AsmFinding> out;
  const auto emit = [&out, &unit](AsmFindingKind kind, std::uint64_t addr,
                                  const std::string& where,
                                  std::string detail) {
    AsmFinding f;
    f.kind = kind;
    f.unit = unit;
    f.addr = addr;
    f.where = where;
    f.detail = std::move(detail);
    out.push_back(std::move(f));
  };

  // Re-derive the reference hardening from the original alone.
  const HardenedProgram expected = Harden(orig, mode);
  const AsmProgram orig_ap = analyze::Lift(orig);

  const AsmProgram exp_ap = analyze::Lift(expected.program);
  AsmProgram act_ap;
  try {
    act_ap = analyze::Lift(hardened);
  } catch (const std::exception& e) {
    emit(AsmFindingKind::kHardenStructure, 0, "text", e.what());
    return out;
  }
  if (act_ap.text_base != exp_ap.text_base ||
      hardened.entry != expected.program.entry) {
    emit(AsmFindingKind::kHardenStructure, 0, "entry",
         "hardened entry/text base does not match the hardened layout");
  }
  if (act_ap.insts.size() != exp_ap.insts.size()) {
    emit(AsmFindingKind::kHardenStructure, 0, "text",
         "hardened text is " + std::to_string(act_ap.insts.size()) +
             " words, expected " + std::to_string(exp_ap.insts.size()));
  }

  // Component-by-component comparison: each deviation gets the component's
  // finding class, located at the original-program instruction it serves.
  const std::uint32_t reserved = expected.plan.ReservedMask();
  for (const auto& c : expected.components) {
    bool mismatch = false;
    for (std::size_t w = c.first_word; w < c.first_word + c.num_words; ++w) {
      if (w >= act_ap.insts.size() ||
          act_ap.insts[w].word != exp_ap.insts[w].word) {
        mismatch = true;
        break;
      }
    }
    if (mismatch) {
      emit(c.kind, c.orig_addr, orig_ap.Locate(c.orig_addr),
           std::string(c.what) + " missing or corrupted");
    }
    // Independent of word equality: a master op may never touch reserved
    // registers or address the shadow region (it would desynchronize or
    // forge the very state the checks rely on).
    if (std::string_view(c.what) == "master") {
      for (std::size_t w = c.first_word;
           w < c.first_word + c.num_words && w < act_ap.insts.size(); ++w) {
        const DecodedInst& d = act_ap.insts[w].d;
        if (!act_ap.insts[w].canonical) continue;
        const std::uint32_t touched =
            analyze::UseMask(d) | analyze::DefMask(d);
        if ((touched & reserved) ||
            (d.IsMem() && d.src1 == expected.plan.sb)) {
          emit(AsmFindingKind::kShadowClobber, c.orig_addr,
               orig_ap.Locate(c.orig_addr),
               "master `" + Disassemble(act_ap.insts[w].word,
                                        act_ap.insts[w].addr) +
                   "` touches reserved hardening state");
        }
      }
    }
  }

  // The fault block must remain a trap.
  if (expected.fault_word < act_ap.insts.size() &&
      act_ap.insts[expected.fault_word].d.cls != InsnClass::kIllegal) {
    emit(AsmFindingKind::kHardenStructure, 0, "__harden_fault",
         "fault block no longer raises illegal-opcode");
  }

  // Data image must be carried over untouched.
  const std::size_t exp_chunks = expected.program.chunks.size();
  if (hardened.chunks.size() != exp_chunks) {
    emit(AsmFindingKind::kHardenStructure, 0, "data",
         "hardened image has " + std::to_string(hardened.chunks.size()) +
             " chunks, expected " + std::to_string(exp_chunks));
  } else {
    for (std::size_t i = 1; i < exp_chunks; ++i) {
      if (hardened.chunks[i].addr != expected.program.chunks[i].addr ||
          hardened.chunks[i].bytes != expected.program.chunks[i].bytes) {
        emit(AsmFindingKind::kHardenStructure, hardened.chunks[i].addr,
             "data", "data chunk differs from the original image");
      }
    }
  }
  return out;
}

std::optional<HardenMode> ParseHardenSuffix(const std::string& workload,
                                            std::string* base_name) {
  struct Suffix {
    const char* text;
    HardenMode mode;
  };
  static constexpr Suffix kSuffixes[] = {{"+swdup", HardenMode::kDup},
                                         {"+swcfc", HardenMode::kCfc},
                                         {"+sw", HardenMode::kFull}};
  for (const Suffix& s : kSuffixes) {
    const std::size_t n = std::strlen(s.text);
    if (workload.size() > n &&
        workload.compare(workload.size() - n, n, s.text) == 0) {
      if (base_name) *base_name = workload.substr(0, workload.size() - n);
      return s.mode;
    }
  }
  if (base_name) *base_name = workload;
  return std::nullopt;
}

Program ResolveCampaignProgram(const std::string& workload) {
  std::string base;
  const auto mode = ParseHardenSuffix(workload, &base);
  const Program p = BuildWorkload(WorkloadByName(base), kCampaignIters);
  if (!mode) return p;
  return Harden(p, *mode).program;
}

}  // namespace tfsim
