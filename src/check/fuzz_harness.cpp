#include "check/fuzz_harness.h"

#include <cstdio>

#include "arch/functional_sim.h"
#include "check/invariants.h"

namespace tfsim::check {

FuzzCaseResult RunLockstep(const Program& prog, const FuzzRunOptions& opt) {
  CoreConfig cfg = opt.core;
  cfg.check_invariants = opt.check_invariants;
  Core core(cfg, prog);
  FunctionalSim ref(prog);
  FuzzCaseResult r;
  const auto fail = [&](std::string failure) {
    r.ok = false;
    r.failure = std::move(failure);
    r.stats = core.stats();
    return r;
  };
  std::uint64_t last_retire_cycle = 0;
  for (std::uint64_t c = 0; c < opt.cycles && !core.exited(); ++c) {
    core.Cycle();
    if (core.halted_exception() != Exception::kNone)
      return fail(std::string("pipeline exception ") +
                  ExceptionName(core.halted_exception()) + " at cycle " +
                  std::to_string(c));
    if (core.itlb_miss()) {
      char addr[32];
      std::snprintf(addr, sizeof addr, "0x%llx",
                    static_cast<unsigned long long>(core.itlb_addr()));
      return fail("itlb miss at cycle " + std::to_string(c) + " addr=" +
                  addr);
    }
    for (const RetireEvent& ev : core.RetiredThisCycle()) {
      const RetireEvent want = ref.Step();
      if (!(ev == want))
        return fail("retire mismatch #" + std::to_string(r.retired) +
                    " at cycle " + std::to_string(c) + "\n  core: " +
                    ToString(ev) + "\n  ref : " + ToString(want));
      ++r.retired;
    }
    if (!core.RetiredThisCycle().empty()) last_retire_cycle = c;
    if (const InvariantChecker* chk = core.invariant_checker();
        chk && chk->total() != 0) {
      r.violations = chk->total();
      const InvariantViolation& v = chk->violations().front();
      return fail(std::string("invariant violation [") +
                  InvariantKindName(v.kind) + "] at cycle " +
                  std::to_string(v.cycle) + ": " + v.detail);
    }
    if (c - last_retire_cycle > opt.deadlock_cycles)
      return fail("deadlock: no retirement since cycle " +
                  std::to_string(last_retire_cycle));
  }
  r.stats = core.stats();
  return r;
}

ShrinkResult ShrinkFailure(const FuzzProgram& prog,
                           const FuzzRunOptions& opt) {
  ShrinkResult out;
  out.enabled.assign(prog.blocks.size(), true);
  const FuzzCaseResult full =
      RunLockstep(Assemble(prog.Source(out.enabled)), opt);
  ++out.runs;
  out.failure = full.failure;
  if (full.ok) {  // caller error (case doesn't fail); return it unshrunk
    out.source = prog.Source(out.enabled);
    return out;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < out.enabled.size(); ++i) {
      if (!out.enabled[i]) continue;
      out.enabled[i] = false;
      const FuzzCaseResult r =
          RunLockstep(Assemble(prog.Source(out.enabled)), opt);
      ++out.runs;
      if (r.ok) {
        out.enabled[i] = true;  // block is load-bearing, keep it
      } else {
        out.failure = r.failure;
        progress = true;
      }
    }
  }
  out.source = prog.Source(out.enabled);
  return out;
}

}  // namespace tfsim::check
