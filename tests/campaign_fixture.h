// Shared scaffolding for the campaign tests: a scoped results-cache
// directory, the small campaign shape they run, quiet live options, a
// TrialRecord printer for EXPECT_EQ failure messages, and raw file I/O for
// the tamper tests.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "inject/campaign.h"

namespace tfsim {

// Points TFI_CACHE_DIR at a fresh directory under the temp dir for the
// object's lifetime; the destructor removes it and restores the previous
// value, so scopes nest.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_((std::filesystem::temp_directory_path() / name).string()) {
    if (const char* prev = std::getenv("TFI_CACHE_DIR")) prev_ = prev;
    std::filesystem::remove_all(dir_);
    ::setenv("TFI_CACHE_DIR", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    std::filesystem::remove_all(dir_);
    if (prev_)
      ::setenv("TFI_CACHE_DIR", prev_->c_str(), 1);
    else
      ::unsetenv("TFI_CACHE_DIR");
  }
  ScopedCacheDir(const ScopedCacheDir&) = delete;
  ScopedCacheDir& operator=(const ScopedCacheDir&) = delete;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::optional<std::string> prev_;
};

// A campaign small enough for a unit test: a 12K-cycle warm-up and three
// start points, `trials` trials observed for `window` cycles each.
inline CampaignSpec SmallCampaign(int trials,
                                  const std::string& workload = "gzip",
                                  std::uint64_t window = 4000) {
  CampaignSpec spec;
  spec.workload = workload;
  spec.trials = trials;
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = window;
  spec.golden.slack = 1000;
  return spec;
}

// Live execution with no progress output and no results cache.
inline CampaignOptions QuietLive() {
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  return opt;
}

inline void PrintTo(const TrialRecord& t, std::ostream* os) {
  *os << OutcomeName(t.outcome) << '/' << FailureModeName(t.mode) << ' '
      << StateCatName(t.cat) << " storage=" << static_cast<int>(t.storage)
      << " @" << t.cycles << " vi=" << t.valid_instrs << " if=" << t.inflight;
}

inline std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

}  // namespace tfsim
