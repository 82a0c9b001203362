#include "inject/cache.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace tfsim {
namespace {

constexpr const char* kMagicV2 = "tfi-cache v2";
constexpr const char* kCkptMagic = "tfi-ckpt v1";
constexpr const char* kWarmMagic = "tfi-warm v1";

// --- record serialization ----------------------------------------------------

void WriteTrial(std::ostream& os, const TrialRecord& t) {
  os << static_cast<int>(t.outcome) << ' ' << static_cast<int>(t.mode) << ' '
     << static_cast<int>(t.cat) << ' ' << static_cast<int>(t.storage) << ' '
     << t.cycles << ' ' << t.valid_instrs << ' ' << t.inflight << '\n';
}

bool ReadTrial(std::istream& in, TrialRecord& t) {
  int outcome, mode, cat, storage;
  in >> outcome >> mode >> cat >> storage >> t.cycles >> t.valid_instrs >>
      t.inflight;
  if (!in) return false;
  if (outcome < 0 || outcome >= kNumOutcomes || mode < 0 ||
      mode >= kNumFailureModes || cat < 0 || cat >= kNumStateCats ||
      storage < 0 || storage > 2)
    return false;
  t.outcome = static_cast<Outcome>(outcome);
  t.mode = static_cast<FailureMode>(mode);
  t.cat = static_cast<StateCat>(cat);
  t.storage = static_cast<Storage>(storage);
  return true;
}

// The v2 payload, with every double at max_digits10 so a cache hit
// reproduces the live run's golden stats bit-exactly.
std::string SerializeResultPayload(const CampaignResult& r) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << r.trials.size() << '\n';
  for (int c = 0; c < kNumStateCats; ++c)
    os << r.inventory[c].latch_bits << ' ' << r.inventory[c].ram_bits << '\n';
  os << r.golden_ipc << ' ' << r.golden_bp_accuracy << ' '
     << r.golden_dcache_misses << '\n';
  for (const auto& t : r.trials) WriteTrial(os, t);
  return os.str();
}

// Parses a v2 payload from `in` into `r` (spec already set), rejecting one
// whose record count differs from the spec's or that has trailing bytes.
bool ParseResultPayload(std::istream& in, CampaignResult& r) {
  std::size_t n = 0;
  in >> n;
  for (int c = 0; c < kNumStateCats; ++c)
    in >> r.inventory[c].latch_bits >> r.inventory[c].ram_bits;
  in >> r.golden_ipc >> r.golden_bp_accuracy >> r.golden_dcache_misses;
  if (!in || n != static_cast<std::size_t>(r.spec.trials)) return false;
  r.trials.resize(n);
  for (auto& t : r.trials)
    if (!ReadTrial(in, t)) return false;
  if (!(in >> std::ws).eof()) return false;
  // Rebuild the quarantine index (messages are diagnostic-only and not
  // persisted) so cached and live results agree on its shape.
  for (std::size_t i = 0; i < n; ++i)
    if (r.trials[i].outcome == Outcome::kTrialError)
      r.quarantined.push_back({i, std::string()});
  return true;
}

// --- checksummed envelope ----------------------------------------------------
//
//   <magic>\n
//   <crc32 hex> <payload bytes>\n
//   <payload>

std::string WrapChecksummed(const char* magic, const std::string& payload) {
  std::ostringstream os;
  os << magic << '\n' << std::hex << Crc32(payload) << std::dec << ' '
     << payload.size() << '\n'
     << payload;
  return os.str();
}

// Reads and verifies the envelope after the magic line has been consumed.
// Returns the payload only if the declared length matches the remaining
// bytes exactly and the CRC verifies — torn, truncated, padded or tampered
// files all fail here and the caller falls back to a clean re-run.
std::optional<std::string> ReadChecksummed(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) return std::nullopt;
  std::istringstream hs(header);
  std::uint32_t crc = 0;
  std::size_t size = 0;
  hs >> std::hex >> crc >> std::dec >> size;
  if (!hs) return std::nullopt;
  std::string payload(size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) return std::nullopt;
  if (in.peek() != std::char_traits<char>::eof()) return std::nullopt;
  if (Crc32(payload) != crc) return std::nullopt;
  return payload;
}

constexpr int kStoreAttempts = 3;
constexpr std::uint64_t kStoreBackoffUs = 1000;  // 1ms, then 4ms

// --- warm-start serialization -----------------------------------------------
//
// Binary payload: every scalar as a little-endian u64 (bytes as one byte),
// every vector as its length then its elements, in WarmStartFields order.

struct PayloadWriter {
  std::string out;
  void Field(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  void Field(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void Field(bool v) { Field(static_cast<std::uint64_t>(v)); }
  void Field(Exception v) { Field(static_cast<std::uint64_t>(v)); }
  template <typename A, typename B>
  void Field(const std::pair<A, B>& p) {
    Field(static_cast<std::uint64_t>(p.first));
    Field(static_cast<std::uint64_t>(p.second));
  }
  template <typename T>
  void Field(const std::vector<T>& v) {
    Field(static_cast<std::uint64_t>(v.size()));
    for (const T& e : v) Field(e);
  }
};

struct PayloadReader {
  std::string_view in;
  bool ok = true;

  std::uint64_t U64() {
    if (in.size() < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
           << (8 * i);
    in.remove_prefix(8);
    return v;
  }
  void Field(std::uint64_t& v) { v = U64(); }
  void Field(std::uint32_t& v) {
    const std::uint64_t x = U64();
    if (x > 0xffffffffULL) ok = false;
    v = static_cast<std::uint32_t>(x);
  }
  void Field(bool& v) {
    const std::uint64_t x = U64();
    if (x > 1) ok = false;
    v = x != 0;
  }
  void Field(Exception& v) {
    const std::uint64_t x = U64();
    if (x > 0xff) ok = false;
    v = static_cast<Exception>(x);
  }
  void Field(std::uint8_t& v) {
    if (in.empty()) {
      ok = false;
      return;
    }
    v = static_cast<std::uint8_t>(in.front());
    in.remove_prefix(1);
  }
  template <typename A, typename B>
  void Field(std::pair<A, B>& p) {
    Field(p.first);
    Field(p.second);
  }
  template <typename T>
  void Field(std::vector<T>& v) {
    const std::uint64_t n = U64();
    // Every element takes at least one byte: a larger count is corrupt.
    if (!ok || n > in.size()) {
      ok = false;
      return;
    }
    v.resize(n);
    for (T& e : v) Field(e);
  }
};

// The one field list both directions walk; W is GoldenWarmStart, const when
// writing.
template <typename IO, typename W>
void WarmStartFields(IO& io, W& w) {
  io.Field(w.warmup);
  auto& s = w.stats;
  for (auto* f : {&s.cycles, &s.retired, &s.branches, &s.mispredicts,
                  &s.loads, &s.dcache_misses, &s.replays, &s.wakeup_replays,
                  &s.order_violations, &s.full_flushes, &s.timeout_flushes,
                  &s.parity_flushes})
    io.Field(*f);
  io.Field(w.itlb_pages);
  io.Field(w.dtlb_pages);
  io.Field(w.retire_gap);
  io.Field(w.max_retire_gap);
  auto& d = w.delta;
  io.Field(d.words);
  io.Field(d.mem);
  io.Field(d.output);
  io.Field(d.out_hash);
  io.Field(d.exited);
  io.Field(d.exit_code);
  io.Field(d.halted_exc);
  io.Field(d.retired_total);
  io.Field(d.seq_counter);
  for (auto* v : {&d.fq_seq, &d.fb_seq, &d.d1_seq, &d.d2_seq, &d.rob_seq})
    io.Field(*v);
  io.Field(d.inflight);
}

}  // namespace

std::string CacheDir() {
  return EnvStr("TFI_CACHE_DIR", ".tfi_cache");
}

std::optional<std::string> LoadEnvelope(const std::filesystem::path& path,
                                        const char* magic,
                                        const char* failpoint) {
  // A firing load failpoint is indistinguishable from an absent/corrupt
  // file: the caller re-runs cleanly (the graceful-degradation path chaos
  // tests pin).
  if (fail::FailHere(failpoint)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  std::getline(in, line);
  if (line != magic) return std::nullopt;
  return ReadChecksummed(in);
}

bool StoreEnvelope(const std::filesystem::path& path, const char* magic,
                   const std::string& payload, const char* failpoint,
                   const char* failure_counter, obs::MetricsRegistry* metrics) {
  const std::string data = WrapChecksummed(magic, payload);
  std::string error;
  for (int attempt = 0; attempt < kStoreAttempts; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(
          kStoreBackoffUs << (2 * (attempt - 1))));
    error.clear();
    // The directory may have been removed between attempts (or never
    // existed); re-ensure it inside the retry loop.
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      error = "cannot create " + path.parent_path().string() + ": " +
              ec.message();
      continue;
    }
    if (fail::FailHere(failpoint)) {
      error = std::string("failpoint: ") + failpoint;
      continue;
    }
    if (AtomicWriteFile(path, data, &error)) return true;
  }
  std::fprintf(stderr, "[cache] store failed after %d attempts: %s\n",
               kStoreAttempts, error.c_str());
  if (metrics) metrics->GetCounter(failure_counter).Inc();
  return false;
}

std::optional<CampaignResult> LoadCachedCampaign(const CampaignSpec& spec) {
  // Only v2 is read: every v1 file was written under a key salt that can no
  // longer match, so any other magic is a miss and the campaign re-runs.
  const auto payload = LoadEnvelope(
      std::filesystem::path(CacheDir()) / (spec.CacheKey() + ".txt"),
      kMagicV2, "cache.load");
  if (!payload) return std::nullopt;
  CampaignResult r;
  r.spec = spec;
  std::istringstream body(*payload);
  if (!ParseResultPayload(body, r)) return std::nullopt;
  return r;
}

bool StoreCachedCampaign(const CampaignResult& result,
                         obs::MetricsRegistry* metrics) {
  const std::filesystem::path path =
      std::filesystem::path(CacheDir()) / (result.spec.CacheKey() + ".txt");
  return StoreEnvelope(path, kMagicV2, SerializeResultPayload(result),
                       "cache.store", "campaign.cache.store_failures",
                       metrics);
}

// --- golden warm starts -----------------------------------------------------

std::string GoldenWarmStartPath(const CampaignSpec& spec) {
  return (std::filesystem::path(CacheDir()) / (spec.WarmStartKey() + ".warm"))
      .string();
}

std::optional<GoldenWarmStart> LoadGoldenWarmStart(const CampaignSpec& spec) {
  const auto payload =
      LoadEnvelope(GoldenWarmStartPath(spec), kWarmMagic, "cache.load");
  if (!payload) return std::nullopt;
  PayloadReader reader{*payload};
  GoldenWarmStart warm;
  WarmStartFields(reader, warm);
  // A warm-up never exits or raises (WarmUpGolden throws instead).
  if (!reader.ok || !reader.in.empty() || warm.warmup != spec.golden.warmup ||
      warm.delta.exited || warm.delta.halted_exc != Exception::kNone)
    return std::nullopt;
  return warm;
}

bool StoreGoldenWarmStart(const CampaignSpec& spec, const GoldenWarmStart& warm,
                          obs::MetricsRegistry* metrics) {
  PayloadWriter writer;
  WarmStartFields(writer, warm);
  return StoreEnvelope(GoldenWarmStartPath(spec), kWarmMagic, writer.out,
                       "cache.store", "campaign.cache.warm_store_failures",
                       metrics);
}

// --- checkpoint journal ------------------------------------------------------
//
// Journal payload: the campaign's total trial count (a cross-check against
// the spec, though the CacheKey already pins it) followed by the completed
// prefix length and that many records in trial-index order.

std::string CampaignCheckpointPath(const CampaignSpec& spec) {
  return (std::filesystem::path(CacheDir()) / (spec.CacheKey() + ".ckpt"))
      .string();
}

std::optional<std::vector<TrialRecord>> LoadCampaignCheckpoint(
    const CampaignSpec& spec) {
  const auto payload =
      LoadEnvelope(CampaignCheckpointPath(spec), kCkptMagic, "ckpt.load");
  if (!payload) return std::nullopt;
  std::istringstream body(*payload);
  std::size_t total = 0, done = 0;
  body >> total >> done;
  if (!body || total != static_cast<std::size_t>(spec.trials) || done > total)
    return std::nullopt;
  std::vector<TrialRecord> prefix(done);
  for (auto& t : prefix)
    if (!ReadTrial(body, t)) return std::nullopt;
  return prefix;
}

bool StoreCampaignCheckpoint(const CampaignSpec& spec,
                             const std::vector<TrialRecord>& prefix,
                             obs::MetricsRegistry* metrics) {
  std::ostringstream os;
  os << spec.trials << '\n' << prefix.size() << '\n';
  for (const auto& t : prefix) WriteTrial(os, t);
  return StoreEnvelope(CampaignCheckpointPath(spec), kCkptMagic, os.str(),
                       "ckpt.store", "campaign.checkpoint.store_failures",
                       metrics);
}

void RemoveCampaignCheckpoint(const CampaignSpec& spec) {
  std::error_code ec;
  std::filesystem::remove(CampaignCheckpointPath(spec), ec);
}

}  // namespace tfsim
