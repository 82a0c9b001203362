// On-disk campaign results cache, golden warm starts and checkpoint
// journals.
//
// Several paper figures derive from the same campaign (Figures 3/4/7/8 share
// the latches+RAMs baseline campaign), and each bench binary regenerates one
// figure, so results are cached under TFI_CACHE_DIR (default
// <cwd>/.tfi_cache) keyed by a versioned content hash of the campaign spec.
// Delete the directory (or change TFI_TRIALS) to force recomputation.
//
// Cache files are "tfi-cache v2": a CRC32-checksummed payload written via
// temp-file + atomic rename (the envelope below, which the Section 5 soft
// campaign results share), with every floating-point field serialized at
// max_digits10 so cache hits reproduce golden stats bit-exactly. Files whose
// checksum, length or structure do not verify are treated as absent (the
// campaign re-runs cleanly), as are files with any other magic (the legacy
// "tfi-cache v1" format included).
//
// Golden warm starts ("<CampaignSpec::WarmStartKey()>.warm", magic
// "tfi-warm v1", same checksummed-atomic envelope around a binary payload)
// hold the machine after a golden run's detailed warm-up. Their key covers
// only the machine, the program and the warm-up length, so the l and l+r
// campaigns of a workload (and every seed and trial count) simulate the
// warm-up once between them.
//
// Checkpoint journals ("<key>.ckpt", same checksummed-atomic envelope) hold
// the contiguous completed-trial prefix of an in-flight campaign, flushed
// every CampaignOptions::checkpoint_every trials and on interruption, so a
// killed campaign resumes exactly where it stopped.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "inject/campaign.h"

namespace tfsim {

std::string CacheDir();

// --- the checksummed envelope -------------------------------------------------
//
// Every cache file is "<magic>\n<crc32 hex> <payload bytes>\n<payload>".

// Reads the envelope at `path`: its payload, or nullopt when the file is
// absent, carries another magic, or is torn, truncated, padded or tampered
// (length or CRC mismatch). Chaos site: `failpoint`, evaluated once.
std::optional<std::string> LoadEnvelope(const std::filesystem::path& path,
                                        const char* magic,
                                        const char* failpoint);

// Best-effort atomic store: ensures the directory, writes temp + rename,
// retries transient failures with bounded backoff (3 attempts), and
// surfaces final failure via stderr and the `failure_counter` metric when
// `metrics` is non-null instead of silently dropping results. `failpoint`
// is the chaos site evaluated once per attempt (so a one-in-2 policy fails
// the first attempt and lets the retry succeed).
bool StoreEnvelope(const std::filesystem::path& path, const char* magic,
                   const std::string& payload, const char* failpoint,
                   const char* failure_counter,
                   obs::MetricsRegistry* metrics = nullptr);

std::optional<CampaignResult> LoadCachedCampaign(const CampaignSpec& spec);

// Stores `result` in the cache (best-effort). Transient failures retry with
// bounded backoff (3 attempts); on final failure — unwritable cache
// directory, failed atomic rename — returns false, warns on stderr, and
// increments `campaign.cache.store_failures` when `metrics` is non-null.
// Chaos sites: `cache.store` per attempt, `fs.atomic_write` underneath.
bool StoreCachedCampaign(const CampaignResult& result,
                         obs::MetricsRegistry* metrics = nullptr);

// --- golden warm starts -----------------------------------------------------

// Loads the warm start for `spec`, if a valid one exists: a file that fails
// its checksum, has another magic, or does not parse to spec.golden.warmup
// cycles of a running machine is a miss (RunCampaign also treats a delta
// that does not fit the core, Core::DeltaFits, as one). Chaos site:
// `cache.load`.
std::optional<GoldenWarmStart> LoadGoldenWarmStart(const CampaignSpec& spec);

// Stores the warm start for `spec` (best-effort, retried like the results
// store; final failures increment `campaign.cache.warm_store_failures`).
// Chaos site: `cache.store` per attempt.
bool StoreGoldenWarmStart(const CampaignSpec& spec, const GoldenWarmStart& warm,
                          obs::MetricsRegistry* metrics = nullptr);

// Warm-start path for `spec` (exposed for tests and diagnostics).
std::string GoldenWarmStartPath(const CampaignSpec& spec);

// --- checkpoint journal ------------------------------------------------------

// Loads the checkpoint journal for `spec`, if a valid one exists. The
// returned records are the contiguous completed prefix (trial indices
// [0, size)) of a previous interrupted run of the same CacheKey.
std::optional<std::vector<TrialRecord>> LoadCampaignCheckpoint(
    const CampaignSpec& spec);

// Atomically writes the checkpoint journal for `spec` holding `prefix`
// (completed trials [0, prefix.size())). Best-effort like the cache store,
// with the same retry/backoff; final failures increment
// `campaign.checkpoint.store_failures` (and the campaign then disables
// checkpointing for the rest of the run — see RunCampaign).
bool StoreCampaignCheckpoint(const CampaignSpec& spec,
                             const std::vector<TrialRecord>& prefix,
                             obs::MetricsRegistry* metrics = nullptr);

// Deletes the journal for `spec` (after the campaign completes).
void RemoveCampaignCheckpoint(const CampaignSpec& spec);

// Journal path for `spec` (exposed for tests and diagnostics).
std::string CampaignCheckpointPath(const CampaignSpec& spec);

}  // namespace tfsim
